import csv
import json
import os

import pytest

from scenex.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_VALIDATION,
    build_parser,
    load_run_config,
    main,
)
from scenex.map_model import load_map
from scenex.metrics import read_metric_table
from scenex.scene_io import load_tracks

ROSTER = """\
format: scenex-roster
version: 1
models:
  - {kind: standard}
  - {kind: risky}
  - {kind: constant_velocity}
  - {kind: emergency_brake}
"""

TWO_MODEL_ROSTER = """\
format: scenex-roster
version: 1
models:
  - {kind: constant_velocity}
  - {kind: emergency_brake}
"""


def write_config(tmp_path, roster=ROSTER, **extra):
    """A synth run config; `extra` adds fields or replaces the defaults."""
    roster_path = tmp_path / "roster.yaml"
    roster_path.write_text(roster)
    out = tmp_path / "out"
    fields = {
        "roster": str(roster_path),
        "output_dir": str(out),
        "synth": "{template: car_following, "
                 "params: {n_vehicles: 2, gap: 20.0, speed: 10.0}}",
        "n_runs": "10",
    }
    fields.update(extra)
    lines = ["format: scenex-run", "version: 1"]
    lines += [f"{k}: {v}" for k, v in fields.items()]
    cfg = tmp_path / "run.yaml"
    cfg.write_text("\n".join(lines) + "\n")
    return cfg, out


def read_bytes_tree(root):
    blobs = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            full = os.path.join(dirpath, name)
            with open(full, "rb") as fh:
                blobs[os.path.relpath(full, root)] = fh.read()
    return blobs


class TestSimulate:
    def test_outputs(self, tmp_path):
        cfg, out = write_config(tmp_path)
        assert main(["simulate", "--config", str(cfg), "--jobs", "1"]) == EXIT_OK
        logs = sorted(os.listdir(out / "logs"))
        assert logs == [f"child_{i:05d}.csv" for i in range(10)]
        _, rows = read_metric_table(out / "metrics.csv")
        assert len(rows) == 10
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["mode"] == "simulate"
        assert manifest["n_children"] == 10
        assert manifest["n_failed"] == 0

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg, out = write_config(tmp_path)
        assert main(["simulate", "--config", str(cfg), "--jobs", "1"]) == EXIT_OK
        first = read_bytes_tree(out)
        assert main(["simulate", "--config", str(cfg), "--jobs", "1"]) == EXIT_OK
        assert read_bytes_tree(out) == first

    def test_jobs_do_not_change_outputs(self, tmp_path):
        cfg, out = write_config(tmp_path)
        out2 = tmp_path / "out2"
        assert main(["simulate", "--config", str(cfg), "--jobs", "1"]) == EXIT_OK
        assert main(["simulate", "--config", str(cfg), "--jobs", "2",
                     "--output-dir", str(out2)]) == EXIT_OK
        a = read_bytes_tree(out)
        b = read_bytes_tree(out2)
        del a["manifest.json"], b["manifest.json"]  # embeds output_dir
        assert a == b

    def test_cli_overrides(self, tmp_path):
        cfg, out = write_config(tmp_path)
        assert main(["simulate", "--config", str(cfg), "--jobs", "1",
                     "--n-runs", "3", "--rng-seed", "5"]) == EXIT_OK
        _, rows = read_metric_table(out / "metrics.csv")
        assert [r[1] for r in rows] == [5, 4, 7]  # 5 XOR {0,1,2}


class TestEnumerate:
    def test_all_assignments(self, tmp_path):
        cfg, out = write_config(tmp_path, roster=TWO_MODEL_ROSTER)
        assert main(["enumerate", "--config", str(cfg), "--jobs", "1"]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["mode"] == "enumerate"
        assert manifest["n_children"] == 4
        combos = {tuple(c["assignment"].values()) for c in manifest["children"]}
        assert len(combos) == 4


class TestChildFailures:
    def test_any_exception_fails_only_its_child(self, tmp_path):
        # v0 = 1e-300 makes (v / v0) ** delta overflow in the IDM law
        roster = ("format: scenex-roster\nversion: 1\nmodels:\n"
                  "  - {kind: standard, params: {v0: 1.0e-300}}\n"
                  "  - {kind: constant_velocity}\n")
        cfg, out = write_config(tmp_path, roster=roster)
        out2 = tmp_path / "out2"
        assert main(["enumerate", "--config", str(cfg), "--jobs", "1"]) == EXIT_OK
        assert main(["enumerate", "--config", str(cfg), "--jobs", "2",
                     "--output-dir", str(out2)]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["n_children"] == 4
        assert manifest["n_failed"] == 3
        _, rows = read_metric_table(out / "metrics.csv")
        assert len(rows) == 1
        for child in manifest["children"]:
            if child["status"] == "ok":
                assert set(child["assignment"].values()) == {"constant_velocity"}
                continue
            assert child["model_kind"] == "standard"
            assert child["error_class"] == "OverflowError"
            assert child["step"] == 0
            assert child["assignment"][str(child["track_id"])] == "standard"
            assert f"track {child['track_id']} failed at step 0" in child["error"]
        second = json.loads((out2 / "manifest.json").read_text())
        second["config"]["output_dir"] = manifest["config"]["output_dir"]
        assert second == manifest
        a, b = read_bytes_tree(out), read_bytes_tree(out2)
        del a["manifest.json"], b["manifest.json"]
        assert a == b
        # the surviving child's log is the one it has in a failure-free run
        (tmp_path / "cv").mkdir()
        cfg_cv, out_cv = write_config(tmp_path / "cv", roster=(
            "format: scenex-roster\nversion: 1\nmodels:\n"
            "  - {kind: constant_velocity}\n"))
        assert main(["enumerate", "--config", str(cfg_cv), "--jobs", "1"]) == EXIT_OK
        assert (read_bytes_tree(out_cv)[os.path.join("logs", "child_00000.csv")]
                == a[os.path.join("logs", "child_00003.csv")])


class TestValidation:
    def test_both_sources_rejected(self, tmp_path):
        cfg, _ = write_config(tmp_path, tracks="{path: tracks.csv}",
                              map="map.yaml")
        assert main(["simulate", "--config", str(cfg)]) == EXIT_VALIDATION

    def test_unknown_field_rejected(self, tmp_path):
        cfg, _ = write_config(tmp_path, bogus_field="1")
        assert main(["simulate", "--config", str(cfg)]) == EXIT_VALIDATION

    def test_missing_config_is_io_error(self, tmp_path):
        assert main(["simulate", "--config",
                     str(tmp_path / "nope.yaml")]) == EXIT_IO

    def test_bad_replan_interval(self, tmp_path):
        cfg, _ = write_config(tmp_path, replan_interval="0")
        assert main(["simulate", "--config", str(cfg)]) == EXIT_VALIDATION

    @pytest.mark.parametrize("field, value", [
        ("n_runs", "abc"),
        ("horizon_steps", "x"),
        ("history_len", '"3"'),
        ("rng_seed", "s"),
        ("replan_interval", "2.5"),
        ("n_runs", "true"),
        ("enumeration_cap", "1000.0"),
        ("route_horizon", "-5"),
        ("route_horizon", "0"),
        ("pttc_decel", ".nan"),
        ("wttc_accel", ".inf"),
        ("kde_bandwidth", "-0.5"),
        ("pttc_decel", "fast"),
        ("route_horizon", "false"),
        ("output_dir", "[a, b]"),
        ("map", "7"),
        ("synth", "car_following"),
    ])
    @pytest.mark.parametrize("command", ["simulate", "enumerate"])
    def test_mistyped_field_rejected_at_load(self, tmp_path, capsys, command,
                                             field, value):
        cfg, out = write_config(tmp_path, **{field: value})
        assert main([command, "--config", str(cfg), "--jobs", "1"]) == EXIT_VALIDATION
        assert f"field {field!r} must be" in capsys.readouterr().err
        assert not out.exists()

    def test_integer_values_of_float_fields_accepted(self, tmp_path):
        cfg, _ = write_config(tmp_path, route_horizon="150", pttc_decel="3",
                              kde_bandwidth="0.5", rng_seed="-4")
        loaded = load_run_config(cfg)
        assert (loaded.route_horizon, loaded.pttc_decel, loaded.kde_bandwidth,
                loaded.rng_seed) == (150, 3, 0.5, -4)

    @pytest.mark.parametrize("entry", [
        "{kind: standard, params: {T: -1.0}}",
        "{kind: constant_velocity, weight: .nan}",
    ])
    @pytest.mark.parametrize("command", ["simulate", "enumerate"])
    def test_bad_roster_number_fails_before_any_child(self, tmp_path, capsys,
                                                      entry, command):
        roster = ("format: scenex-roster\nversion: 1\nmodels:\n"
                  f"  - {{kind: constant_velocity}}\n  - {entry}\n")
        cfg, out = write_config(tmp_path, roster=roster)
        assert main([command, "--config", str(cfg), "--jobs", "1"]) == EXIT_VALIDATION
        assert "models[1]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_rejected(self, tmp_path, capsys, jobs):
        cfg, out = write_config(tmp_path)
        rc = main(["simulate", "--config", str(cfg), "--jobs", jobs])
        assert rc == EXIT_VALIDATION
        assert "jobs must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_jobs_default_is_the_usable_cpus(self):
        args = build_parser().parse_args(["enumerate", "--config", "run.yaml"])
        assert args.jobs == len(os.sched_getaffinity(0))

    def test_non_finite_track_value(self, tmp_path, capsys):
        scene = tmp_path / "scene"
        assert main(["synth-scene", "--template", "car_following",
                     "--out", str(scene)]) == EXIT_OK
        tracks = scene / "tracks.csv"
        lines = tracks.read_text().splitlines()
        fields = lines[1].split(",")
        fields[5] = "nan"
        lines[1] = ",".join(fields)
        tracks.write_text("\n".join(lines) + "\n")
        (tmp_path / "roster.yaml").write_text(ROSTER)
        cfg = tmp_path / "run.yaml"
        cfg.write_text("\n".join([
            "format: scenex-run",
            "version: 1",
            f"roster: {tmp_path / 'roster.yaml'}",
            f"output_dir: {tmp_path / 'out'}",
            f"map: {scene / 'map.yaml'}",
            f"tracks: {{path: {tracks}}}",
        ]) + "\n")
        rc = main(["simulate", "--config", str(cfg), "--jobs", "1"])
        assert rc == EXIT_VALIDATION
        assert "tracks.csv:2:" in capsys.readouterr().err


class TestAnalyze:
    @pytest.fixture
    def metrics_table(self, tmp_path):
        cfg, out = write_config(tmp_path)
        assert main(["simulate", "--config", str(cfg), "--jobs", "1"]) == EXIT_OK
        return out / "metrics.csv"

    def test_density_and_cumulative(self, tmp_path, metrics_table):
        out = tmp_path / "analysis"
        assert main(["analyze", str(metrics_table), "--out", str(out)]) == EXIT_OK
        with open(out / "density.csv") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 512
        assert "1_distance_worst_x" in rows[0]
        with open(out / "cumulative.csv") as fh:
            rows = list(csv.reader(fh))
        col = rows[0].index("1_distance_worst_y")
        curve = [float(r[col]) for r in rows[1:] if r[col]]
        assert all(b >= a for a, b in zip(curve, curve[1:]))
        assert curve[-1] == pytest.approx(1.0, abs=0.01)

    def test_thresholds_table(self, tmp_path, metrics_table):
        out = tmp_path / "analysis"
        assert main(["analyze", str(metrics_table), "--out", str(out)]) == EXIT_OK
        with open(out / "thresholds.csv") as fh:
            rows = list(csv.reader(fh))
        metrics_seen = {r[1] for r in rows[1:]}
        assert {"distance", "wttc", "inv_ttc"} <= metrics_seen
        for row in rows[1:]:
            assert 0.0 <= float(row[4]) <= 1.0

    def test_convergence_table(self, tmp_path, metrics_table):
        out = tmp_path / "analysis"
        assert main(["analyze", str(metrics_table), "--out", str(out),
                     "--sizes", "2,5", "--resamples", "4"]) == EXIT_OK
        with open(out / "convergence.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["table", "metric", "size", "mean_l1", "std_l1",
                           "resamples"]
        sizes = {int(r[2]) for r in rows[1:]}
        assert sizes == {2, 5}

    @pytest.mark.parametrize("option, value", [
        ("--resamples", "0"), ("--resamples", "-2"),
        ("--sizes", "0,5"), ("--sizes", "2,-5"),
    ])
    def test_non_positive_option_rejected(self, tmp_path, capsys, metrics_table,
                                          option, value):
        out = tmp_path / "analysis"
        argv = ["analyze", str(metrics_table), "--out", str(out), option, value]
        if option == "--resamples":
            argv += ["--sizes", "2,5"]
        assert main(argv) == EXIT_VALIDATION
        assert f"{option} must" in capsys.readouterr().err
        assert not out.exists()


class TestSynthSceneCommand:
    def test_writes_loadable_pair(self, tmp_path):
        out = tmp_path / "scene"
        assert main(["synth-scene", "--template", "crossing", "--out", str(out),
                     "--param", "distance_a=25.0"]) == EXIT_OK
        graph = load_map(out / "map.yaml")
        assert set(graph.lane_ids) == {"east", "north"}
        dataset = load_tracks(out / "tracks.csv")
        assert len(dataset.cases) == 1

    def test_bad_param_rejected(self, tmp_path):
        out = tmp_path / "scene"
        assert main(["synth-scene", "--template", "merge", "--out", str(out),
                     "--param", "gap=-1"]) == EXIT_VALIDATION
