import contextlib
import csv
import errno
import io
import json
import math
import os
import pickle
import shutil
import subprocess
import sys
import tempfile
import time

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import scenex
from scenex import analysis, map_model, metrics, scene_io, simulator
from scenex.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_SIMULATION,
    EXIT_VALIDATION,
    build_parser,
    load_run_config,
    main,
)
from scenex.map_model import load_map
from scenex.metrics import read_metric_table, write_metric_table
from scenex.scene_io import MAX_STEPS, MAX_SYNTH_VEHICLES, TRACK_COLUMNS, load_tracks
from scenex.simulator import MAX_ENUMERATION_CAP
from tests import oracles
from tests.test_scene_io import PEDESTRIAN, make_case

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

# every assignment has equal specs: 2 vehicles make 4 children and one log
SAME_MODEL_ROSTER = """\
format: scenex-roster
version: 1
models:
  - {kind: constant_velocity}
  - {kind: constant_velocity}
"""

# the front vehicle has no one ahead and drives at its target speed, so both
# IDM drivers and constant velocity give it the same log
REPEATING_ROSTER = """\
format: scenex-roster
version: 1
models:
  - {kind: standard}
  - {kind: risky}
  - {kind: constant_velocity}
  - {kind: constant_velocity}
"""

ROUTE_ROSTER = """\
format: scenex-roster
version: 1
models:
  - {kind: standard, route_selector: 0}
  - {kind: risky}
  - {kind: constant_velocity, route_selector: 0}
  - {kind: emergency_brake}
  - {kind: replay}
"""


def write_config(tmp_path, roster=ROSTER, **extra):
    """A synth run config; `extra` adds fields or replaces the defaults, and
    None leaves a field out."""
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
    lines += [f"{k}: {v}" for k, v in fields.items() if v is not None]
    cfg = tmp_path / "run.yaml"
    cfg.write_text("\n".join(lines) + "\n")
    return cfg, out


# a dotted field is a key of the `tracks` or `synth` mapping, whose other keys
# are valid; the run config has no field named in UNKNOWN_FIELDS
NESTED_BASE = {"tracks": {"path": "tracks.csv"}, "synth": {"template": "car_following"}}
UNKNOWN_FIELDS = {"kde_bandwidth", "tracks.current_idx"}


def config_fields(field, value):
    """`write_config` fields that set `field` to the YAML text `value`."""
    parent, _, key = field.partition(".")
    if not key:
        return {field: value}
    mapping = dict(NESTED_BASE[parent], **{key: value})
    flow = "{" + ", ".join(f"{k}: {v}" for k, v in mapping.items()) + "}"
    if parent == "tracks":
        return {"tracks": flow, "map": "map.yaml", "synth": None}
    return {"synth": flow}


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

    def test_each_distinct_log_rendered_once(self, tmp_path, monkeypatch):
        cfg, out = write_config(tmp_path, roster=REPEATING_ROSTER)
        batches = []
        rendered = []
        run_enumerated = simulator.run_enumerated
        write_log = scene_io.write_log

        def recording(*args, finish, **kwargs):
            # the CLI's children drop their logs; the library's keep them
            batches.append(run_enumerated(*args, **kwargs))
            return run_enumerated(*args, finish=finish, **kwargs)

        def counting(log, path):
            rendered.append(path)
            write_log(log, path)

        monkeypatch.setattr(simulator, "run_enumerated", recording)
        monkeypatch.setattr(scene_io, "write_log", counting)
        assert main(["enumerate", "--config", str(cfg), "--jobs", "1"]) == EXIT_OK
        (batch,) = batches
        digests = {child.log.digest for child in batch.children}
        assert len(rendered) == len(digests) < 9 < len(batch.children)
        inodes = {}
        for child in batch.children:
            path = out / "logs" / f"child_{child.index:05d}.csv"
            write_log(child.log, tmp_path / "alone.csv")
            assert path.read_bytes() == (tmp_path / "alone.csv").read_bytes()
            inodes.setdefault(child.log.digest, set()).add(path.stat().st_ino)
        # every other file of a log is a hard link to its first one
        assert all(len(shared) == 1 for shared in inodes.values())
        assert len(set.union(*inodes.values())) == len(digests)

    def test_rerun_never_writes_through_a_file_at_its_outputs(self, tmp_path):
        # a hard-linked snapshot (`cp -al`) of a run's directory keeps its
        # bytes while another roster's run is written into that directory
        cfg, scene, out = tracks_config(tmp_path)
        scene_io.write_case(1, make_case(n_frames=60).frames, scene / "tracks.csv")
        assert main(["enumerate", "--config", str(cfg), "--jobs", "1"]) == EXIT_OK
        assert (out / "ground_truth.csv").exists()
        before = read_bytes_tree(out)
        shutil.copytree(out, tmp_path / "snapshot", copy_function=os.link)
        (tmp_path / "roster.yaml").write_text(ROSTER)
        assert main(["enumerate", "--config", str(cfg), "--jobs", "1"]) == EXIT_OK
        assert read_bytes_tree(out) != before
        assert read_bytes_tree(tmp_path / "snapshot") == before

    def test_rerun_over_linked_logs_writes_what_a_fresh_run_writes(self, tmp_path):
        # the first run's four logs are one file; each log of the second run
        # is a new file, never one written through that file's other names
        cfg, out = write_config(tmp_path, roster=SAME_MODEL_ROSTER)
        assert main(["enumerate", "--config", str(cfg), "--jobs", "1"]) == EXIT_OK
        logs = [out / "logs" / name for name in os.listdir(out / "logs")]
        assert len(logs) == 4 and len({path.stat().st_ino for path in logs}) == 1
        (tmp_path / "roster.yaml").write_text(TWO_MODEL_ROSTER)
        fresh = tmp_path / "fresh"
        for out_dir in (out, fresh):
            assert main(["enumerate", "--config", str(cfg), "--jobs", "1",
                         "--output-dir", str(out_dir)]) == EXIT_OK
        assert TestWorkers.outputs(out) == TestWorkers.outputs(fresh)
        assert len(set(read_bytes_tree(out / "logs").values())) == 4

    def test_interrupted_rerun_leaves_no_tables_of_the_earlier_run(
            self, tmp_path, monkeypatch, capsys):
        # a run cut short by a full disk leaves no metrics.csv or manifest.json,
        # the earlier run's included: a finished run is one with a manifest
        cfg, out = write_config(tmp_path)
        assert main(["enumerate", "--config", str(cfg), "--jobs", "1"]) == EXIT_OK
        calls = []
        write_log = scene_io.write_log

        def full_at_the_third(log, path):
            calls.append(path)
            if len(calls) == 3:
                raise OSError(errno.ENOSPC, "No space left on device", str(path))
            write_log(log, path)

        monkeypatch.setattr(scene_io, "write_log", full_at_the_third)
        (tmp_path / "roster.yaml").write_text(REPEATING_ROSTER)
        assert main(["enumerate", "--config", str(cfg), "--jobs", "1"]) == EXIT_IO
        assert "No space left on device" in capsys.readouterr().err
        assert sorted(os.listdir(out)) == ["logs"]
        assert 2 <= len(os.listdir(out / "logs")) < 16

    def test_refused_link_renders_the_log_at_its_path(self, tmp_path, monkeypatch):
        # a filesystem may refuse a hard link (EMLINK past ext4's 65,000
        # links, or none at all): that path is rendered, once, and becomes
        # its log's first file, and the outputs keep their bytes
        cfg, out = write_config(tmp_path, roster=REPEATING_ROSTER)
        rendered, linked = [], []
        write_log, link = scene_io.write_log, os.link

        def recording(log, path):
            rendered.append(path)
            write_log(log, path)

        def every_other_refused(src, dst):
            linked.append(dst)
            if len(linked) % 2 == 0:
                raise OSError(errno.EMLINK, "Too many links", dst)
            link(src, dst)

        monkeypatch.setattr(scene_io, "write_log", recording)
        fresh = tmp_path / "fresh"
        assert main(["enumerate", "--config", str(cfg), "--jobs", "1",
                     "--output-dir", str(fresh)]) == EXIT_OK
        n_distinct = len(rendered)
        rendered.clear()
        monkeypatch.setattr(os, "link", every_other_refused)
        assert main(["enumerate", "--config", str(cfg), "--jobs", "1"]) == EXIT_OK
        refused = linked[1::2]
        assert len(refused) >= 3
        assert len(rendered) == len(set(rendered)) == n_distinct + len(refused)
        assert set(refused) <= set(rendered)
        assert len(rendered) + len(linked[0::2]) == len(os.listdir(out / "logs"))
        assert TestWorkers.outputs(out) == TestWorkers.outputs(fresh)

    def test_seed_lanes_matched_once_per_track_and_selector(self, tmp_path,
                                                            monkeypatch):
        # the planner and the scoring read one seed lane per track and route
        # selector, where each child and each score matched it again (40
        # lane matches for these 25 children); outputs are those of matching
        # every time
        cfg, out = write_config(tmp_path, roster=ROUTE_ROSTER,
                                synth="{template: merge}")
        matched = []
        match_seed_lane = map_model.match_seed_lane

        def recording(graph, state, selector):
            matched.append((state.track_id, selector))
            return match_seed_lane(graph, state, selector)

        def every_time(memo, graph, seed, tid, selector):
            return match_seed_lane(graph, seed.current.get(tid), selector)

        monkeypatch.setattr(map_model, "match_seed_lane", recording)
        assert main(["enumerate", "--config", str(cfg), "--jobs", "1"]) == EXIT_OK
        assert len(matched) == len(set(matched))
        assert set(matched) == {(tid, selector) for tid in (1, 2)
                                for selector in ("straightest", 0)}
        for module in (simulator, metrics):
            monkeypatch.setattr(module, "seed_lane", every_time)
        each = tmp_path / "each"
        assert main(["enumerate", "--config", str(cfg), "--jobs", "1",
                     "--output-dir", str(each)]) == EXIT_OK
        assert TestWorkers.outputs(out) == TestWorkers.outputs(each)

    def test_rerun_deletes_the_outputs_it_did_not_write(self, tmp_path):
        # the first run writes 4 logs and a ground-truth table, the second 1
        # log and none into the same directory
        cfg, scene, out = tracks_config(tmp_path)
        scene_io.write_case(1, make_case(n_frames=60).frames, scene / "tracks.csv")
        assert main(["enumerate", "--config", str(cfg), "--jobs", "1"]) == EXIT_OK
        assert len(os.listdir(out / "logs")) == 4
        assert (out / "ground_truth.csv").exists()
        (tmp_path / "synth").mkdir()
        synth_cfg, fresh = write_config(tmp_path / "synth")
        for out_dir in (out, fresh):
            assert main(["simulate", "--config", str(synth_cfg), "--jobs", "1",
                         "--n-runs", "1", "--output-dir", str(out_dir)]) == EXIT_OK
        assert os.listdir(out / "logs") == ["child_00000.csv"]
        rerun, alone = read_bytes_tree(out), read_bytes_tree(fresh)
        manifests = [json.loads(tree.pop("manifest.json")) for tree in (rerun, alone)]
        for manifest in manifests:
            del manifest["config"]["output_dir"]
        assert manifests[0] == manifests[1]
        assert rerun == alone
        # an analysis written into the run's directory keeps its own table
        analysis_table = b"table,metric,aggregate,value\r\n1,distance,worst,5.0\r\n"
        (fresh / "ground_truth.csv").write_bytes(analysis_table)
        assert main(["simulate", "--config", str(synth_cfg), "--jobs", "1",
                     "--n-runs", "1", "--output-dir", str(fresh)]) == EXIT_OK
        assert (fresh / "ground_truth.csv").read_bytes() == analysis_table


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


def counted(calls, name, fn):
    """`fn`, appending `name` to `calls` on each call in this process."""
    def wrapper(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)
    return wrapper


class TestWorkers:
    """At --jobs N a child is simulated, scored and written in a pool worker
    (forked, so each one inherits the patches below), and the parent writes
    the tables and the manifest."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(simulator, "available_cpus", lambda: 2)

    @staticmethod
    def outputs(out):
        tree = read_bytes_tree(out)
        manifest = json.loads(tree.pop("manifest.json"))
        del manifest["config"]["output_dir"]
        return manifest, tree

    def test_parent_runs_no_child(self, tmp_path, monkeypatch):
        cfg, out = write_config(tmp_path, synth="{template: car_following, "
                                "params: {n_vehicles: 3, gap: 20.0, speed: 10.0}}")
        calls = []
        for owner, name in ((simulator, "run_child"), (scene_io, "write_log"),
                            (metrics.MetricEngine, "aggregate")):
            monkeypatch.setattr(owner, name, counted(calls, name, getattr(owner, name)))
        assert main(["enumerate", "--config", str(cfg), "--jobs", "2"]) == EXIT_OK
        assert calls == []
        serial = tmp_path / "serial"
        assert main(["enumerate", "--config", str(cfg), "--jobs", "1",
                     "--output-dir", str(serial)]) == EXIT_OK
        assert set(calls) == {"run_child", "write_log", "aggregate"}
        assert self.outputs(out) == self.outputs(serial)
        assert len(os.listdir(out / "logs")) == 64

    def test_dead_worker_fails_its_children(self, tmp_path, monkeypatch, capsys):
        # 256 children, 4 tasks of 64: the worker that runs child 255 exits
        # once child 63's log is written, so task 0 has most likely been
        # received; task 3's children are failed, its logs written so far deleted
        cfg, out = write_config(tmp_path, synth="{template: car_following, "
                                "params: {n_vehicles: 4, gap: 20.0, speed: 10.0}}")
        parent = os.getpid()
        run_child = simulator.run_child

        def dying(seed, assignment, *args, **kwargs):
            if os.getpid() != parent and assignment.origin[1] == 255:
                deadline = time.monotonic() + 10.0
                while (not (out / "logs" / "child_00063.csv").exists()
                       and time.monotonic() < deadline):
                    time.sleep(0.01)
                time.sleep(0.5)
                os._exit(1)
            return run_child(seed, assignment, *args, **kwargs)

        monkeypatch.setattr(simulator, "run_child", dying)
        rc = main(["enumerate", "--config", str(cfg), "--jobs", "2"])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        manifest, tree = self.outputs(out)
        assert manifest["n_children"] == 256
        ok = [c["index"] for c in manifest["children"] if c["status"] == "ok"]
        failed = [c for c in manifest["children"] if c["status"] == "failed"]
        assert manifest["n_failed"] == len(failed) >= 64
        assert {c["index"] for c in failed} >= set(range(192, 256))
        for child in failed:
            assert child["error_class"] == "BrokenProcessPool"
            assert (child["track_id"], child["step"], child["model_kind"]) == (
                None, None, None)
        tasks = {i // 64 for i in ok}  # received whole, and never task 3
        assert set(ok) == {i for t in tasks for i in range(64 * t, 64 * t + 64)}
        assert 3 not in tasks
        assert rc == (EXIT_OK if ok else EXIT_SIMULATION)
        warning = f"{len(failed)} child(ren) failed" if ok else "all children failed"
        assert warning in err
        monkeypatch.setattr(simulator, "run_child", run_child)
        serial = tmp_path / "serial"
        assert main(["enumerate", "--config", str(cfg), "--jobs", "1",
                     "--output-dir", str(serial)]) == EXIT_OK
        _, serial_tree = self.outputs(serial)
        logs = {os.path.join("logs", f"child_{i:05d}.csv") for i in ok}
        assert set(tree) == logs | {"metrics.csv"}
        assert all(tree[name] == serial_tree[name] for name in logs)
        _, rows = read_metric_table(out / "metrics.csv")
        _, serial_rows = read_metric_table(serial / "metrics.csv")
        assert rows == [serial_rows[i] for i in ok]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_write_error_is_an_io_error(self, tmp_path, monkeypatch, capsys, jobs):
        cfg, _ = write_config(tmp_path)

        def full(log, path):
            raise OSError(errno.ENOSPC, "No space left on device", str(path))

        monkeypatch.setattr(scene_io, "write_log", full)
        assert main(["enumerate", "--config", str(cfg), "--jobs", jobs]) == EXIT_IO
        err = capsys.readouterr().err
        assert "io error: [Errno 28] No space left on device" in err
        assert "Traceback" not in err


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

    @pytest.mark.parametrize("fields, argv, named", [
        ({"horizon_steps": str(MAX_STEPS + 1)}, [], "horizon_steps"),
        ({"history_len": str(MAX_STEPS + 1)}, [], "history_len"),
        ({"enumeration_cap": "9"}, [], "n_runs"),
        ({"enumeration_cap": "12"}, ["--n-runs", "13"], "n_runs"),
        ({"enumeration_cap": str(MAX_ENUMERATION_CAP + 1)}, [], "enumeration_cap"),
        ({"enumeration_cap": str(10 ** 30)}, [], "enumeration_cap"),
    ], ids=["horizon_steps", "history_len", "n_runs", "n_runs-override",
            "enumeration_cap", "enumeration_cap-huge"])
    def test_integer_field_above_its_bound_rejected_at_load(self, tmp_path, capsys,
                                                            fields, argv, named):
        cfg, out = write_config(tmp_path, **fields)
        assert main(["simulate", "--config", str(cfg), "--jobs", "1"]
                    + argv) == EXIT_VALIDATION
        assert f"{named} must be" in capsys.readouterr().err
        assert not out.exists()

    def test_n_runs_equal_to_the_cap_accepted(self, tmp_path):
        cfg, out = write_config(tmp_path, enumeration_cap="10")
        assert main(["simulate", "--config", str(cfg), "--jobs", "1"]) == EXIT_OK

    def test_enumeration_cap_at_its_bound_accepted(self, tmp_path):
        cfg, _ = write_config(tmp_path, enumeration_cap=str(MAX_ENUMERATION_CAP))
        assert load_run_config(cfg).enumeration_cap == MAX_ENUMERATION_CAP

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
        ("tracks.current_index", '"3"'),
        ("tracks.case_id", "1.5"),
        ("tracks.path", "7"),
        ("tracks.current_idx", "3"),
        ("synth.params", "[1, 2]"),
        ("synth.template", "[a]"),
    ])
    @pytest.mark.parametrize("command", ["simulate", "enumerate"])
    def test_mistyped_field_rejected_at_load(self, tmp_path, capsys, command,
                                             field, value):
        cfg, out = write_config(tmp_path, **config_fields(field, value))
        assert main([command, "--config", str(cfg), "--jobs", "1"]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        if field in UNKNOWN_FIELDS:
            assert f"unknown field(s) [{field!r}]" in err
        else:
            assert f"field {field!r} must be" in err
        assert not out.exists()

    def test_integer_values_of_float_fields_accepted(self, tmp_path):
        cfg, _ = write_config(tmp_path, route_horizon="150", pttc_decel="3",
                              rng_seed="-4")
        loaded = load_run_config(cfg)
        assert (loaded.route_horizon, loaded.pttc_decel,
                loaded.rng_seed) == (150, 3, -4)

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

    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--jobs", "0"], "--jobs must be >= 1, got 0"),
        (["enumerate", "--jobs", "-1"], "--jobs must be >= 1, got -1"),
        (["simulate", "--jobs", "1", "--n-runs", "0"],
         "n_runs must be in 1..enumeration_cap (10), got 0"),
        (["enumerate", "--jobs", "1"], "16 assignments exceed the cap of 10; use sampled "
                                       "runs (`scenex simulate`, or `run_batch`) instead"),
    ], ids=["jobs-0", "jobs-negative", "n-runs-0", "enumeration-cap"])
    def test_usage_error_keeps_the_earlier_outputs(self, tmp_path, capsys, argv, message):
        cfg, out = write_config(tmp_path, enumeration_cap="10")
        assert main(["simulate", "--config", str(cfg), "--jobs", "1"]) == EXIT_OK
        before = read_bytes_tree(out)
        capsys.readouterr()
        assert main([*argv, "--config", str(cfg)]) == EXIT_VALIDATION
        assert message in capsys.readouterr().err
        assert read_bytes_tree(out) == before

    def test_jobs_default_is_the_usable_cpus(self):
        args = build_parser().parse_args(["enumerate", "--config", "run.yaml"])
        assert args.jobs == len(os.sched_getaffinity(0))

    def test_n_runs_is_an_option_of_simulate_only(self, capsys):
        parser = build_parser()
        argv = ["--config", "run.yaml", "--n-runs", "3", "--rng-seed", "5"]
        args = parser.parse_args(["simulate", *argv])
        assert (args.n_runs, args.rng_seed) == (3, 5)
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(["enumerate", *argv])
        assert exc.value.code != EXIT_OK
        assert "--n-runs" in capsys.readouterr().err
        assert parser.parse_args(["enumerate", *argv[:2], *argv[4:]]).rng_seed == 5

    @pytest.mark.parametrize("argv", [
        ["simulate", "--jobs", "x"], ["enumerate", "--n-runs", "3"]],
        ids=["jobs-not-an-int", "enumerate-n-runs"])
    def test_usage_error_is_a_validation_error(self, tmp_path, capsys, argv):
        cfg, out = write_config(tmp_path)
        assert main([*argv, "--config", str(cfg)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("usage: ") and "Traceback" not in err
        assert not out.exists()

    def test_help_exits_0(self, capsys):
        assert main(["simulate", "--help"]) == EXIT_OK
        assert capsys.readouterr().out.startswith("usage: ")

    @pytest.mark.parametrize("command", ["simulate", "enumerate"])
    def test_history_len_under_synth_params_rejected(self, tmp_path, capsys, command):
        # the seed window's length is the run config's own history_len
        cfg, out = write_config(tmp_path, synth="{template: car_following, "
                                "params: {n_vehicles: 2, history_len: 3}}")
        assert main([command, "--config", str(cfg), "--jobs", "1"]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "'synth.params.history_len'" in err
        assert "top-level 'history_len'" in err
        assert not out.exists()

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

    @pytest.mark.parametrize("key, value", [
        ("successors", 5),
        ("width", [1]),
        ("width", math.nan),
        ("width", "3.5"),
        ("points", [[0.0, 0.0], [500.0, 0.0], [500.0, 1e-20]]),
    ], ids=["successors-5", "width-list", "width-nan", "width-string", "points-step-0"])
    def test_bad_map_lane_rejected_at_load(self, tmp_path, capsys, key, value):
        cfg, scene, out = tracks_config(tmp_path)
        doc = yaml.safe_load((scene / "map.yaml").read_text())
        doc["lanes"][0][key] = value
        (scene / "map.yaml").write_text(yaml.safe_dump(doc))
        rc = main(["simulate", "--config", str(cfg), "--jobs", "1"])
        assert rc == EXIT_VALIDATION
        assert "lane 'main'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("document", ["map", "roster", "run config"])
    def test_document_that_is_not_utf8_named_at_load(self, tmp_path, capsys, document):
        # a Latin-1 comment: the text-mode read raised UnicodeDecodeError, and
        # the message named neither the file nor YAML
        cfg, scene, out = tracks_config(tmp_path)
        path = {"map": scene / "map.yaml", "roster": tmp_path / "roster.yaml",
                "run config": cfg}[document]
        path.write_bytes("# café\n".encode("latin-1") + path.read_bytes())
        rc = main(["simulate", "--config", str(cfg), "--jobs", "1"])
        err = capsys.readouterr().err
        assert rc == EXIT_VALIDATION
        assert f"{path}: not valid YAML: " in err and "Traceback" not in err
        assert not out.exists()

    # each of these loaded as if the key were absent or well-typed, until every
    # document went through the one field checker
    @pytest.mark.parametrize("roster_tail, key", [
        ("  - {kind: standard, wieght: 2.0}\n", "wieght"),
        ("  - {kind: emergency_brake, brake_decl: 9.0}\n", "brake_decl"),
        ("  - {kind: standard, route_selecter: 1}\n", "route_selecter"),
        ("  - {kind: standard, weight: true}\n", "weight"),
        ("  - {kind: standard, params: {T: true}}\n", "params.T"),
        ("  - {kind: standard, params: {T: '2.1'}}\n", "params.T"),
        ("  - {kind: standard}\nmodel: [{kind: risky}]\n", "model"),
    ], ids=["wieght", "brake_decl", "route_selecter", "weight-true", "T-true",
            "T-string", "top-level-key"])
    def test_misspelled_or_mistyped_roster_key(self, tmp_path, capsys, roster_tail,
                                               key):
        roster = ("format: scenex-roster\nversion: 1\nmodels:\n"
                  "  - {kind: constant_velocity}\n" + roster_tail)
        cfg, out = write_config(tmp_path, roster=roster)
        assert main(["simulate", "--config", str(cfg), "--jobs", "1"]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "roster.yaml: " in err and repr(key) in err
        assert not out.exists()

    @pytest.mark.parametrize("param, key", [
        ("n_vehicles: 2.5", "n_vehicles"),
        ("n_vehicles: true", "n_vehicles"),
        ("n_vehicles: null", "n_vehicles"),
        ("speeds: '12'", "speeds"),
        ("n_vehicles: 2, gap: '20'", "gap"),
        ("n_vehicles: 2, spead: 3.0", "spead"),
    ])
    def test_mistyped_synth_param(self, tmp_path, capsys, param, key):
        cfg, out = write_config(
            tmp_path, synth=f"{{template: car_following, params: {{{param}}}}}")
        assert main(["simulate", "--config", str(cfg), "--jobs", "1"]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "template 'car_following': " in err and repr(key) in err
        assert not out.exists()

    def test_misspelled_map_key(self, tmp_path, capsys):
        cfg, scene, out = tracks_config(tmp_path)
        doc = yaml.safe_load((scene / "map.yaml").read_text())
        doc["lanes"][0]["sucessors"] = doc["lanes"][0].pop("successors")
        (scene / "map.yaml").write_text(yaml.safe_dump(doc))
        assert main(["simulate", "--config", str(cfg), "--jobs", "1"]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "map.yaml: lane 'main': unknown field(s) ['sucessors']" in err
        assert not out.exists()

    @pytest.mark.parametrize("rows", [
        "",
        "1,1,1,100,pedestrian,0.0,0.0,1.0,0.0,0.0,0.5,0.5\n",
    ], ids=["header-only", "pedestrians-only"])
    def test_track_file_without_vehicles(self, tmp_path, capsys, rows):
        cfg, scene, out = tracks_config(tmp_path)
        (scene / "tracks.csv").write_text(",".join(TRACK_COLUMNS) + "\n" + rows)
        assert main(["simulate", "--config", str(cfg), "--jobs", "1"]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "tracks.csv: no vehicle rows" in err and "Traceback" not in err
        assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "enumerate"])
def test_recorded_future_that_skips_a_frame_rejected(tmp_path, capsys, command):
    # no frame at 1300 ms: replay would show the 1400 ms state at 1300 ms
    cfg, scene, out = tracks_config(tmp_path)
    case = make_case(n_frames=40, case_id=6)
    scene_io.write_case(6, case.frames[:12] + case.frames[13:], scene / "tracks.csv")
    assert main([command, "--config", str(cfg), "--jobs", "1"]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "case 6: recorded future frame at 1400 ms is not 100 ms after 1200 ms" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "enumerate"])
@pytest.mark.parametrize("column, value", [("length", "nan"), ("width", "inf")])
def test_non_finite_vehicle_size_rejected(tmp_path, capsys, command, column, value):
    # a nan length failed most children and wrote nan into metrics.csv, and
    # an inf width scored every WTTC 0.0, each with exit 0
    cfg, scene, out = tracks_config(tmp_path)
    tracks = scene / "tracks.csv"
    lines = tracks.read_text().splitlines()
    fields = lines[2].split(",")
    fields[TRACK_COLUMNS.index(column)] = value
    lines[2] = ",".join(fields)
    tracks.write_text("\n".join(lines) + "\n")
    assert main([command, "--config", str(cfg), "--jobs", "1"]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "tracks.csv:3: track 2: length and width must be finite and positive" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "enumerate"])
def test_frame_of_pedestrians_alone_replayed_across(tmp_path, capsys, command):
    # frame 15 (1500 ms) holds one pedestrian row; were it dropped, the
    # recorded future would skip from 1400 to 1600 ms
    cfg, scene, out = tracks_config(tmp_path)
    frames = list(make_case(n_frames=45).frames)
    frames[14] = scene_io.SceneFrame(1500, (PEDESTRIAN,))
    scene_io.write_case(1, frames, scene / "tracks.csv")
    assert main([command, "--config", str(cfg), "--jobs", "1"]) == EXIT_OK
    assert "Traceback" not in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["n_failed"] == 0 and manifest["ground_truth"]


def tracks_config(tmp_path):
    """A run config on a `synth-scene` car_following map and track file:
    returns (config path, scene directory, output directory)."""
    scene = tmp_path / "scene"
    assert main(["synth-scene", "--template", "car_following",
                 "--out", str(scene)]) == EXIT_OK
    (tmp_path / "roster.yaml").write_text(TWO_MODEL_ROSTER)
    cfg = tmp_path / "run.yaml"
    cfg.write_text("\n".join([
        "format: scenex-run",
        "version: 1",
        f"roster: {tmp_path / 'roster.yaml'}",
        f"output_dir: {tmp_path / 'out'}",
        f"map: {scene / 'map.yaml'}",
        f"tracks: {{path: {scene / 'tracks.csv'}}}",
        "n_runs: 2",
    ]) + "\n")
    return cfg, scene, tmp_path / "out"


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

    def test_rerun_deletes_the_tables_it_did_not_write(self, tmp_path, metrics_table):
        _, rows = read_metric_table(metrics_table)
        truth = tmp_path / "truth.csv"
        write_metric_table(truth, [(-1, 0, rows[0][2])])
        out, fresh = tmp_path / "analysis", tmp_path / "fresh"
        assert main(["analyze", str(metrics_table), "--out", str(out), "--sizes", "2,5",
                     "--resamples", "2", "--ground-truth", str(truth)]) == EXIT_OK
        assert {"convergence.csv", "ground_truth.csv"} <= set(os.listdir(out))
        for out_dir in (out, fresh):
            assert main(["analyze", str(metrics_table), "--out",
                         str(out_dir)]) == EXIT_OK
        assert read_bytes_tree(out) == read_bytes_tree(fresh)
        # a run's ground-truth table in the analysis directory is the run's
        shutil.copyfile(truth, fresh / "ground_truth.csv")
        assert main(["analyze", str(metrics_table), "--out", str(fresh)]) == EXIT_OK
        assert (fresh / "ground_truth.csv").read_bytes() == truth.read_bytes()

    def test_rerun_never_writes_through_a_file_at_its_outputs(self, tmp_path,
                                                               metrics_table):
        # a hard-linked snapshot (`cp -al`) of an analysis keeps its bytes
        # while an analysis that changes each of its five tables is written
        # into that directory
        _, rows = read_metric_table(metrics_table)
        truth, half = tmp_path / "truth.csv", tmp_path / "half.csv"
        write_metric_table(truth, [(-1, 0, rows[0][2])])
        write_metric_table(half, rows[:5])
        out, snapshot = tmp_path / "analysis", tmp_path / "snapshot"
        assert main(["analyze", str(metrics_table), "--out", str(out), "--sizes", "2,5",
                     "--resamples", "2", "--ground-truth", str(truth)]) == EXIT_OK
        before = read_bytes_tree(out)
        shutil.copytree(out, snapshot, copy_function=os.link)
        assert main(["analyze", str(half), str(metrics_table), "--out", str(out),
                     "--sizes", "2", "--resamples", "2",
                     "--ground-truth", str(metrics_table)]) == EXIT_OK
        after = read_bytes_tree(out)
        assert len(after) == 5 and all(after[k] != before[k] for k in after)
        assert read_bytes_tree(snapshot) == before

    @pytest.mark.parametrize("table, code", [("nan", EXIT_VALIDATION),
                                             ("missing", EXIT_IO)])
    def test_table_that_cannot_be_read_makes_no_out(self, tmp_path, capsys,
                                                    metrics_table, table, code):
        if table == "nan":
            lines = metrics_table.read_text().splitlines()
            cells = lines[1].split(",")
            cells[2] = "nan"
            lines[1] = ",".join(cells)
            metrics_table.write_text("\n".join(lines) + "\n")
        else:
            metrics_table = tmp_path / "missing.csv"
        out = tmp_path / "analysis"
        assert main(["analyze", str(metrics_table), "--out", str(out)]) == code
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name, role", [
        ("ground_truth.csv", "ground-truth"), ("density.csv", "table"),
        ("logs/../thresholds.csv", "table")])
    def test_never_overwrites_its_input(self, capsys, metrics_table, name, role):
        out = metrics_table.parent
        given = out / name
        shutil.copyfile(metrics_table, given)
        before = read_bytes_tree(out)
        if role == "table":
            argv = [str(given)]
        else:
            argv = [str(metrics_table), "--ground-truth", str(given)]
        assert main(["analyze", *argv, "--out", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"{os.path.basename(name)} there, which is the input {given}" in err
        assert "Traceback" not in err
        assert read_bytes_tree(out) == before

    def test_more_ground_truth_tables_than_tables_rejected(self, tmp_path, capsys,
                                                           metrics_table):
        out = tmp_path / "analysis"
        assert main(["analyze", str(metrics_table), "--out", str(out),
                     "--ground-truth", str(metrics_table),
                     str(tmp_path / "does-not-exist.csv")]) == EXIT_VALIDATION
        assert "got 2 tables for 1 TABLES" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("option, value", [
        ("--resamples", "0"), ("--resamples", "-2"),
        ("--sizes", "0,5"), ("--sizes", "2,-5"),
        ("--bandwidth", "0"), ("--bandwidth", "-0.1"),
        ("--bandwidth", "nan"), ("--bandwidth", "inf"),
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

    # each case replaces cells[start:stop] of the table's third data row
    @pytest.mark.parametrize("start, stop, new, message", [
        (2, 3, ["nan"], "non-finite value 'nan'"),
        (3, 4, ["-inf"], "non-finite value '-inf'"),
        (2, 3, ["1e999"], "non-finite value '1e999'"),
        (2, 3, ["abc"], "could not convert"),
        (4, 5, ["1.5"], "invalid literal"),
        (0, 1, [""], "invalid literal"),
        (3, None, [], "got 3"),
        (99, 99, ["7"], "fields, got"),
        (2, 3, [""], "disagree"),
        (4, 5, ["0"], "disagree"),
    ], ids=["nan", "-inf", "overflow", "text", "float-count", "empty-index",
            "short", "long", "empty-worst", "no-frames"])
    def test_bad_table_cell_rejected(self, tmp_path, capsys, metrics_table, start,
                                     stop, new, message):
        lines = metrics_table.read_text().splitlines()
        cells = lines[3].split(",")
        cells[start:stop] = new
        lines[3] = ",".join(cells)
        metrics_table.write_text("\n".join(lines) + "\n")
        out = tmp_path / "analysis"
        assert main(["analyze", str(metrics_table), "--out", str(out),
                     "--sizes", "2"]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"{metrics_table}:4: " in err and message in err
        assert "Traceback" not in err

    def test_repeated_rows_match_the_oracle_bytes(self, tmp_path, metrics_table,
                                                  monkeypatch):
        names, rows = read_metric_table(metrics_table)
        table = tmp_path / "repeated.csv"
        write_metric_table(table, rows * 4 + rows[:3], metrics=names)
        argv = ["analyze", str(table), "--sizes", "1,5,43", "--resamples", "6",
                "--bandwidth", "0.05"]
        assert main(argv + ["--out", str(tmp_path / "exact")]) == EXIT_OK
        monkeypatch.setattr(analysis, "kde", oracles.kde)
        monkeypatch.setattr(analysis, "convergence_study", oracles.convergence_study)
        assert main(argv + ["--out", str(tmp_path / "oracle")]) == EXIT_OK
        exact = read_bytes_tree(tmp_path / "exact")
        assert set(exact) == {"density.csv", "cumulative.csv", "thresholds.csv",
                              "convergence.csv"}
        assert exact == read_bytes_tree(tmp_path / "oracle")


class TestSynthSceneCommand:
    def test_writes_loadable_pair(self, tmp_path):
        out = tmp_path / "scene"
        assert main(["synth-scene", "--template", "crossing", "--out", str(out),
                     "--param", "distance_a=25.0"]) == EXIT_OK
        graph = load_map(out / "map.yaml")
        assert set(graph.lane_ids) == {"east", "north"}
        dataset = load_tracks(out / "tracks.csv")
        assert len(dataset.cases) == 1

    def test_rerun_never_writes_through_a_file_at_its_outputs(self, tmp_path):
        out, snapshot = tmp_path / "scene", tmp_path / "snapshot"
        assert main(["synth-scene", "--template", "crossing", "--out", str(out)]) == EXIT_OK
        before = read_bytes_tree(out)
        shutil.copytree(out, snapshot, copy_function=os.link)
        assert main(["synth-scene", "--template", "merge", "--out", str(out)]) == EXIT_OK
        assert read_bytes_tree(out) != before
        assert read_bytes_tree(snapshot) == before

    def test_bad_param_rejected(self, tmp_path):
        out = tmp_path / "scene"
        assert main(["synth-scene", "--template", "merge", "--out", str(out),
                     "--param", "gap=-1"]) == EXIT_VALIDATION

    @pytest.mark.parametrize("param, value", [
        ("history_len", MAX_STEPS + 1),
        ("history_len", 100_000_000_000),
        ("n_vehicles", MAX_SYNTH_VEHICLES + 1),
        ("n_vehicles", 10 ** 30),
    ])
    def test_size_above_its_bound_rejected(self, tmp_path, capsys, monkeypatch,
                                           param, value):
        def no_scene(specs, history_len):
            raise AssertionError("the scene was built")

        monkeypatch.setattr(scene_io, "_history_frames", no_scene)
        out = tmp_path / "scene"
        assert main(["synth-scene", "--template", "car_following", "--out", str(out),
                     "--param", f"{param}={value}"]) == EXIT_VALIDATION
        assert f"parameter '{param}' must be" in capsys.readouterr().err
        assert not out.exists()


# -- fuzz: mutated run configs and maps end in an exit code, never a traceback --

DELETE = "<delete>"
WRONG_VALUES = (DELETE, None, "x", "", [1, 2], {"a": 1}, True, 0, -1, 2.5,
                math.nan, math.inf, -math.inf, 1e308, -1e308)
RUN_FIELDS = (
    "format", "version", "roster", "output_dir", "map", "tracks", "synth", "n_runs",
    "replan_interval", "horizon_steps", "rng_seed", "history_len", "pttc_decel",
    "wttc_accel", "route_horizon", "enumeration_cap", "tracks.path", "tracks.case_id",
    "tracks.current_index", "synth.template", "synth.params", "synth.params.gap",
    "synth.params.n_vehicles",
)
MAP_FIELDS = (
    "format", "version", "lanes", "lanes.0", "lanes.0.id", "lanes.0.width",
    "lanes.0.points", "lanes.0.points.1", "lanes.0.points.1.0", "lanes.0.successors",
)


def item(node, key):
    """`node[key]` of a mapping, or of a list for a digit key; else None."""
    if isinstance(node, dict):
        return node.get(key)
    if isinstance(node, list) and key.isdigit() and int(key) < len(node):
        return node[int(key)]
    return None


def edited(doc, edits):
    """A copy of a YAML document with each (dotted path, value) edit applied;
    DELETE removes the item, and an edit whose parent is gone is skipped."""
    doc = json.loads(json.dumps(doc))
    for path, value in edits:
        *parents, last = path.split(".")
        node = doc
        for key in parents:
            node = item(node, key)
        if isinstance(node, list) and item(node, last) is not None:
            last = int(last)
        elif not isinstance(node, dict):
            continue
        if value == DELETE:
            node.pop(last, None) if isinstance(node, dict) else node.pop(last)
        else:
            node[last] = value
    return doc


def yaml_text(doc, keep=1.0):
    """The YAML text of a document, truncated to the share `keep`."""
    text = yaml.safe_dump(doc, sort_keys=False)
    return text[:int(len(text) * keep)]


def csv_text(text, edits, rows=None):
    """A track CSV with each edit applied to every line ("drop" or "dup" a
    column) or to one cell ("cell", line, column, text), and only its first
    `rows` data lines kept unless `rows` is None."""
    lines = [line.split(",") for line in text.splitlines()]
    if rows is not None:
        lines = lines[:1 + rows]
    for op, *args in edits:
        if op == "cell":
            line, column, cell = args
            fields = lines[line % len(lines)]
            if fields:
                fields[column % len(fields)] = cell
            continue
        for fields in lines:
            if args[0] >= len(fields):
                continue
            if op == "dup":
                fields.insert(args[0], fields[args[0]])
            else:
                del fields[args[0]]
    return "".join(",".join(fields) + "\n" for fields in lines)


def simulate_quietly():
    """`scenex simulate` on run.yaml: (exit code, what it wrote to stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(["simulate", "--config", "run.yaml", "--jobs", "1"])
    return rc, err.getvalue()


EXIT_CODES = (EXIT_OK, EXIT_VALIDATION, EXIT_IO, EXIT_SIMULATION)
FUZZ_ROSTER = {"format": "scenex-roster", "version": 1, "models": [
    {"kind": "standard", "params": {"T": 2.0}, "route_selector": "straightest"},
    {"kind": "emergency_brake", "brake_decel": 5.0, "weight": 2.0},
]}
# the roster's fields, and misspellings of them
ROSTER_FIELDS = (
    "format", "version", "models", "models.0", "models.0.kind", "models.0.params",
    "models.0.params.T", "models.0.params.v0", "models.0.route_selector",
    "models.0.weight", "models.1.kind", "models.1.brake_decel", "models.1.weight",
    "modles", "models.0.wieght", "models.0.parms", "models.0.params.tau",
    "models.0.route_selecter", "models.1.brake_decl",
)
ROSTER_VALUES = WRONG_VALUES + ("2.1", "standard", "replay", "straightest", 1, 2.0)
CELL_TEXTS = ("", "abc", "1.5", "-", "nan", "1e999", "car", "pedestrian", "10**9")


class TestFuzz:
    @pytest.fixture(scope="class")
    def scene(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("fuzz")
        cfg, scene, _ = tracks_config(tmp)
        return (yaml.safe_load(cfg.read_text()),
                yaml.safe_load((scene / "map.yaml").read_text()),
                (scene / "tracks.csv").read_text())

    @settings(max_examples=60, deadline=None)
    # examples that ended in a traceback before
    @example(source="tracks", run_edits=[("history_len", 0)], map_edits=[],
             cut=None, keep=1.0)
    @example(source="synth", run_edits=[("synth.params.n_vehicles", math.inf)],
             map_edits=[], cut=None, keep=1.0)
    @example(source="synth", run_edits=[("synth.params.n_vehicles", 1e308)],
             map_edits=[], cut=None, keep=1.0)
    @example(source="synth", run_edits=[("synth.params.gap", None)], map_edits=[],
             cut=None, keep=1.0)
    @example(source="synth", run_edits=[("pttc_decel", 10 ** 400)], map_edits=[],
             cut=None, keep=1.0)
    @example(source="tracks", run_edits=[], map_edits=[("lanes.0.width", 10 ** 400)],
             cut=None, keep=1.0)
    @example(source="tracks", run_edits=[],
             map_edits=[("lanes.0.points.1.0", 10 ** 400)], cut=None, keep=1.0)
    @given(source=st.sampled_from(["tracks", "synth"]),
           run_edits=st.lists(st.tuples(st.sampled_from(RUN_FIELDS),
                                        st.sampled_from(WRONG_VALUES)), max_size=3),
           map_edits=st.lists(st.tuples(st.sampled_from(MAP_FIELDS),
                                        st.sampled_from(WRONG_VALUES)), max_size=2),
           cut=st.sampled_from([None, None, None, "run", "map"]),
           keep=st.floats(0.0, 1.0))
    def test_simulate_ends_in_an_exit_code(self, scene, source, run_edits, map_edits,
                                           cut, keep):
        run, map_doc, _ = scene
        run = dict(run, output_dir="out", map="map.yaml", horizon_steps=10)
        if source == "synth":
            del run["map"], run["tracks"]
            run["synth"] = {"template": "car_following", "params": {"n_vehicles": 2}}
        cwd = os.getcwd()
        with tempfile.TemporaryDirectory() as work:
            os.chdir(work)
            try:
                with open("run.yaml", "w") as fh:
                    fh.write(yaml_text(edited(run, run_edits),
                                       keep if cut == "run" else 1.0))
                with open("map.yaml", "w") as fh:
                    fh.write(yaml_text(edited(map_doc, map_edits),
                                       keep if cut == "map" else 1.0))
                rc, err = simulate_quietly()
            finally:
                os.chdir(cwd)
        assert rc in EXIT_CODES and "Traceback" not in err

    @settings(max_examples=60, deadline=None)
    # the misspelled and mistyped roster keys that loaded before as defaults
    @example(roster_edits=[("models.0.wieght", 2.0)], csv_edits=[], rows=None)
    @example(roster_edits=[("models.1.brake_decl", 9.0)], csv_edits=[], rows=None)
    @example(roster_edits=[("models.0.route_selecter", 1)], csv_edits=[], rows=None)
    @example(roster_edits=[("modles", [])], csv_edits=[], rows=None)
    @example(roster_edits=[("models.0.weight", True)], csv_edits=[], rows=None)
    @example(roster_edits=[("models.0.params.T", True)], csv_edits=[], rows=None)
    @example(roster_edits=[("models.0.params.T", "2.1")], csv_edits=[], rows=None)
    # track files that ended in an IndexError traceback, and bad columns and cells
    @example(roster_edits=[], csv_edits=[], rows=0)
    @example(roster_edits=[], csv_edits=[("cell", 1, 4, "pedestrian")], rows=1)
    @example(roster_edits=[], csv_edits=[("drop", 9)], rows=None)
    @example(roster_edits=[], csv_edits=[("dup", 1)], rows=None)
    @example(roster_edits=[], csv_edits=[("cell", 3, 5, "abc")], rows=None)
    @given(roster_edits=st.lists(st.tuples(st.sampled_from(ROSTER_FIELDS),
                                           st.sampled_from(ROSTER_VALUES)), max_size=3),
           csv_edits=st.lists(st.one_of(
               st.tuples(st.sampled_from(["drop", "dup"]), st.integers(0, 11)),
               st.tuples(st.just("cell"), st.integers(0, 30), st.integers(0, 11),
                         st.sampled_from(CELL_TEXTS))), max_size=3),
           rows=st.sampled_from([None, None, None, 0, 1]))
    def test_roster_and_tracks_end_in_an_exit_code(self, scene, roster_edits,
                                                   csv_edits, rows):
        run, map_doc, tracks = scene
        run = dict(run, output_dir="out", map="map.yaml", roster="roster.yaml",
                   horizon_steps=10)
        run["tracks"] = dict(run["tracks"], path="tracks.csv")
        cwd = os.getcwd()
        with tempfile.TemporaryDirectory() as work:
            os.chdir(work)
            try:
                for name, text in (("run.yaml", yaml_text(run)),
                                   ("map.yaml", yaml_text(map_doc)),
                                   ("roster.yaml",
                                    yaml_text(edited(FUZZ_ROSTER, roster_edits))),
                                   ("tracks.csv", csv_text(tracks, csv_edits, rows))):
                    with open(name, "w") as fh:
                        fh.write(text)
                rc, err = simulate_quietly()
            finally:
                os.chdir(cwd)
        assert rc in EXIT_CODES and "Traceback" not in err


def modules_after_serial_enumerate(tmp_path, *names):
    """Whether each module of `names` is loaded in a new interpreter after
    `scenex enumerate --jobs 1` on a synth scene."""
    cfg, out = write_config(tmp_path, roster=TWO_MODEL_ROSTER)
    code = ("import sys\n"
            "from scenex import cli\n"
            "rc = cli.main(['enumerate', '--config', sys.argv[1], '--jobs', '1'])\n"
            "print(rc, *(name in sys.modules for name in sys.argv[2:]))\n")
    src = os.path.dirname(os.path.dirname(scenex.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code, str(cfg), *names], env=env,
                          capture_output=True, text=True, check=True)
    rc, *loaded = proc.stdout.split()
    assert rc == "0"
    assert len(os.listdir(out / "logs")) == 4
    return loaded


def test_simulation_commands_do_not_load_numpy(tmp_path):
    assert modules_after_serial_enumerate(tmp_path, "numpy") == ["False"]


def test_serial_commands_do_not_load_the_process_pool(tmp_path):
    # the pool's module pulls in multiprocessing; only a pool needs it
    assert modules_after_serial_enumerate(
        tmp_path, "multiprocessing", "concurrent.futures.process") == ["False", "False"]


def test_pool_initargs_keep_one_store_through_a_pickle(tmp_path, monkeypatch):
    # under spawn and forkserver a worker gets the initargs as one pickle: the
    # engine of its `finish` and its planner must still hold one store
    from concurrent.futures import process

    from tests.test_simulator import StubPool

    started = []

    class RecordingPool(StubPool):
        def __init__(self, max_workers, initializer, initargs):
            started.append(initargs)
            super().__init__(max_workers, initializer, initargs)

    monkeypatch.setattr(process, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(simulator, "available_cpus", lambda: 2)
    cfg, _ = write_config(tmp_path)
    assert main(["enumerate", "--config", str(cfg), "--jobs", "2"]) == EXIT_OK
    [initargs] = started
    for args in (initargs, pickle.loads(pickle.dumps(initargs))):
        _, _, finish, plan_memo = args
        assert finish.engine.memo is plan_memo


def test_spawned_workers_write_what_one_process_writes(tmp_path):
    # `spawn` is the start method on macOS and Windows, and `forkserver`, which
    # also pickles the initargs, Linux's from Python 3.14; 256 children make
    # four pool tasks for the two workers
    if simulator.available_cpus() < 2:
        pytest.skip("needs 2 usable CPUs")
    cfg, _ = write_config(tmp_path, synth="{template: car_following, "
                          "params: {n_vehicles: 4, gap: 20.0, speed: 10.0}}")
    spawned, serial = tmp_path / "spawned", tmp_path / "serial"
    code = ("import multiprocessing, sys\n"
            "from scenex import cli\n"
            "multiprocessing.set_start_method('spawn')\n"
            "sys.exit(cli.main(['enumerate', '--config', sys.argv[1], '--jobs', '2',\n"
            "                   '--output-dir', sys.argv[2]]))\n")
    src = os.path.dirname(os.path.dirname(scenex.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", code, str(cfg), str(spawned)], env=env,
                   check=True, timeout=120)
    assert main(["enumerate", "--config", str(cfg), "--jobs", "1",
                 "--output-dir", str(serial)]) == EXIT_OK
    assert len(os.listdir(spawned / "logs")) == 256
    assert TestWorkers.outputs(spawned) == TestWorkers.outputs(serial)
