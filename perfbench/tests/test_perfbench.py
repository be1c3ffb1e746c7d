"""Tests of the benchmark itself: result schema, output checks, generator."""
import dataclasses
import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import bench, junction  # noqa: E402
from perfbench.checks import OutputCheckError, check_run  # noqa: E402
from perfbench.workloads import WORKLOADS, write_inputs  # noqa: E402

# smallest inputs of the same shape: 36 enumerated children, 3 sampled runs
TINY = {
    name: dataclasses.replace(w, size=2 if w.mode == "enumerate" else 3)
    for name, w in WORKLOADS.items()
}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setattr(bench, "WORKLOADS", TINY)
    monkeypatch.setattr(bench, "WORK_ROOT", str(tmp_path / "work"))
    monkeypatch.setattr(bench, "SAMPLE_SHARE", 0.0)


def _benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _result(capsys, argv):
    assert bench.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    return result


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_result_schema(tiny, capsys, workload, trace):
    result = _result(capsys, ["--workload", workload, "--seed", "3",
                              "--seconds", "0", "--trace", str(trace)])
    spec = _benchmark_spec()["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    for name, entry in result["metrics"].items():
        assert isinstance(entry["value"], (int, float)), name


def test_benchmark_json_names_the_workloads():
    spec = _benchmark_spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == [m for m, _, _ in bench.END_TO_END]


def test_corrupted_output_fails_the_check(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "SAMPLE_SHARE", 0.0)
    workload = TINY["enum-follow"]
    config = write_inputs(workload, 0, str(tmp_path))
    iteration = bench.cli_iteration(workload, config, str(tmp_path))
    assert iteration["failed"] == 0
    out = tmp_path / "out"
    args = (str(out), workload.n_children, 30 * workload.n_participants, False)
    check_run(*args)
    lines = (out / "metrics.csv").read_text().splitlines(keepends=True)
    (out / "metrics.csv").write_text("".join(lines[:-1]))
    with pytest.raises(OutputCheckError, match="rows"):
        check_run(*args)
    (out / "metrics.csv").write_text("".join(lines))
    os.remove(out / "logs" / "child_00007.csv")
    with pytest.raises(OutputCheckError, match="log files"):
        check_run(*args)


def test_corrupted_output_fails_the_command(tiny, capsys, monkeypatch):
    original = bench.scenex_cli

    def scenex_cli_then_corrupt(argv, work):
        result = original(argv, work)
        if argv[0] == "enumerate":
            manifest = os.path.join(work, "out", "manifest.json")
            with open(manifest) as fh:
                doc = json.load(fh)
            doc["n_failed"] = 1
            with open(manifest, "w") as fh:
                json.dump(doc, fh)
        return result

    monkeypatch.setattr(bench, "scenex_cli", scenex_cli_then_corrupt)
    rc = bench.main(["--workload", "enum-follow", "--seed", "0", "--seconds", "0"])
    captured = capsys.readouterr()
    assert rc != 0
    assert "n_failed" in captured.err
    assert '"correct"' not in captured.out


def test_junction_generator_is_deterministic(tmp_path):
    first = junction.generate(11)
    assert junction.generate(11) == first
    assert junction.generate(12) != first
    map_path, tracks_path = junction.write_inputs(11, str(tmp_path))
    with open(map_path) as fh, open(tracks_path) as th:
        assert (fh.read(), th.read()) == first


def test_junction_map_shape(tmp_path):
    from scenex.map_model import load_map

    map_path, _ = junction.write_inputs(4, str(tmp_path))
    graph = load_map(map_path)
    assert len(graph) == 20
    assert sum(len(graph.lane(i).polyline.xs) for i in graph.lane_ids) == 480
    assert sum(len(graph.lane(i).successors) > 1 for i in graph.lane_ids) == 4
