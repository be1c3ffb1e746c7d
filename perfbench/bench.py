"""Benchmark runner: end-to-end runs of the CLI, and the traced in-process run.

End-to-end metrics come from `scenex enumerate`/`simulate` and `scenex
analyze` run as subprocesses, one at a time, with no wrapper installed.
`--trace 1` instead runs the pipeline once as subprocesses (the reference
output) and three times through `scenex.cli.main` in-process at --jobs 1
(untraced, traced, untraced), checks that all four wrote the same bytes, and
reports per-layer metrics; its length is set by the workload's size, not by
`--seconds`.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback

import numpy as np
import scenex
from scenex import cli

from . import checks
from .checks import OutputCheckError
from .tracer import PER_LAYER, Tracer
from .workloads import HORIZON_STEPS, WORKLOADS, analyze_argv, write_inputs

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench")

END_TO_END = (
    ("children_per_s", "children/s", "higher"),
    ("setup_s", "s", "lower"),
    ("analyze_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("completed_fraction", "ratio", "higher"),
)
# after each command, `analyze` and a set-up probe repeat in turn for this
# share of the command's wall time, and after a run's last command until the
# run's time is up: a shared host's speed swings by a third within seconds,
# so these sub-second timings need samples spread over the whole run.
SAMPLE_SHARE = 0.5
COMMAND_TIMEOUT_S = 150
# a fresh process that imports scenex and builds the scene, roster and
# engine the way `scenex enumerate`/`simulate` does before its first child
SETUP_PROBE = """\
import sys
from scenex import cli, metrics
cfg = cli.load_run_config(sys.argv[1])
graph, _, _ = cli._build_scene(cfg)
cli.load_roster(cfg.roster)
metrics.MetricEngine(graph, pttc_decel=cfg.pttc_decel, wttc_accel=cfg.wttc_accel,
                     route_horizon=cfg.route_horizon)
"""


def run_command(argv, log_path):
    """Run to completion; return (exit code, wall s, peak RSS MB of its tree).

    The peak comes from wait4, whose maximum resident set covers the process
    and every descendant it waited for, such as pool workers.
    """
    with open(log_path, "ab") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT,
                                env=dict(os.environ, PYTHONPATH=SRC))
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss * 1024 / 1e6


def _tail(path, lines=20):
    with open(path, errors="replace") as fh:
        return "".join(fh.readlines()[-lines:])


def scenex_cli(argv, work):
    log = os.path.join(work, "commands.log")
    rc, wall, rss = run_command([sys.executable, "-m", "scenex.cli", *argv], log)
    if rc != 0:
        raise OutputCheckError(f"scenex {argv[0]} exited with {rc}:\n{_tail(log)}")
    return wall, rss


def setup_probe(config, work):
    log = os.path.join(work, "setup.log")
    rc, wall, _ = run_command([sys.executable, "-c", SETUP_PROBE, config], log)
    if rc != 0:
        raise OutputCheckError(f"set-up probe failed:\n{_tail(log)}")
    return wall


def cli_iteration(workload, config, work, deadline=0.0):
    """A set-up probe, one `enumerate`/`simulate`, then `analyze` on its table
    and more set-up probes in turn, with every output check.

    The samples after the command take SAMPLE_SHARE of its wall time, or run
    until `deadline` (a perf_counter time) when the next iteration's command,
    as long as this one's, would end past it; this iteration is then the
    run's last.
    """
    start = time.perf_counter()
    out = os.path.join(work, "out")
    analysis_dir = os.path.join(work, "analysis")
    for path in (out, analysis_dir):
        shutil.rmtree(path, ignore_errors=True)
    setup_s = [setup_probe(config, work)]
    wall, rss = scenex_cli([workload.mode, "--config", config,
                            "--jobs", str(workload.jobs()), "--output-dir", out], work)
    result = checks.check_run(out, workload.n_children,
                              HORIZON_STEPS * workload.n_participants,
                              workload.has_ground_truth)
    argv = analyze_argv(workload, out, analysis_dir)
    now = time.perf_counter()
    block = SAMPLE_SHARE * wall
    last = 2 * now - start + block > deadline
    until = deadline if last else now + block
    analyze_s = []
    while not analyze_s or time.perf_counter() < until:
        analyze_s.append(scenex_cli(argv, work)[0])
        setup_s.append(setup_probe(config, work))
    checks.check_analysis(analysis_dir, workload.analyze_sizes(),
                          workload.has_ground_truth)
    return dict(result, wall_s=wall, peak_rss_mb=rss, analyze_s=analyze_s,
                setup_s=setup_s, last=last)


def lower_quartile(values):
    """The host's slow spells only add time to a short command, so the
    fastest quarter of many samples moves with the code and less with the
    neighbours than the median does."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


@contextlib.contextmanager
def work_dir(workload):
    os.makedirs(WORK_ROOT, exist_ok=True)
    path = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_ROOT)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def _same_outputs(results, what):
    keys = ("metrics_sha256", "logs_sha256", "ground_truth_sha256")
    first = {k: results[0].get(k) for k in keys}
    for other in results[1:]:
        for k in keys:
            if other.get(k) != first[k]:
                raise OutputCheckError(f"{what}: {k} differs between runs")
    return first


def measure(workload, seed, seconds):
    """End-to-end metrics from repeated CLI iterations over `seconds`; the
    first always runs."""
    with work_dir(workload) as work:
        config = write_inputs(workload, seed, work)
        iterations = []
        deadline = time.perf_counter() + seconds
        while not iterations or not iterations[-1]["last"]:
            iterations.append(cli_iteration(workload, config, work, deadline))
    attempted = sum(it["attempted"] for it in iterations)
    failed = sum(it["failed"] for it in iterations)
    setup_s = [s for it in iterations for s in it["setup_s"]]
    analyze_s = [a for it in iterations for a in it["analyze_s"]]
    metrics = {
        "children_per_s": statistics.median(
            (it["attempted"] - it["failed"]) / it["wall_s"] for it in iterations),
        "setup_s": statistics.median(setup_s),
        "analyze_s": lower_quartile(analyze_s),
        "peak_rss_mb": statistics.median(it["peak_rss_mb"] for it in iterations),
        "completed_fraction": (attempted - failed) / attempted,
    }
    detail = {
        "iterations": len(iterations),
        "jobs": workload.jobs(),
        "children": workload.n_children,
        "command_wall_s": [it["wall_s"] for it in iterations],
        "setup_s": setup_s,
        "analyze_s": analyze_s,
        **_same_outputs(iterations, workload.name),
    }
    return metrics, attempted, failed, detail


def _inprocess(workload, config, work):
    """One `enumerate`/`simulate` + `analyze` through `cli.main` at --jobs 1;
    (wall s, checked run result)."""
    out = os.path.join(work, "inproc-out")
    analysis_dir = os.path.join(work, "inproc-analysis")
    for path in (out, analysis_dir):
        shutil.rmtree(path, ignore_errors=True)
    t0 = time.perf_counter()
    rc = cli.main([workload.mode, "--config", config, "--jobs", "1",
                   "--output-dir", out])
    if rc == 0:
        rc = cli.main(analyze_argv(workload, out, analysis_dir))
    wall = time.perf_counter() - t0
    if rc != 0:
        raise OutputCheckError(f"in-process scenex exited with {rc}")
    result = checks.check_run(out, workload.n_children,
                              HORIZON_STEPS * workload.n_participants,
                              workload.has_ground_truth)
    checks.check_analysis(analysis_dir, workload.analyze_sizes(),
                          workload.has_ground_truth)
    return wall, result


def trace(workload, seed, trace_path):
    """Per-layer metrics from one traced in-process run.

    The traced pass runs between two untraced ones, so that warm-up does not
    count as tracing overhead.
    """
    with work_dir(workload) as work:
        config = write_inputs(workload, seed, work)
        reference = cli_iteration(workload, config, work)
        passes = [_inprocess(workload, config, work)]
        tracer = Tracer()
        try:
            tracer.install()
            passes.append(_inprocess(workload, config, work))
        finally:
            tracer.uninstall()
        spans = tracer.finish()
        passes.append(_inprocess(workload, config, work))
        _same_outputs([reference] + [result for _, result in passes],
                      f"{workload.name}: CLI at --jobs {workload.jobs()} vs in-process")
    tracer.save(trace_path, spans)
    untraced_wall = 0.5 * (passes[0][0] + passes[2][0])
    traced_wall = passes[1][0]
    per_layer, detail = tracer.summary(spans, traced_wall, untraced_wall)
    attempted = reference["attempted"] + sum(r["attempted"] for _, r in passes)
    failed = reference["failed"] + sum(r["failed"] for _, r in passes)
    detail.update(spans=int(spans["start"].size), trace_file=trace_path,
                  untraced_wall_s=[passes[0][0], passes[2][0]],
                  traced_wall_s=traced_wall, **_same_outputs([reference], workload.name))
    return per_layer, attempted, failed, detail


def _steal_ticks():
    try:
        with open("/proc/stat") as fh:
            return int(fh.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return None


def machine_context():
    digest = hashlib.sha256()
    package = os.path.join(SRC, "scenex")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
    }


def _print_metrics(title, values, units):
    print(title)
    for name, value in values.items():
        print(f"  {name:<44} {value:>16.6g} {units[name]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="scenex benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.abspath(scenex.__file__).startswith(SRC + os.sep):
        print(f"error: scenex imported from {scenex.__file__}, not {SRC}",
              file=sys.stderr)
        return 1
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    spec = PER_LAYER if args.trace else END_TO_END
    units = {name: unit for name, unit, _ in spec}
    context = machine_context()
    steal_before = _steal_ticks()
    attempted = failed = 0
    metrics = {}
    digests = {}
    try:
        for name in names:
            workload = WORKLOADS[name]
            if args.trace:
                trace_path = os.path.join(WORK_ROOT, f"trace-{name}.npz")
                values, n, f, detail = trace(workload, args.seed, trace_path)
            else:
                values, n, f, detail = measure(workload, args.seed, args.seconds)
            attempted += n
            failed += f
            digests[name] = (detail["metrics_sha256"], detail["logs_sha256"])
            _print_metrics(f"{name} (seed {args.seed})", values, units)
            print("detail " + json.dumps({"workload": name, **detail}, sort_keys=True))
            prefix = f"{name}." if len(names) > 1 else ""
            metrics.update({prefix + k: {"value": v, "unit": units[k]}
                            for k, v in values.items()})
        if {"enum-follow", "enum-follow-par"} <= digests.keys() and \
                digests["enum-follow"] != digests["enum-follow-par"]:
            raise OutputCheckError("enum-follow and enum-follow-par outputs differ")
    except OutputCheckError as exc:
        print(f"output check failed: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 1
    steal_after = _steal_ticks()
    context["steal_ticks"] = [steal_before, steal_after]
    print("context " + json.dumps(context, sort_keys=True))
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0
