"""Span recorder for the traced run.

`Tracer.install` replaces scenex's public functions, and the CLI functions
that make up its pipeline stages, with timing wrappers in every scenex module
that holds them, which is where their callers look them
up (``scenex.simulator.plan_path_follow``, ``scenex.metrics.match_to_lane``,
``Polyline.project``, ...). Each call records one span: its name, start,
end and the span that was open when it began. Spans stay in memory, in
flat arrays, until `save` writes them out. Self times and the distinct-input
counters are computed from the spans afterwards, so the wrappers only read
the clock and append.
"""
from __future__ import annotations

import importlib
import os
import sys
import time
from array import array

import numpy as np


def _plan_input(args, kwargs, result):
    # the planner reads only the current frame of its view; the path it is
    # given is left out of the key, so equal keys may still plan differently
    view, spec = args[0], args[1]
    return view.self_id, spec, view.current


def _log_frames(args, kwargs, result):
    return result.frames


def _written_path(args, kwargs, result):
    return args[1]


# (span name, module, attribute, what to keep per call for the counters)
WRAPPED = (
    ("geometry.project", "scenex.geometry", "Polyline.project", None),
    ("map_model.match_to_lane", "scenex.map_model", "match_to_lane", None),
    ("map_model.path_for_pose", "scenex.map_model", "path_for_pose", None),
    ("map_model.path_intersection", "scenex.map_model", "path_intersection", None),
    ("map_model.load_map", "scenex.map_model", "load_map", None),
    ("behavior.plan_path_follow", "scenex.behavior", "plan_path_follow", _plan_input),
    ("behavior.plan_replay", "scenex.behavior", "plan_replay", None),
    ("simulator.run_child", "scenex.simulator", "run_child", _log_frames),
    ("metrics.aggregate", "scenex.metrics", "MetricEngine.aggregate", None),
    ("metrics.pair_contexts", "scenex.metrics", "MetricEngine.pair_contexts", None),
    ("metrics.write_metric_table", "scenex.metrics", "write_metric_table", None),
    ("scene_io.write_log", "scenex.scene_io", "write_log", _written_path),
    ("scene_io.load_tracks", "scenex.scene_io", "load_tracks", None),
    ("analysis.kde", "scenex.analysis", "kde", None),
    ("analysis.convergence_study", "scenex.analysis", "convergence_study", None),
    ("analysis.ground_truth_overlay", "scenex.analysis", "ground_truth_overlay",
     None),
    ("cli._build_scene", "scenex.cli", "_build_scene", None),
    ("simulator.run_enumerated", "scenex.simulator", "run_enumerated", None),
    ("simulator.run_batch", "scenex.simulator", "run_batch", None),
    ("cli._metric_rows", "scenex.cli", "_metric_rows", None),
    ("cli._write_outputs", "scenex.cli", "_write_outputs", None),
    ("cli.cmd_analyze", "scenex.cli", "cmd_analyze", None),
)

# pipeline stage -> the spans whose summed time is the stage's time. The CLI
# computes metrics and the ground-truth overlay inside `_write_outputs`, so
# `writes` is that span's time minus those two stages.
STAGES = {
    "scene": ("cli._build_scene",),
    "simulation": ("simulator.run_enumerated", "simulator.run_batch"),
    "metrics": ("cli._metric_rows",),
    "writes": ("cli._write_outputs",),
    "ground_truth": ("analysis.ground_truth_overlay",),
    "analysis": ("cli.cmd_analyze",),
}

# per-layer metrics of the traced run: (name, unit, better)
PER_LAYER = (
    ("geometry.project.calls", "count", "lower"),
    ("geometry.project.self_s", "s", "lower"),
    ("map_model.match_to_lane.calls", "count", "lower"),
    ("map_model.match_to_lane.self_s", "s", "lower"),
    ("map_model.path_for_pose.calls", "count", "lower"),
    ("map_model.path_intersection.calls", "count", "lower"),
    ("behavior.plan_path_follow.calls", "count", "lower"),
    ("behavior.plan_path_follow.self_s", "s", "lower"),
    ("behavior.plan_path_follow.distinct_ratio", "ratio", "lower"),
    ("behavior.plan_replay.calls", "count", "lower"),
    ("behavior.plan_replay.self_s", "s", "lower"),
    ("simulator.run_child.p50_ms", "ms", "lower"),
    ("simulator.run_child.tail_ms", "ms", "lower"),
    ("simulator.distinct_log_ratio", "ratio", "lower"),
    ("metrics.aggregate.p50_ms", "ms", "lower"),
    ("metrics.aggregate.tail_ms", "ms", "lower"),
    ("metrics.aggregate.self_s", "s", "lower"),
    ("metrics.pair_contexts.calls", "count", "lower"),
    ("scene_io.write_log.calls", "count", "lower"),
    ("scene_io.write_log.self_s", "s", "lower"),
    ("scene_io.write_log.bytes", "bytes", "lower"),
    ("metrics.write_metric_table.self_s", "s", "lower"),
    ("scene_io.load_tracks.self_s", "s", "lower"),
    ("map_model.load_map.self_s", "s", "lower"),
    ("analysis.kde.calls", "count", "lower"),
    ("analysis.kde.self_s", "s", "lower"),
    ("analysis.convergence_study.self_s", "s", "lower"),
    ("analysis.ground_truth_overlay.self_s", "s", "lower"),
    ("stage.scene_s", "s", "lower"),
    ("stage.simulation_s", "s", "lower"),
    ("stage.metrics_s", "s", "lower"),
    ("stage.writes_s", "s", "lower"),
    ("stage.ground_truth_s", "s", "lower"),
    ("stage.analysis_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

TAIL_MARGIN = 10


def tail(values):
    """(value, percentile): the highest percentile with 10 samples beyond it.

    Below 21 samples that percentile would not exceed the median, so the
    maximum is returned instead, with percentile 100.
    """
    ordered = np.sort(np.asarray(values, dtype=float))
    n = ordered.size
    if n <= 2 * TAIL_MARGIN:
        return float(ordered[-1]), 100.0
    return float(ordered[n - TAIL_MARGIN - 1]), 100.0 * (n - TAIL_MARGIN) / n


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self._kept = {}      # span name -> [(span index, kept object)]
        self._restore = []   # (owner, attribute, original)

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id):
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx, t0, t1):
        self._stack.pop()
        self.start[idx] = t0
        self.end[idx] = t1

    def _wrap(self, name, fn, keep):
        name_id = self._name_id(name)
        kept = self._kept.setdefault(name, [])
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = self._open(name_id)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, t0, clock())
            if keep is not None:
                kept.append((idx, keep(args, kwargs, result)))
            return result

        return traced

    def install(self):
        for name, module_name, attr, keep in WRAPPED:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                self._restore.append((owner, meth, original))
                setattr(owner, meth, self._wrap(name, original, keep))
                continue
            original = getattr(module, attr)
            traced = self._wrap(name, original, keep)
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith("scenex"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, traced)

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def finish(self):
        """Span arrays; `tag` is the distinct-input id, or the bytes written.

        Drops the kept call inputs and results, so call it once, after the
        traced pass and before its output files are deleted.
        """
        tag = np.full(len(self.start), -1, dtype=np.int64)
        for name, kept in self._kept.items():
            if name == "scene_io.write_log":
                for idx, path in kept:
                    tag[idx] = os.path.getsize(path)
                continue
            ids = {}
            for idx, key in kept:
                tag[idx] = ids.setdefault(key, len(ids))
        self._kept.clear()
        return {
            "name": np.array(self.name, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "tag": tag,
        }

    def save(self, path, spans):
        np.savez(path, names=np.array(self.names), **spans)

    def summary(self, spans, traced_wall, untraced_wall):
        """(per-layer metrics {name: value}, per-span detail) from the spans."""
        dur = spans["end"] - spans["start"]
        parent = spans["parent"]
        nested = parent >= 0
        child_time = np.bincount(parent[nested], weights=dur[nested],
                                 minlength=dur.size)
        self_time = dur - child_time
        by_name = {n: spans["name"] == i for i, n in enumerate(self.names)}

        def mask(name):
            return by_name.get(name, np.zeros(dur.size, dtype=bool))

        def calls(name):
            return int(mask(name).sum())

        def self_s(name):
            return float(self_time[mask(name)].sum())

        def distinct_ratio(name):
            tags = spans["tag"][mask(name)]
            return len(np.unique(tags)) / tags.size if tags.size else 0.0

        def stage_s(stage):
            return float(sum(dur[mask(name)].sum() for name in STAGES[stage]))

        def timing(name):
            ms = dur[mask(name)] * 1e3
            if not ms.size:
                return 0.0, 0.0, 100.0, 0
            value, pct = tail(ms)
            return float(np.median(ms)), value, pct, int(ms.size)

        out = {}
        detail = {"self_s": {}, "timings": {}}
        for name in self.names:
            detail["self_s"][name] = self_s(name)
        for name in ("simulator.run_child", "metrics.aggregate"):
            p50, tail_ms, pct, n = timing(name)
            out[f"{name}.p50_ms"] = p50
            out[f"{name}.tail_ms"] = tail_ms
            detail["timings"][name] = {"p50_ms": p50, "tail_ms": tail_ms,
                                       "tail_percentile": pct, "samples": n}
        out["behavior.plan_path_follow.distinct_ratio"] = distinct_ratio(
            "behavior.plan_path_follow")
        out["simulator.distinct_log_ratio"] = distinct_ratio("simulator.run_child")
        out["scene_io.write_log.bytes"] = int(
            spans["tag"][mask("scene_io.write_log")].sum())
        out["trace.overhead_ratio"] = traced_wall / untraced_wall
        for stage in STAGES:
            out[f"stage.{stage}_s"] = stage_s(stage)
        out["stage.writes_s"] -= out["stage.metrics_s"] + out["stage.ground_truth_s"]
        for metric, _, _ in PER_LAYER:
            if metric in out:
                continue
            span_name, _, kind = metric.rpartition(".")
            if kind == "calls":
                out[metric] = calls(span_name)
            elif kind == "self_s":
                out[metric] = self_s(span_name)
        return {metric: out[metric] for metric, _, _ in PER_LAYER}, detail
