"""Criticality metrics: per-step pairwise values and scenario aggregates.

Nanoscopic values are computed for every ordered participant pair each
frame; per-frame extrema are then aggregated to the per-scenario fingerprint
(worst value plus mean of per-frame extrema, per metric).
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass

from .behavior import leaders_ahead, path_neighbours
from .errors import OffMapError, SchemaError
from .map_model import (
    DEFAULT_ROUTE_HORIZON,
    match_seed_lane,
    path_for_pose,
    path_intersection,
)

DEFAULT_METRICS = ("distance", "gap_time", "inv_ttc", "pttc", "wttc")
# metrics whose scenario worst is the maximum; all others minimize
MAX_IS_WORST = frozenset({"inv_ttc"})

DEFAULT_PTTC_DECEL = 3.0
DEFAULT_WTTC_ACCEL = 7.5
GAP_TIME_MIN_SPEED = 0.1


def effective_radius(state) -> float:
    """Circumscribed-circle radius of the vehicle's bounding box."""
    return 0.5 * math.hypot(state.length, state.width)


@dataclass(frozen=True)
class PairContext:
    """Geometric context of an ordered pair (self/follower first).

    `s_net`/`delta_v` are present when b is a leader of a along a's path;
    `d_self`/`d_other` are the remaining distances to the paths' conflict
    point when one exists ahead of both.
    """

    a: object
    b: object
    s_net: float | None = None
    delta_v: float | None = None
    d_self: float | None = None
    d_other: float | None = None

    @property
    def following(self) -> bool:
        return self.s_net is not None

    @property
    def crossing(self) -> bool:
        return self.d_self is not None


def metric_distance(a, b) -> float:
    return math.hypot(a.x - b.x, a.y - b.y)


def metric_inverse_ttc(ctx: PairContext):
    """1/TTC of a car-following pair; 0 when the gap is opening."""
    if not ctx.following:
        return None
    return ctx.delta_v / ctx.s_net if ctx.delta_v > 0.0 else 0.0


def metric_pttc(ctx: PairContext, decel=DEFAULT_PTTC_DECEL):
    """Time until the gap closes if the leader brakes at `decel` while the
    follower holds speed; piecewise after the leader stops."""
    if not ctx.following:
        return None
    s = ctx.s_net
    dv = ctx.delta_v
    v_leader = ctx.b.speed
    t_stop = v_leader / decel
    root = (-dv + math.sqrt(dv * dv + 2.0 * decel * s)) / decel
    if root <= t_stop:
        return root
    gap_at_stop = s - dv * t_stop - 0.5 * decel * t_stop * t_stop
    v_follower = ctx.a.speed
    if v_follower <= 0.0:
        return None
    return t_stop + gap_at_stop / v_follower


def metric_wttc(ctx: PairContext, accel=DEFAULT_WTTC_ACCEL) -> float:
    """Earliest contact of reachable discs growing at r + v*t + a/2*t^2.

    Defined for every pair; 0 when the footprints already overlap.
    """
    d = metric_distance(ctx.a, ctx.b)
    gap = d - effective_radius(ctx.a) - effective_radius(ctx.b)
    if gap <= 0.0:
        return 0.0
    vs = ctx.a.speed + ctx.b.speed
    return (-vs + math.sqrt(vs * vs + 4.0 * accel * gap)) / (2.0 * accel)


def metric_gap_time(ctx: PairContext):
    """Difference of predicted arrival times at the paths' conflict point;
    undefined when either participant is at most `GAP_TIME_MIN_SPEED`."""
    if not ctx.crossing:
        return None
    v_a = ctx.a.speed
    v_b = ctx.b.speed
    if v_a <= GAP_TIME_MIN_SPEED or v_b <= GAP_TIME_MIN_SPEED:
        return None
    return abs(ctx.d_self / v_a - ctx.d_other / v_b)


@dataclass(frozen=True)
class MetricStats:
    worst: float
    mean_of_extrema: float
    defined_frames: int


class MetricEngine:
    """Computes pair contexts, per-frame extrema, and scenario fingerprints
    of the `DEFAULT_METRICS`.

    Each participant is judged on the path the simulator gives it
    (`path_for_pose` with its route selector, "straightest" without a log);
    off-map participants contribute to distance and WTTC only. Fingerprints
    are stored per distinct log.
    """

    def __init__(self, map_graph, pttc_decel=DEFAULT_PTTC_DECEL,
                 wttc_accel=DEFAULT_WTTC_ACCEL, route_horizon=DEFAULT_ROUTE_HORIZON):
        self.map_graph = map_graph
        self.pttc_decel = pttc_decel
        self.wttc_accel = wttc_accel
        self.route_horizon = route_horizon
        self._isect_cache = {}
        self._fingerprints = {}

    def _routes(self, log):
        """track id -> (route selector, seed lane) for non-default selectors."""
        routes = {}
        if log.assignment is None:
            return routes
        for tid, spec in log.assignment.mapping.items():
            lane = match_seed_lane(self.map_graph, log.seed.current.get(tid),
                                   spec.route_selector)
            if lane is not None:
                routes[tid] = (spec.route_selector, lane)
        return routes

    def _conflict(self, path_a, path_b):
        key = (path_a.source_route, path_b.source_route)
        if key in self._isect_cache:
            return self._isect_cache[key]
        hit = path_intersection(path_a, path_b)
        self._isect_cache[key] = hit
        return hit

    def pair_contexts(self, frame, routes=None):
        """All ordered pair contexts of a frame.

        `routes` maps a track id to its (route selector, seed lane); any other
        participant is judged on its lane's straightest route. Every state
        is projected once onto each distinct path of the frame.
        """
        routes = routes or {}
        states = frame.states
        projections = {}  # path -> its Polyline.project of every state
        info = []
        for i, state in enumerate(states):
            selector, seed_lane = routes.get(state.track_id, ("straightest", None))
            try:
                path = path_for_pose(self.map_graph, state.x, state.y, state.yaw,
                                     selector, self.route_horizon, seed_lane)
            except OffMapError:
                path = None
            station = None
            gaps = {}
            if path is not None and path.polyline is not None:
                on_path = projections.get(path)
                if on_path is None:
                    project = path.polyline.project
                    on_path = projections[path] = [project(other.x, other.y)
                                                   for other in states]
                station = on_path[i][0]
                neighbours = path_neighbours(state.track_id, states, on_path)
                gaps = {other.track_id: s_net for other, s_net
                        in leaders_ahead(state, station, neighbours)}
            info.append((state, path, station, gaps))
        contexts = []
        for a, path_a, st_a, gaps in info:
            for b, path_b, st_b, _ in info:
                if a.track_id == b.track_id:
                    continue
                s_net = gaps.get(b.track_id)
                delta_v = d_self = d_other = None
                if s_net is not None:
                    delta_v = a.speed - b.speed
                if (st_a is not None and st_b is not None
                        and path_a.source_route != path_b.source_route):
                    hit = self._conflict(path_a, path_b)
                    if hit is not None:
                        _, sa, sb = hit
                        if sa - st_a > 1e-9 and sb - st_b > 1e-9:
                            d_self = sa - st_a
                            d_other = sb - st_b
                contexts.append(PairContext(a, b, s_net, delta_v, d_self, d_other))
        return contexts

    def pair_values(self, ctx: PairContext):
        """All metric values for one ordered pair (None where undefined)."""
        return {
            "distance": metric_distance(ctx.a, ctx.b),
            "gap_time": metric_gap_time(ctx),
            "inv_ttc": metric_inverse_ttc(ctx),
            "pttc": metric_pttc(ctx, self.pttc_decel),
            "wttc": metric_wttc(ctx, self.wttc_accel),
        }

    def frame_extrema(self, frame, contexts=None):
        """Worst value per metric over the frame's defined pairs; of equal
        values, the first in pair order."""
        if contexts is None:
            contexts = self.pair_contexts(frame)
        values = [self.pair_values(ctx) for ctx in contexts]
        extrema = {}
        for metric in DEFAULT_METRICS:
            column = [v[metric] for v in values if v[metric] is not None]
            if column:
                extrema[metric] = max(column) if metric in MAX_IS_WORST else min(column)
        return extrema

    def aggregate(self, log):
        """Per-scenario fingerprint: worst and mean-of-extrema per metric.

        Metrics with no defined frame are absent from the result. A log whose
        exact frames (`ScenarioLog.digest`) and routes were aggregated before
        gets the stored fingerprint.
        """
        routes = self._routes(log)
        key = (log.digest, tuple(sorted(routes.items())))
        vector = self._fingerprints.get(key)
        if vector is None:
            vector = self._fingerprints[key] = self._fingerprint(log, routes)
        return dict(vector)

    def _fingerprint(self, log, routes):
        per_metric = {}
        for frame in log.frames:
            contexts = self.pair_contexts(frame, routes)
            for metric, value in self.frame_extrema(frame, contexts).items():
                per_metric.setdefault(metric, []).append(value)
        vector = {}
        for metric, values in per_metric.items():
            worst = max(values) if metric in MAX_IS_WORST else min(values)
            vector[metric] = MetricStats(worst, sum(values) / len(values), len(values))
        return vector


def write_metric_table(path, rows, metrics=DEFAULT_METRICS) -> None:
    """Write one row per child-scenario: run identity plus the fingerprint.

    `rows` is a list of (run_index, run_seed, vector) with vector a dict
    metric -> MetricStats; undefined metrics serialize as empty fields.
    """
    header = ["run_index", "run_seed"]
    for m in metrics:
        header += [f"{m}_worst", f"{m}_mean", f"{m}_defined_frames"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for run_index, run_seed, vector in rows:
            row = [run_index, run_seed]
            for m in metrics:
                stats = vector.get(m)
                if stats is None:
                    row += ["", "", "0"]
                else:
                    row += [repr(stats.worst), repr(stats.mean_of_extrema),
                            str(stats.defined_frames)]
            writer.writerow(row)


def read_metric_table(path):
    """Read a metric table; returns (metric names, rows).

    Raises SchemaError, naming the line, for a row whose length differs from
    the header's, a cell that does not parse, and a non-finite value.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty metric table") from None
        if header[:2] != ["run_index", "run_seed"]:
            raise SchemaError(f"{path}: not a metric table")
        metrics = []
        for i in range(2, len(header), 3):
            name = header[i]
            metric = name[: -len("_worst")]
            if (not name.endswith("_worst") or header[i + 1: i + 3]
                    != [f"{metric}_mean", f"{metric}_defined_frames"]):
                raise SchemaError(f"{path}: unexpected column {name!r}")
            metrics.append(metric)
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise SchemaError(f"{path}:{lineno}: expected {len(header)} fields, "
                                  f"got {len(row)}")
            try:
                vector = {}
                for k, m in enumerate(metrics):
                    worst, mean, frames = row[2 + 3 * k: 5 + 3 * k]
                    if worst != "":
                        vector[m] = MetricStats(_finite(worst), _finite(mean),
                                                int(frames))
                rows.append((int(row[0]), int(row[1]), vector))
            except ValueError as exc:
                raise SchemaError(f"{path}:{lineno}: {exc}") from None
    return metrics, rows


def _finite(cell) -> float:
    value = float(cell)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {cell!r}")
    return value
