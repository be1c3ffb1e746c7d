"""Criticality metrics: per-step pairwise values and scenario aggregates.

Nanoscopic values are computed for every ordered participant pair each
frame; per-frame extrema are then aggregated to the per-scenario fingerprint
(worst value plus mean of per-frame extrema, per metric).
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import NamedTuple

from .behavior import leader_gap
from .errors import OffMapError, SchemaError
from .map_model import (
    DEFAULT_ROUTE_HORIZON,
    path_intersection,
    project_state,
    seed_lane,
    state_path,
)
from .schema import positive_number

DEFAULT_METRICS = ("distance", "gap_time", "inv_ttc", "pttc", "wttc")
# metrics whose scenario worst is the maximum; all others minimize
MAX_IS_WORST = frozenset({"inv_ttc"})

DEFAULT_PTTC_DECEL = 3.0
DEFAULT_WTTC_ACCEL = 7.5
GAP_TIME_MIN_SPEED = 0.1

# the route of a participant without a route selector in its log
_STRAIGHTEST = ("straightest", None)


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


# The scalar kernels below hold each formula once; the metric_* functions,
# `MetricEngine.pair_values` and the engine's frame fold call them.

def _inverse_ttc(s_net, delta_v) -> float:
    return delta_v / s_net if delta_v > 0.0 else 0.0


def _pttc(s_net, delta_v, v_follower, v_leader, decel):
    t_stop = v_leader / decel
    root = (-delta_v + math.sqrt(delta_v * delta_v + 2.0 * decel * s_net)) / decel
    if root <= t_stop:
        return root
    gap_at_stop = s_net - delta_v * t_stop - 0.5 * decel * t_stop * t_stop
    if v_follower <= 0.0:
        return None
    return t_stop + gap_at_stop / v_follower


def _wttc(distance, r_a, r_b, v_a, v_b, accel) -> float:
    gap = distance - r_a - r_b
    if gap <= 0.0:
        return 0.0
    vs = v_a + v_b
    return (-vs + math.sqrt(vs * vs + 4.0 * accel * gap)) / (2.0 * accel)


def _gap_time(d_self, d_other, v_a, v_b):
    if v_a <= GAP_TIME_MIN_SPEED or v_b <= GAP_TIME_MIN_SPEED:
        return None
    return abs(d_self / v_a - d_other / v_b)


def metric_inverse_ttc(ctx: PairContext):
    """1/TTC of a car-following pair; 0 when the gap is opening."""
    if not ctx.following:
        return None
    return _inverse_ttc(ctx.s_net, ctx.delta_v)


def metric_pttc(ctx: PairContext, decel=DEFAULT_PTTC_DECEL):
    """Time until the gap closes if the leader brakes at `decel` while the
    follower holds speed; piecewise after the leader stops."""
    if not ctx.following:
        return None
    return _pttc(ctx.s_net, ctx.delta_v, ctx.a.speed, ctx.b.speed, decel)


def metric_wttc(ctx: PairContext, accel=DEFAULT_WTTC_ACCEL) -> float:
    """Earliest contact of reachable discs growing at r + v*t + a/2*t^2.

    Defined for every pair; 0 when the footprints already overlap.
    """
    a, b = ctx.a, ctx.b
    return _wttc(math.hypot(a.x - b.x, a.y - b.y), effective_radius(a),
                 effective_radius(b), a.speed, b.speed, accel)


class _Row(NamedTuple):
    """What the engine keeps of a distinct state on its route: its key, the
    state's exact content (`ParticipantState.key`) and route, and the
    `_pair_values` of each ordered pair it starts, by the other state's row
    key. Path and station are None off the map or on a map-less seed."""

    key: tuple  # (state key, route)
    path: object
    station: float | None
    speed: float
    radius: float
    pairs: dict


@dataclass(frozen=True)
class MetricStats:
    worst: float
    mean_of_extrema: float
    defined_frames: int


class MetricEngine:
    """Computes pair contexts, per-frame extrema, and scenario fingerprints
    of the `DEFAULT_METRICS`.

    Each participant is judged on the path the simulator gives it
    (`state_path` with its route selector in the child's assignment);
    off-map participants contribute to distance and WTTC only. A path is
    its route's centerline, one `Polyline` per route.

    The engine pays once for each distinct piece of work: a participant's
    seed lane per track and route selector (`seed_lane`, shared with the
    planner), a state's path, station, speed and radius per exact state
    (`ParticipantState.key`) and route, a state's projection per path and
    exact state, the crossing of two paths, the five values of an ordered
    pair per pair of (exact state, route) keys, and a fingerprint per
    distinct log and routes. A frame's extrema fold its pairs' stored
    values; a pair recurs across frames and children far more often than a
    whole frame does.
    """

    def __init__(self, map_graph, pttc_decel=DEFAULT_PTTC_DECEL,
                 wttc_accel=DEFAULT_WTTC_ACCEL, route_horizon=DEFAULT_ROUTE_HORIZON):
        self.map_graph = map_graph
        self.pttc_decel = positive_number("pttc_decel", pttc_decel)
        self.wttc_accel = positive_number("wttc_accel", wttc_accel)
        self.route_horizon = positive_number("route_horizon", route_horizon)
        self._isect_cache = {}  # (path, path) -> `path_intersection`
        self._fingerprints = {}
        self._states = {}       # (state key, route) -> `_Row`
        self.memo = {"paths": {}, "projections": {}}  # a batch's `plan_memo` too

    def _routes(self, seed, assignment):
        """track id -> (route selector, seed lane) for non-default selectors."""
        routes = {}
        if assignment is None:
            return routes
        for tid, spec in assignment.mapping.items():
            lane = seed_lane(self.memo, self.map_graph, seed, tid, spec.route_selector)
            if lane is not None:
                routes[tid] = (spec.route_selector, lane)
        return routes

    def _crossing(self, path_a, station_a, path_b, station_b):
        """(d_self, d_other) to the paths' conflict point when it lies ahead
        of both participants, else None. Two participants on one route do
        not cross."""
        if path_a is None or path_b is None or path_a is path_b:
            return None
        key = (path_a, path_b)
        if key not in self._isect_cache:
            self._isect_cache[key] = path_intersection(path_a, path_b)
        hit = self._isect_cache[key]
        if hit is None:
            return None
        _, sa, sb = hit
        if sa - station_a > 1e-9 and sb - station_b > 1e-9:
            return sa - station_a, sb - station_b
        return None

    def _state_row(self, state, key):
        """The `_Row` of a state under its key, (state key, route)."""
        _, (selector, seed_lane) = key
        try:
            path = state_path(self.memo, self.map_graph, state, selector, seed_lane,
                              self.route_horizon)
        except OffMapError:
            path = None
        station = None if path is None else project_state(self.memo, path, state)[0]
        return _Row(key, path, station, state.speed, effective_radius(state), {})

    def _frame(self, frame, routes):
        """The `_Row` of each state of a frame, in order. A row keeps the
        first key object built for its state, and every pair entry shares
        it. `routes` as in `pair_contexts`."""
        memo = self._states
        rows = []
        for state in frame.states:
            key = (state.key, routes.get(state.track_id, _STRAIGHTEST))
            row = memo.get(key)
            if row is None:
                row = memo[key] = self._state_row(state, key)
            rows.append(row)
        return rows

    def _pair(self, a, row_a, b, row_b):
        """(s_net, delta_v, crossing) of the ordered pair (a, b) with their
        `_Row`s: the net gap and closing speed when b leads a on a's path
        (`leader_gap`), and a's and b's distances to their paths' conflict
        point (`_crossing`); each None when there is none."""
        s_net = delta_v = None
        if row_a.path is not None:
            proj = project_state(self.memo, row_a.path, b)
            s_net = leader_gap(row_a.station, a.length, proj, b.length)
            if s_net is not None:
                delta_v = row_a.speed - row_b.speed
        return s_net, delta_v, self._crossing(row_a.path, row_a.station,
                                              row_b.path, row_b.station)

    def _pair_values(self, a, row_a, b, row_b):
        """The ordered pair's values, in `DEFAULT_METRICS` order (None where
        undefined)."""
        s_net, delta_v, crossing = self._pair(a, row_a, b, row_b)
        v_a, r_a = row_a.speed, row_a.radius
        v_b, r_b = row_b.speed, row_b.radius
        d = math.hypot(a.x - b.x, a.y - b.y)
        gap_time = inv_ttc = pttc = None
        if crossing is not None:
            gap_time = _gap_time(*crossing, v_a, v_b)
        if s_net is not None:
            inv_ttc = _inverse_ttc(s_net, delta_v)
            pttc = _pttc(s_net, delta_v, v_a, v_b, self.pttc_decel)
        return d, gap_time, inv_ttc, pttc, _wttc(d, r_a, r_b, v_a, v_b, self.wttc_accel)

    def pair_contexts(self, frame, routes=None):
        """All ordered pair contexts of a frame.

        `routes` maps a track id to its (route selector, seed lane); any other
        participant is judged on its lane's straightest route.
        """
        pairs = list(zip(frame.states, self._frame(frame, routes or {})))
        return [PairContext(a, b, s_net, delta_v, *(crossing or (None, None)))
                for a, row_a in pairs for b, row_b in pairs if a is not b
                for s_net, delta_v, crossing in [self._pair(a, row_a, b, row_b)]]

    def pair_values(self, ctx: PairContext):
        """All metric values for one ordered pair (None where undefined).
        Gap time is the difference of predicted arrival times at the paths'
        conflict point, undefined off a crossing and when either participant
        is at most `GAP_TIME_MIN_SPEED`."""
        a, b = ctx.a, ctx.b
        return {
            "distance": math.hypot(a.x - b.x, a.y - b.y),
            "gap_time": (_gap_time(ctx.d_self, ctx.d_other, a.speed, b.speed)
                         if ctx.crossing else None),
            "inv_ttc": metric_inverse_ttc(ctx),
            "pttc": metric_pttc(ctx, self.pttc_decel),
            "wttc": metric_wttc(ctx, self.wttc_accel),
        }

    def frame_extrema(self, frame, routes=None):
        """Worst value per metric over the frame's defined pairs; of equal
        values, the first in pair order. `routes` as in `pair_contexts`.
        Each ordered pair's values are computed once per pair of keys."""
        rows = self._frame(frame, routes or {})
        states = frame.states
        distance = gap_time = inv_ttc = pttc = wttc = None
        for a, row_a in zip(states, rows):
            pairs = row_a.pairs
            for b, row_b in zip(states, rows):
                if a is b:
                    continue
                values = pairs.get(row_b.key)
                if values is None:
                    values = pairs[row_b.key] = self._pair_values(a, row_a, b, row_b)
                d, g, i, p, w = values
                if distance is None or d < distance:
                    distance = d
                if g is not None and (gap_time is None or g < gap_time):
                    gap_time = g
                # inv_ttc is the one metric of MAX_IS_WORST
                if i is not None and (inv_ttc is None or i > inv_ttc):
                    inv_ttc = i
                if p is not None and (pttc is None or p < pttc):
                    pttc = p
                if wttc is None or w < wttc:
                    wttc = w
        extrema = (distance, gap_time, inv_ttc, pttc, wttc)
        return {m: v for m, v in zip(DEFAULT_METRICS, extrema) if v is not None}

    def aggregate(self, log, assignment):
        """Per-scenario fingerprint: worst and mean-of-extrema per metric,
        each participant on the route its spec in the child's `assignment`
        selects (None: every participant on its straightest route).

        Metrics with no defined frame are absent from the result. A log whose
        exact frames (`ScenarioLog.digest`) and routes were aggregated before
        gets the stored fingerprint.
        """
        routes = self._routes(log.seed, assignment)
        key = (log.digest, tuple(sorted(routes.items())))
        vector = self._fingerprints.get(key)
        if vector is None:
            vector = self._fingerprints[key] = self._fingerprint(log, routes)
        return dict(vector)

    def _fingerprint(self, log, routes):
        per_metric = {}
        for frame in log.frames:
            for metric, value in self.frame_extrema(frame, routes).items():
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
    the header's, a cell that does not parse, a non-finite value, and a
    metric whose cells are not what `write_metric_table` writes: empty worst
    and mean with 0 frames, or a worst and a mean with frames >= 1.
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
                    if (worst, mean, frames) == ("", "", "0"):
                        continue
                    if "" in (worst, mean) or int(frames) < 1:
                        raise ValueError(f"{m}: worst {worst!r}, mean {mean!r} and "
                                         f"defined frames {frames!r} disagree")
                    vector[m] = MetricStats(_finite(worst), _finite(mean), int(frames))
                rows.append((int(row[0]), int(row[1]), vector))
            except ValueError as exc:
                raise SchemaError(f"{path}:{lineno}: {exc}") from None
    return metrics, rows


def _finite(cell) -> float:
    value = float(cell)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {cell!r}")
    return value
