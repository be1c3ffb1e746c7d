"""Plain reference versions of the projection, metric and density kernels,
for the tests.

`project` is the segment loop of `Polyline.project` written out from the
polyline's vertices and stations, `match_to_lane` projects a pose onto every
lane of the map, `path_intersection` intersects every segment pair of two
paths, and `pair_contexts` projects every state once per state that looks for
leaders and intersects the paths of every crossing pair, with none of the
engine's memos. `frame_extrema` folds each pair's values into a running
extremum per metric, and `aggregate` fingerprints a log through both, with
routes of its own and without the engine's stored fingerprints. `kde` evaluates
one kernel row per sample, and `convergence_study` runs it on every resampled
subset. The kernels in `scenex` must return the same floats, bit for bit.
"""
import math

import numpy as np

from scenex.analysis import (
    DEFAULT_BANDWIDTH,
    DEFAULT_CONVERGENCE_SIZES,
    DEFAULT_GRID_SIZE,
    DEFAULT_RESAMPLES,
    GRID_PAD_BANDWIDTHS,
    DensityEstimate,
)
from scenex.behavior import LEADER_CLEARANCE, MIN_NET_GAP
from scenex.errors import OffMapError
from scenex.geometry import segment_intersection, wrap_angle
from scenex.map_model import DEFAULT_MATCH_DISTANCE, match_seed_lane, path_for_pose
from scenex.metrics import MAX_IS_WORST, MetricStats, PairContext


def project(polyline, x, y):
    """(station, lateral, distance) of a point on a polyline."""
    xs, ys, cum = polyline.xs, polyline.ys, polyline.cum
    best_d2 = math.inf
    best_station = 0.0
    best_lat = 0.0
    for i in range(len(cum) - 1):
        ax, ay = xs[i], ys[i]
        dxs = xs[i + 1] - ax
        dys = ys[i + 1] - ay
        seg = cum[i + 1] - cum[i]
        t = ((x - ax) * dxs + (y - ay) * dys) / (seg * seg)
        tc = min(max(t, 0.0), 1.0)
        px = ax + tc * dxs
        py = ay + tc * dys
        ddx = x - px
        ddy = y - py
        d2 = ddx * ddx + ddy * ddy
        if d2 < best_d2 - 1e-12:
            best_d2 = d2
            best_station = cum[i] + tc * seg
            best_lat = (dxs * (y - ay) - dys * (x - ax)) / seg
    return best_station, best_lat, math.sqrt(best_d2)


def match_to_lane(graph, x, y, yaw, max_distance=DEFAULT_MATCH_DISTANCE):
    """(lane id, station, lateral) of the lane minimizing |lateral| among
    those within `max_distance` whose heading is within 90 degrees of yaw."""
    if len(graph) == 0:
        raise OffMapError("map has no lanes")
    best = None
    for lane_id in graph.lane_ids:
        polyline = graph.lane(lane_id).polyline
        station, lateral, dist = project(polyline, x, y)
        if dist > max_distance:
            continue
        if abs(wrap_angle(polyline.tangent_at(station) - yaw)) >= math.pi / 2:
            continue
        key = (abs(lateral), lane_id)
        if best is None or key < best[0]:
            best = (key, lane_id, station, lateral)
    if best is None:
        raise OffMapError("off-map")
    return best[1], best[2], best[3]


def path_intersection(pa, pb):
    """((x, y), station_a, station_b) of the first crossing in station order
    on `pa`, intersecting every segment pair, or None."""
    for i in range(len(pa.cum) - 1):
        best = None
        for j in range(len(pb.cum) - 1):
            hit = segment_intersection(pa.xs[i], pa.ys[i], pa.xs[i + 1], pa.ys[i + 1],
                                       pb.xs[j], pb.ys[j], pb.xs[j + 1], pb.ys[j + 1])
            if hit is None:
                continue
            x, y, t, u = hit
            sa = pa.cum[i] + t * (pa.cum[i + 1] - pa.cum[i])
            sb = pb.cum[j] + u * (pb.cum[j + 1] - pb.cum[j])
            if best is None or (sa, sb) < (best[1], best[2]):
                best = ((x, y), sa, sb)
        if best is not None:
            return best
    return None


def pair_contexts(engine, frame, routes=None):
    """`MetricEngine.pair_contexts` with each state's own station and each
    leader candidate projected separately, and the paths of each pair on
    two different centerlines intersected anew."""
    routes = routes or {}
    states = frame.states
    info = []
    for state in states:
        selector, seed_lane = routes.get(state.track_id, ("straightest", None))
        try:
            path = path_for_pose(engine.map_graph, state.x, state.y, state.yaw,
                                 selector, engine.route_horizon, seed_lane)
        except OffMapError:
            path = None
        station = None
        gaps = {}
        if path is not None:
            station = project(path, state.x, state.y)[0]
            for other in states:
                if other.track_id == state.track_id:
                    continue
                other_station, lateral, distance = project(path, other.x, other.y)
                # near the path: within the clearance of its closest segment's
                # line, and of its closest point with 1e-9 allowed for rounding
                near = abs(lateral) <= LEADER_CLEARANCE and distance <= LEADER_CLEARANCE + 1e-9
                if near and other_station > station:
                    gaps[other.track_id] = max(
                        other_station - station - 0.5 * (state.length + other.length),
                        MIN_NET_GAP)
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
                    and path_a.points != path_b.points):
                hit = path_intersection(path_a, path_b)
                if hit is not None:
                    _, sa, sb = hit
                    if sa - st_a > 1e-9 and sb - st_b > 1e-9:
                        d_self = sa - st_a
                        d_other = sb - st_b
            contexts.append(PairContext(a, b, s_net, delta_v, d_self, d_other))
    return contexts


def frame_extrema(engine, frame, contexts=None):
    """Worst value per metric over the frame's defined pairs."""
    if contexts is None:
        contexts = pair_contexts(engine, frame)
    extrema = {}
    for ctx in contexts:
        for metric, value in engine.pair_values(ctx).items():
            if value is None:
                continue
            cur = extrema.get(metric)
            if cur is None:
                extrema[metric] = value
            elif metric in MAX_IS_WORST:
                extrema[metric] = max(cur, value)
            else:
                extrema[metric] = min(cur, value)
    return extrema


def aggregate(engine, log, assignment):
    """Per-scenario fingerprint: worst and mean-of-extrema per metric, each
    participant on the route its spec in `assignment` selects."""
    routes = {}
    for tid, spec in assignment.mapping.items():
        lane = match_seed_lane(engine.map_graph, log.seed.current.get(tid),
                               spec.route_selector)
        if lane is not None:
            routes[tid] = (spec.route_selector, lane)
    per_metric = {}
    for frame in log.frames:
        contexts = pair_contexts(engine, frame, routes)
        for metric, value in frame_extrema(engine, frame, contexts).items():
            per_metric.setdefault(metric, []).append(value)
    vector = {}
    for metric, values in per_metric.items():
        worst = max(values) if metric in MAX_IS_WORST else min(values)
        vector[metric] = MetricStats(worst, sum(values) / len(values), len(values))
    return vector


def bits(value):
    """A float, or a tuple of floats and other values, with every float
    replaced by its exact hex form, so that -0.0 and 0.0 differ."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, tuple):
        return tuple(bits(v) for v in value)
    return value


def kde(values, bandwidth=DEFAULT_BANDWIDTH, grid=None,
        grid_size=DEFAULT_GRID_SIZE, metric="") -> DensityEstimate:
    """Gaussian kernel density estimate on a uniform grid.

    The default grid spans [min - 5h, max + 5h] with 512 points, which is
    wide enough for the estimate to integrate to 1 within 1 percent.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("kde needs at least one sample")
    if bandwidth <= 0.0:
        raise ValueError("bandwidth must be > 0")
    if grid is None:
        pad = GRID_PAD_BANDWIDTHS * bandwidth
        grid = np.linspace(values.min() - pad, values.max() + pad, grid_size)
    else:
        grid = np.asarray(grid, dtype=float)
    z = (grid[None, :] - values[:, None]) / bandwidth
    density = np.exp(-0.5 * z * z).sum(axis=0)
    density /= values.size * bandwidth * math.sqrt(2.0 * math.pi)
    return DensityEstimate(metric, grid, density, bandwidth, int(values.size))


def convergence_study(full_values, sizes=DEFAULT_CONVERGENCE_SIZES,
                      resamples=DEFAULT_RESAMPLES, seed=0, bandwidth=DEFAULT_BANDWIDTH):
    """L1 distance between subset and full-population densities.

    For each size, `resamples` subsets are drawn without replacement and
    their KDE compared to the full KDE on the full-data grid. Returns one
    row per size: dict(size, mean_l1, std_l1, resamples).
    """
    full_values = np.asarray(full_values, dtype=float)
    rng = np.random.default_rng(seed)
    full = kde(full_values, bandwidth)
    rows = []
    for size in sizes:
        if size > full_values.size:
            raise ValueError(
                f"subset size {size} exceeds the population ({full_values.size})"
            )
        l1 = np.empty(resamples)
        for r in range(resamples):
            subset = rng.choice(full_values, size=size, replace=False)
            sub = kde(subset, bandwidth, grid=full.grid)
            l1[r] = np.trapezoid(np.abs(sub.density - full.density), full.grid)
        rows.append({
            "size": int(size),
            "mean_l1": float(l1.mean()),
            "std_l1": float(l1.std()),
            "resamples": int(resamples),
        })
    return rows
