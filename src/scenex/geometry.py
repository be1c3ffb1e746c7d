"""Planar polyline geometry: arc length, projection, segment intersection.

Coordinates are meters in a local Cartesian frame, angles are radians
measured counter-clockwise from the +x axis.
"""
from __future__ import annotations

import bisect
import math

from .errors import GeometryError

__all__ = ["Polyline", "segment_intersection", "wrap_angle"]


def wrap_angle(a: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    a = math.fmod(a + math.pi, 2.0 * math.pi)
    if a <= 0.0:
        a += 2.0 * math.pi
    return a - math.pi


def segment_intersection(ax, ay, bx, by, cx, cy, dx, dy):
    """Intersection of segments a-b and c-d.

    Returns (x, y, t, u) with t, u in [0, 1] the normalized positions on the
    two segments, or None. Parallel and collinear-overlapping segments yield
    None: a shared corridor is not a crossing.
    """
    rx, ry = bx - ax, by - ay
    sx, sy = dx - cx, dy - cy
    denom = rx * sy - ry * sx
    if abs(denom) < 1e-12:
        return None
    qpx, qpy = cx - ax, cy - ay
    t = (qpx * sy - qpy * sx) / denom
    u = (qpx * ry - qpy * rx) / denom
    eps = 1e-9
    if -eps <= t <= 1.0 + eps and -eps <= u <= 1.0 + eps:
        t = min(max(t, 0.0), 1.0)
        u = min(max(u, 0.0), 1.0)
        return ax + t * rx, ay + t * ry, t, u
    return None


# Segments per run of `Polyline._runs`. On the 12,500 projections of the
# benchmark's junction run (20-65 segments; 2 vCPU, CPython 3.11) runs of 4
# to 8 took 4.4-5.0 us a call, runs of 12 5.2-5.7 us, and the full scan 11 us.
RUN_SEGMENTS = 6


def _run(rows):
    """(x0, y0, x1, y1, rows): the rows and the box of every closest point
    `_closest` can compute on them. The computed ax + t * dx, 0 <= t <= 1,
    lies between ax and the computed ax + dx, as rounding is monotone."""
    xs = [ax for ax, *_ in rows] + [ax + dx for ax, _, dx, *_ in rows]
    ys = [ay for _, ay, *_ in rows] + [ay + dy for _, ay, _, dy, *_ in rows]
    return min(xs), min(ys), max(xs), max(ys), rows


def _closest(rows, x, y):
    """(d2, row, t, rest) of the row that wins the scan rule of
    `Polyline.project` among `rows`: d2 its squared distance to (x, y), t its
    clamped parameter, and rest the least d2 of the other rows (inf if
    none). The row is None when no d2 is finite."""
    best_d2 = math.inf
    best = None
    best_t = 0.0
    rest = math.inf
    for row in rows:
        ax, ay, dx, dy, _, seg2, _ = row
        t = ((x - ax) * dx + (y - ay) * dy) / seg2
        if t < 0.0:
            t = 0.0
        elif t > 1.0:
            t = 1.0
        ddx = x - (ax + t * dx)
        ddy = y - (ay + t * dy)
        d2 = ddx * ddx + ddy * ddy
        if d2 < best_d2 - 1e-12:
            if best_d2 < rest:
                rest = best_d2
            best_d2 = d2
            best = row
            best_t = t
        elif d2 < rest:
            rest = d2
    return best_d2, best, best_t, rest


class Polyline:
    """Immutable 2D polyline with precomputed cumulative arc length.

    `_segments` holds one row (ax, ay, dx, dy, seg, seg * seg, cum_a) per
    segment from (ax, ay) to (ax + dx, ay + dy), `seg` its length as the
    difference of the cumulative stations and `cum_a` the station of its
    start, so that `project` reads every operand instead of deriving it.
    `_runs` holds the same rows in runs of `RUN_SEGMENTS` consecutive
    segments, each with its box (see `_run`), so that `project` can skip
    the runs too far away to hold the closest segment.
    """

    __slots__ = ("xs", "ys", "cum", "_segments", "_runs")

    def __init__(self, points):
        pts = [(float(x), float(y)) for x, y in points]
        if len(pts) < 2:
            raise GeometryError("polyline needs at least two points")
        xs = [x for x, _ in pts]
        ys = [y for _, y in pts]
        cum = [0.0]
        for i in range(len(pts) - 1):
            cum.append(cum[-1] + math.hypot(xs[i + 1] - xs[i], ys[i + 1] - ys[i]))
        self.xs = xs
        self.ys = ys
        self.cum = cum
        segments = []
        for i in range(len(cum) - 1):
            seg = cum[i + 1] - cum[i]
            seg2 = seg * seg
            # `project` divides by seg2, `point_at` and the lateral by seg
            if not 0.0 < seg2 < math.inf:
                raise GeometryError(
                    f"segment {i}: station step {seg!r} has no finite, non-zero square")
            segments.append((xs[i], ys[i], xs[i + 1] - xs[i], ys[i + 1] - ys[i],
                             seg, seg2, cum[i]))
        self._segments = tuple(segments)
        self._runs = tuple(_run(self._segments[i:i + RUN_SEGMENTS])
                           for i in range(0, len(segments), RUN_SEGMENTS))

    @property
    def length(self) -> float:
        return self.cum[-1]

    @property
    def points(self):
        return list(zip(self.xs, self.ys))

    def _segment_index(self, station: float) -> int:
        i = bisect.bisect_right(self.cum, station) - 1
        return min(max(i, 0), len(self.cum) - 2)

    def point_at(self, station: float, extrapolate: bool = False):
        """Point at the given arc length.

        Stations outside [0, length] are clamped unless `extrapolate`, in
        which case the end tangents are continued as straight rays.
        """
        if not extrapolate:
            station = min(max(station, 0.0), self.length)
        if station < 0.0:
            i = 0
        elif station > self.length:
            i = len(self.cum) - 2
        else:
            i = self._segment_index(station)
        seg = self.cum[i + 1] - self.cum[i]
        t = (station - self.cum[i]) / seg
        x = self.xs[i] + t * (self.xs[i + 1] - self.xs[i])
        y = self.ys[i] + t * (self.ys[i + 1] - self.ys[i])
        return x, y

    def tangent_at(self, station: float) -> float:
        i = self._segment_index(min(max(station, 0.0), self.length))
        return math.atan2(self.ys[i + 1] - self.ys[i], self.xs[i + 1] - self.xs[i])

    def project(self, x: float, y: float):
        """Project a point onto the polyline.

        Returns (station, lateral, distance): station clamped to [0, length],
        lateral the signed perpendicular offset to the matched segment's line
        (left of travel direction positive), distance the Euclidean distance
        to the closest polyline point.

        Segments are scanned in order and a later one wins only when it is
        closer by more than 1e-12 in squared distance, so a point equally
        near two segments takes the first.

        On a polyline of more than one run, the run with the nearest box is
        scanned first, and if any other box lies within its winner's squared
        distance + 2e-12, every run whose box does, in order. The winner of
        the scanned segments, at squared distance U, is the winner of all of
        them, bit for bit, when U < d - 1e-12 (as rounded) for the squared
        distance d of each other scanned segment. The same then holds for
        each unscanned segment: a run's box holds every closest point
        computed on it (see `_run`), so, as rounding is monotone, the box's
        squared distance is at most the segment's; and an unscanned box lies
        beyond the first winner's squared distance + 2e-12, which is at least
        U when the check holds (2e-12 leaves room for the rounding of both
        sums). So every other segment is more than 1e-12 farther than the
        winner: the winner beats whatever best the whole scan holds when it
        reaches it, and no later segment beats it. When the check fails, as
        on a tie within 1e-12 or a NaN or infinite point, every segment is
        scanned.
        """
        runs = self._runs
        if len(runs) == 1:
            best_d2, best, t, _ = _closest(self._segments, x, y)
        else:
            gaps = []  # squared distance to each run's box
            for x0, y0, x1, y1, _ in runs:
                gx = x0 - x if x < x0 else x - x1 if x > x1 else 0.0
                gy = y0 - y if y < y0 else y - y1 if y > y1 else 0.0
                gaps.append(gx * gx + gy * gy)
            near = gaps.index(min(gaps))
            best_d2, best, t, rest = _closest(runs[near][4], x, y)
            limit = best_d2 + 2e-12
            if min(gaps[:near] + gaps[near + 1:]) <= limit:
                best_d2, best, t, rest = _closest(
                    [row for run, gap in zip(runs, gaps) if gap <= limit for row in run[4]],
                    x, y)
            if not best_d2 < rest - 1e-12:
                best_d2, best, t, _ = _closest(self._segments, x, y)
        if best is None:  # no finite distance, e.g. a NaN point
            return 0.0, 0.0, math.inf
        ax, ay, dx, dy, seg, _, cum_a = best
        return (cum_a + t * seg, (dx * (y - ay) - dy * (x - ax)) / seg,
                math.sqrt(best_d2))
