import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from scenex import geometry
from scenex.errors import GeometryError
from scenex.geometry import RUN_SEGMENTS, Polyline, segment_intersection, wrap_angle
from tests import oracles
from tests.oracles import bits


def test_wrap_angle_range():
    for a in [-10.0, -math.pi, 0.0, 1.0, math.pi, 7.5, 100.0]:
        w = wrap_angle(a)
        assert -math.pi < w <= math.pi
        assert math.isclose(math.sin(w), math.sin(a), abs_tol=1e-12)
        assert math.isclose(math.cos(w), math.cos(a), abs_tol=1e-12)


def test_polyline_requires_two_points():
    with pytest.raises(GeometryError):
        Polyline([(0, 0)])


def test_polyline_rejects_duplicate_points():
    with pytest.raises(GeometryError):
        Polyline([(0, 0), (0, 0), (1, 0)])


@pytest.mark.parametrize("points", [
    [(0, 0), (100, 0), (100, 1e-20)],  # the station step rounds to 0
    [(0, 0), (1e-170, 0)],  # the step's square underflows to 0
])
def test_polyline_rejects_a_step_it_cannot_divide_by(points):
    with pytest.raises(GeometryError, match="segment .: station step"):
        Polyline(points)


def test_cumulative_stations():
    pl = Polyline([(0, 0), (3, 4), (3, 14)])
    assert pl.cum == [0.0, 5.0, 15.0]
    assert pl.length == 15.0


def test_point_at_and_extrapolation():
    pl = Polyline([(0, 0), (10, 0)])
    assert pl.point_at(5.0) == (5.0, 0.0)
    assert pl.point_at(20.0) == (10.0, 0.0)  # clamped
    assert pl.point_at(20.0, extrapolate=True) == (20.0, 0.0)
    x, y = pl.point_at(-5.0, extrapolate=True)
    assert (x, y) == (-5.0, 0.0)


def test_project_signed_lateral():
    pl = Polyline([(0, 0), (100, 0)])
    station, lateral, dist = pl.project(50.0, 1.5)
    assert station == pytest.approx(50.0)
    assert lateral == pytest.approx(1.5)  # left of travel is positive
    station, lateral, dist = pl.project(50.0, -3.0)
    assert lateral == pytest.approx(-3.0)
    assert dist == pytest.approx(3.0)


def test_project_clamps_beyond_ends():
    pl = Polyline([(0, 0), (100, 0)])
    station, _, dist = pl.project(120.0, 0.0)
    assert station == pytest.approx(100.0)
    assert dist == pytest.approx(20.0)


def test_segment_intersection_crossing():
    hit = segment_intersection(-1, 0, 1, 0, 0, -1, 0, 1)
    assert hit is not None
    x, y, t, u = hit
    assert (x, y) == pytest.approx((0.0, 0.0))
    assert t == pytest.approx(0.5)
    assert u == pytest.approx(0.5)


def test_segment_intersection_parallel_and_collinear():
    assert segment_intersection(0, 0, 1, 0, 0, 1, 1, 1) is None
    assert segment_intersection(0, 0, 2, 0, 1, 0, 3, 0) is None


def test_segment_intersection_disjoint():
    assert segment_intersection(0, 0, 1, 0, 2, -1, 2, 1) is None


# -- projection kernel against the plain segment loop of tests/oracles.py --

coords = st.floats(-500.0, 500.0, allow_nan=False)
grid = st.integers(-20, 20).map(float)
centimetres = st.integers(-50_000, 50_000).map(lambda i: i / 100.0)


def polylines(coord):
    def build(points):
        try:
            return Polyline(points)
        except GeometryError:
            return None

    # up to 33 runs of segments, so that a drawn polyline often has several
    return (st.lists(st.tuples(coord, coord), min_size=2, max_size=200)
            .map(build).filter(lambda pl: pl is not None))


def outcome(fn, *args):
    """The exact result of a call, or the class of what it raised (segments
    shorter than about 1e-154 m square to 0 and fail in both versions)."""
    try:
        return bits(fn(*args))
    except ArithmeticError as exc:
        return type(exc)


def same_projection(pl, x, y):
    assert outcome(pl.project, x, y) == outcome(oracles.project, pl, x, y)


@settings(max_examples=300, deadline=None)
@given(polylines(coords), coords, coords)
def test_project_matches_oracle_random(pl, x, y):
    same_projection(pl, x, y)


@settings(max_examples=300, deadline=None)
@given(polylines(grid), st.data())
def test_project_matches_oracle_on_vertices(pl, data):
    i = data.draw(st.integers(0, len(pl.xs) - 1))
    ox = data.draw(st.sampled_from([0.0, -0.0, 1e-9, -1e-7, 0.5, -3.0]))
    oy = data.draw(st.sampled_from([0.0, -0.0, 1e-9, -1e-7, 0.5, -3.0]))
    same_projection(pl, pl.xs[i] + ox, pl.ys[i] + oy)


@settings(max_examples=300, deadline=None)
@given(polylines(centimetres), st.data())
def test_project_matches_oracle_outside_corners(pl, data):
    """Points past a bend, where both segments clamp to the shared vertex
    and only the 1e-12 tie rule picks the segment (and so the lateral)."""
    assume(len(pl.xs) >= 3)
    i = data.draw(st.integers(1, len(pl.xs) - 2))
    u1 = ((pl.xs[i] - pl.xs[i - 1]) / (pl.cum[i] - pl.cum[i - 1]),
          (pl.ys[i] - pl.ys[i - 1]) / (pl.cum[i] - pl.cum[i - 1]))
    u2 = ((pl.xs[i + 1] - pl.xs[i]) / (pl.cum[i + 1] - pl.cum[i]),
          (pl.ys[i + 1] - pl.ys[i]) / (pl.cum[i + 1] - pl.cum[i]))
    r = data.draw(st.floats(1e-6, 50.0))
    same_projection(pl, pl.xs[i] + r * (u1[0] - u2[0]), pl.ys[i] + r * (u1[1] - u2[1]))


def test_project_outside_corner_takes_the_first_segment():
    # (5, 5) is 5 m from the vertex (5, 0) of both segments; the first wins
    pl = Polyline([(0.0, 0.0), (5.0, 0.0), (5.0, -10.0)])
    station, lateral, dist = pl.project(8.0, 4.0)
    assert (station, lateral, dist) == (5.0, 4.0, 5.0)
    same_projection(pl, 8.0, 4.0)


def test_project_of_a_nan_point_matches_oracle():
    pl = Polyline([(0.0, 0.0), (5.0, 0.0), (5.0, -10.0)])
    assert pl.project(math.nan, 1.0) == (0.0, 0.0, math.inf)
    same_projection(pl, math.nan, 1.0)


@settings(max_examples=200, deadline=None)
@given(polylines(centimetres))
def test_run_box_holds_every_computed_closest_point(pl):
    """A computed closest point lies between a segment's start and its
    computed end ax + 1.0 * dx, so the run's box must hold both."""
    assert [row for run in pl._runs for row in run[4]] == list(pl._segments)
    for x0, y0, x1, y1, rows in pl._runs:
        for ax, ay, dx, dy, *_ in rows:
            for t in (0.0, 1.0):
                assert x0 <= ax + t * dx <= x1 and y0 <= ay + t * dy <= y1


@settings(max_examples=200, deadline=None)
@given(polylines(centimetres), st.data())
def test_run_box_distance_never_exceeds_a_segment_distance(pl, data):
    """`project` skips a run only on this bound: the squared distance to the
    box of a run is at most the computed squared distance of each segment."""
    i = data.draw(st.integers(0, len(pl.xs) - 1))
    x = pl.xs[i] + data.draw(st.sampled_from([0.0, 1e-9, -1e-7, 0.5, -3.0, 40.0]))
    y = pl.ys[i] + data.draw(st.sampled_from([0.0, -1e-9, 1e-7, -0.5, 3.0, -40.0]))
    for x0, y0, x1, y1, rows in pl._runs:
        gx = x0 - x if x < x0 else x - x1 if x > x1 else 0.0
        gy = y0 - y if y < y0 else y - y1 if y > y1 else 0.0
        for row in rows:
            assert gx * gx + gy * gy <= geometry._closest([row], x, y)[0]


# -- fixed shapes where several runs of segments are (nearly) equally near --

R = RUN_SEGMENTS


def hooked_corner():
    """A run of R segments east along y = 0, then a run that turns south at
    (R, 0) and hooks back north: the second run's box holds the points just
    north-east of the shared vertex, where both runs' segments are nearest
    at that vertex."""
    return ([(float(i), 0.0) for i in range(R + 1)]
            + [(R, -3.0), (R + 6.0, -3.0), (R + 6.0, 3.0)])


def circle(n, radius):
    return [(radius * math.cos(2 * math.pi * i / n), radius * math.sin(2 * math.pi * i / n))
            for i in range(n + 1)]


def star(n, step=0.0):
    """A zig-zag between radius 1 and 2 about the origin. Every segment is
    nearest the origin at its inner vertex; the inner vertex k lies at
    squared radius 1 + (n - 1 - k) * step, so each segment is at most `step`
    nearer than the one before it."""
    points = []
    for k in range(n):
        a = 2 * math.pi * k / n
        r = math.sqrt(1.0 + (n - 1 - k) * step)
        points += [(r * math.cos(a), r * math.sin(a)),
                   (2.0 * math.cos(a + math.pi / n), 2.0 * math.sin(a + math.pi / n))]
    return points


def polar(radius, degrees):
    return radius * math.cos(math.radians(degrees)), radius * math.sin(math.radians(degrees))


def staircase_after_a_run():
    """Three runs: the first nearest the origin at (r, 0), r * r = 1 + 2.7e-12,
    in its segments and in its box; the second far from it; the third a
    zig-zag whose inner vertices lie at squared radii 1 + 1.8e-12, 1 + 0.9e-12
    and 1, in that order. The whole scan takes (r, 0), then the vertex at
    1 + 0.9e-12, which is 1.8e-12 nearer; a scan without the first run would
    end on the vertex at 1."""
    first = [(3.0, 1.0), (math.sqrt(1.0 + 2.7e-12), 0.0)] + [
        (3.0, -1.0 - k) for k in range(R - 1)]
    (ax, ay), (bx, by) = (-10.0, -2.0), polar(2.0, 220.0)
    second = [(3.0, -R - 5.0), (-10.0, -R - 5.0)] + [
        (ax + (bx - ax) * k / (R - 3), ay + (by - ay) * k / (R - 3)) for k in range(R - 2)]
    zig = [polar(math.sqrt(1.0 + 1.8e-12), 200.0), polar(2.0, 190.0),
           polar(math.sqrt(1.0 + 0.9e-12), 180.0), polar(2.0, 170.0), polar(1.0, 160.0)]
    return first + second + zig


def shifted(points, d):
    return [(x + d, y + d) for x, y in points]


SHAPES = {
    "hooked-corner": (hooked_corner(), [(R, 0.0), (R + 0.5, 0.5), (R + 1e-9, 1e-9),
                                        (R + 2.0, 1.0), (R - 0.5, 0.5)]),
    "circle-600": (circle(600, 10.0), [(0.0, 0.0), (1e-9, -1e-9), (3.0, 4.0)]),
    "circle-600-wide": (circle(600, 1000.0), [(0.0, 0.0), (1e-6, 0.0)]),
    "staircase-after-a-run": (staircase_after_a_run(), [(0.0, 0.0)]),
    "zig-zag": (star(40), [(0.0, 0.0), (1e-13, 0.0), (0.0, -2e-13)]),
    # steps of 0.9e-12: a chain of near-ties that climbs 35e-12 above the least
    "zig-zag-staircase": (star(40, 0.9e-12), [(0.0, 0.0), (1e-13, 0.0)]),
}


@pytest.mark.parametrize("offset", [0.0, 1e6], ids=["at-origin", "offset-1e6"])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_project_matches_oracle_where_runs_tie(shape, offset):
    points, queries = SHAPES[shape]
    pl = Polyline(shifted(points, offset))
    assert len(pl._runs) > 1
    for x, y in queries:
        same_projection(pl, x + offset, y + offset)


def test_tie_at_a_shared_vertex_takes_the_earlier_run():
    # (R + 0.5, 0.5) is in the second run's box, and as near to the last
    # segment of the first run as to the first of the second: the first wins
    pl = Polyline(hooked_corner())
    assert pl.project(R + 0.5, 0.5) == (float(R), 0.5, math.sqrt(0.5))


def test_staircase_of_near_ties_is_won_short_of_the_least():
    # each inner vertex is 0.9e-12 nearer in squared distance than the one
    # before: a segment wins on every second vertex, the last on vertex 38,
    # which its first segment (F37 to N38, index 75) reaches at its end
    pl = Polyline(star(40, 0.9e-12))
    station, _, dist = pl.project(0.0, 0.0)
    assert station == pl.cum[76]
    assert dist > 1.0 + 4e-13  # not vertex 39, at squared radius 1


@pytest.mark.parametrize("x, y", [
    (math.nan, 0.0), (0.0, math.nan), (math.nan, math.nan), (math.inf, 0.0),
    (0.0, -math.inf), (math.inf, math.inf), (1e308, -1e308)])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_project_at_no_finite_distance_matches_oracle(shape, x, y):
    # a NaN or infinite point, or one whose squared distance overflows
    pl = Polyline(SHAPES[shape][0])
    assert pl.project(x, y) == (0.0, 0.0, math.inf)
    same_projection(pl, x, y)
