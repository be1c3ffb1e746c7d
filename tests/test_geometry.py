import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from scenex.errors import GeometryError
from scenex.geometry import Polyline, segment_intersection, wrap_angle
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

    return (st.lists(st.tuples(coord, coord), min_size=2, max_size=8)
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
