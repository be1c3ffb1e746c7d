import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perfbench import junction
from scenex.errors import GeometryError, MapFormatError, OffMapError, RouteSelectionError
from scenex.geometry import Polyline
from scenex.map_model import (
    DEFAULT_MATCH_DISTANCE,
    Lane,
    MapGraph,
    enumerate_routes,
    load_map,
    match_to_lane,
    path_for_pose,
    path_intersection,
    project_state,
    route_centerline,
    save_map,
    select_route,
)
from scenex.scene_io import ParticipantState
from tests import oracles
from tests.oracles import bits

TWO_LANE_MAP = """\
format: scenex-map
version: 1
lanes:
  - id: left
    points: [[0, 0], [100, 0]]
  - id: right
    points: [[0, -3.5], [100, -3.5]]
"""


def test_load_two_lane_map(tmp_path):
    p = tmp_path / "map.yaml"
    p.write_text(TWO_LANE_MAP)
    graph = load_map(p)
    assert len(graph) == 2
    assert all(not graph.lane(lid).successors for lid in graph.lane_ids)


def test_load_map_t_junction_out_degree(tmp_path):
    p = tmp_path / "map.yaml"
    p.write_text(
        "format: scenex-map\nversion: 1\nlanes:\n"
        "  - {id: A, points: [[0, 0], [50, 0]], successors: [B, C]}\n"
        "  - {id: B, points: [[50, 0], [150, 0]]}\n"
        "  - {id: C, points: [[50, 0], [60, 10]]}\n"
    )
    graph = load_map(p)
    assert len(graph.lane("A").successors) == 2


def test_load_map_dangling_successor(tmp_path):
    p = tmp_path / "map.yaml"
    p.write_text(
        "format: scenex-map\nversion: 1\nlanes:\n"
        "  - {id: A, points: [[0, 0], [50, 0]], successors: [ghost]}\n"
    )
    with pytest.raises(MapFormatError, match="dangling successor"):
        load_map(p)


def test_load_map_degenerate_centerline(tmp_path):
    p = tmp_path / "map.yaml"
    p.write_text(
        "format: scenex-map\nversion: 1\nlanes:\n"
        "  - {id: A, points: [[0, 0], [0, 0]]}\n"
    )
    with pytest.raises(MapFormatError, match="centerline"):
        load_map(p)


def test_load_map_bad_header(tmp_path):
    p = tmp_path / "map.yaml"
    p.write_text("format: something-else\nversion: 1\nlanes: []\n")
    with pytest.raises(MapFormatError, match="format"):
        load_map(p)


@pytest.mark.parametrize("lane, message", [
    ("{id: A, points: [[0, 0], [50, 0]], sucessors: [A]}",
     "lane 'A': unknown field(s) ['sucessors']"),
    ("{id: A, points: [[0, 0], [50, 0]], width: '3.5'}", "lane 'A': field 'width'"),
    ("{id: A, points: [[0, 0], [50, 0]], successors: [[B]]}",
     "lane 'A': field 'successors'"),
    ("{id: [A], points: [[0, 0], [50, 0]]}", "lane \"['A']\": field 'id'"),
    ("{points: [[0, 0], [50, 0]]}", "lanes[0]: missing required field 'id'"),
    ("7", "lanes[0]: expected a mapping"),
], ids=["sucessors", "width-string", "successor-list", "id-list", "no-id", "not-a-mapping"])
def test_load_map_checks_lane_fields(tmp_path, lane, message):
    p = tmp_path / "map.yaml"
    p.write_text(f"format: scenex-map\nversion: 1\nlanes:\n  - {lane}\n")
    with pytest.raises(MapFormatError, match=re.escape("map.yaml: " + message)):
        load_map(p)


def test_load_map_ids_are_strings(tmp_path):
    p = tmp_path / "map.yaml"
    p.write_text("format: scenex-map\nversion: 1\nlanes:\n"
                 "  - {id: 7, points: [[0, 0], [50, 0]], successors: [8], width: 3}\n"
                 "  - {id: 8, points: [[50, 0], [90, 0]]}\n")
    graph = load_map(p)
    assert graph.lane_ids == ["7", "8"]
    assert graph.lane("7").successors == ("8",)
    assert type(graph.lane("7").width) is float


def test_save_load_round_trip(tmp_path, t_junction_map):
    p = tmp_path / "map.yaml"
    save_map(t_junction_map, p)
    again = load_map(p)
    assert again.lane_ids == t_junction_map.lane_ids
    for lid in again.lane_ids:
        assert again.lane(lid).polyline.points == t_junction_map.lane(lid).polyline.points
        assert again.lane(lid).successors == t_junction_map.lane(lid).successors


def test_match_on_vertex(straight_map):
    lane_id, station, lateral = match_to_lane(straight_map, 0.0, 0.0, 0.0)
    assert lane_id == "main"
    assert station == pytest.approx(0.0)
    assert lateral == pytest.approx(0.0)


def test_match_lateral_offset_sign(straight_map):
    _, station, lateral = match_to_lane(straight_map, 40.0, 1.5, 0.0)
    assert station == pytest.approx(40.0)
    assert lateral == pytest.approx(1.5)


def test_match_off_map(straight_map):
    with pytest.raises(OffMapError):
        match_to_lane(straight_map, 50.0, 50.0, 0.0)


def test_match_rejects_opposing_heading(straight_map):
    with pytest.raises(OffMapError):
        match_to_lane(straight_map, 50.0, 0.0, math.pi)


def test_enumerate_single_lane_truncated(straight_map):
    routes = enumerate_routes(straight_map, "main", horizon=200.0)
    assert len(routes) == 1
    assert routes[0] == ("main",)


def test_enumerate_one_branch(t_junction_map):
    routes = enumerate_routes(t_junction_map, "A", horizon=500.0)
    assert routes == [("A", "B"), ("A", "C")]


def test_enumerate_two_binary_branches(double_branch_map):
    routes = enumerate_routes(double_branch_map, "A", horizon=1000.0)
    # oracle: brute-force leaf expansion of the successor tree
    def expand(lane_id):
        succ = double_branch_map.lane(lane_id).successors
        if not succ:
            return [(lane_id,)]
        return [(lane_id,) + tail for s in sorted(succ) for tail in expand(s)]

    assert routes == sorted(expand("A"))
    assert len(routes) == 4


def test_enumerate_storage_order_invariance(double_branch_map):
    from scenex.map_model import MapGraph

    lanes = list(double_branch_map.lanes.values())
    shuffled = MapGraph(list(reversed(lanes)))
    a = enumerate_routes(double_branch_map, "A", 1000.0)
    b = enumerate_routes(shuffled, "A", 1000.0)
    assert a == b


def test_enumerate_horizon_stops_expansion(t_junction_map):
    routes = enumerate_routes(t_junction_map, "A", horizon=10.0)
    assert routes == [("A",)]


def test_enumerate_forbids_revisit():
    from tests.conftest import lane
    from scenex.map_model import MapGraph

    cyclic = MapGraph([
        lane("A", [(0, 0), (10, 0)], successors=("B",)),
        lane("B", [(10, 0), (10, 10), (0, 10), (0, 0)], successors=("A",)),
    ])
    routes = enumerate_routes(cyclic, "A", horizon=10_000.0)
    assert routes == [("A", "B")]


def test_select_route_straightest(t_junction_map):
    routes = enumerate_routes(t_junction_map, "A", horizon=500.0)
    chosen = select_route(t_junction_map, routes, "straightest")
    assert chosen == ("A", "B")


def test_select_route_measures_from_lane_start_tangent():
    from tests.conftest import lane
    from scenex.map_model import MapGraph

    # A runs north; B goes on north, C turns right (east)
    graph = MapGraph([
        lane("A", [(0, 0), (0, 50)], successors=("B", "C")),
        lane("B", [(0, 50), (0, 150)]),
        lane("C", [(0, 50), (100, 50)]),
    ])
    routes = enumerate_routes(graph, "A", horizon=500.0)
    assert select_route(graph, routes, "straightest") == ("A", "B")
    assert select_route(graph, routes, 0) == ("A", "C")
    assert select_route(graph, routes, 1) == ("A", "B")


def test_select_route_by_sorted_index(t_junction_map):
    routes = enumerate_routes(t_junction_map, "A", horizon=500.0)
    # index 0 is the most negative (rightmost) signed angle; B is straight
    # east, C bends north (positive angle), so index 0 is B here
    chosen = select_route(t_junction_map, routes, 0)
    assert chosen == ("A", "B")
    chosen = select_route(t_junction_map, routes, 1)
    assert chosen == ("A", "C")


def test_select_route_index_out_of_range(t_junction_map):
    routes = enumerate_routes(t_junction_map, "A", horizon=500.0)
    with pytest.raises(RouteSelectionError):
        select_route(t_junction_map, routes, 7)


def test_select_route_tie_break_lexicographic():
    from tests.conftest import lane
    from scenex.map_model import MapGraph

    graph = MapGraph([
        lane("A", [(0, 0), (10, 0)], successors=("X", "Y")),
        lane("X", [(10, 0), (50, 0)]),
        lane("Y", [(10, 0), (30, 5), (50, 0)]),
    ])
    routes = enumerate_routes(graph, "A", horizon=500.0)
    chosen = select_route(graph, routes, "straightest")
    assert chosen == ("A", "X")


def test_select_route_is_pure(t_junction_map):
    routes = enumerate_routes(t_junction_map, "A", horizon=500.0)
    first = select_route(t_junction_map, routes, "straightest")
    second = select_route(t_junction_map, routes, "straightest")
    assert first == second


def test_route_centerline_concatenation_dedupes_junction():
    from tests.conftest import lane
    from scenex.map_model import MapGraph

    graph = MapGraph([
        lane("A", [(0, 0), (50, 0)], successors=("B",)),
        lane("B", [(50, 0), (100, 0)]),
    ])
    path = route_centerline(graph, ("A", "B"))
    assert path.length == pytest.approx(100.0)
    assert path.points == [(0.0, 0.0), (50.0, 0.0), (100.0, 0.0)]


def test_project_onto_path_endpoints(straight_map):
    path = route_centerline(straight_map, ("main",))
    assert path.project(0.0, 0.0)[:2] == pytest.approx((0.0, 0.0))
    station, lateral = path.project(50.0, -3.0)[:2]
    assert (station, lateral) == pytest.approx((50.0, -3.0))
    station, _ = path.project(150.0, 0.0)[:2]
    assert station == pytest.approx(100.0)


def test_project_state_projects_each_path_and_exact_state_once(monkeypatch):
    calls = []
    project = Polyline.project
    monkeypatch.setattr(Polyline, "project",
                        lambda self, x, y: calls.append((self, x, y)) or project(self, x, y))
    path = Polyline([(0.0, 0.0), (10.0, 0.0)])
    other = Polyline([(0.0, 0.0), (0.0, 10.0)])
    state = ParticipantState(1, "car", 3.0, 0.0, 0.0, 1.0, 0.0)
    memo = {"projections": {}}
    first = project_state(memo, path, state)
    assert first == project(path, 3.0, 0.0)
    # an equal state, another object: the stored result, no new projection
    twin = ParticipantState(1, "car", 3.0, 0.0, 0.0, 1.0, 0.0)
    assert project_state(memo, path, twin) is first
    assert len(calls) == 1
    # -0.0 is another exact state than 0.0, and another path another entry
    signed = ParticipantState(1, "car", 3.0, -0.0, 0.0, 1.0, 0.0)
    project_state(memo, path, signed)
    project_state(memo, other, state)
    assert [(p, x, bits(y)) for p, x, y in calls] == [
        (path, 3.0, bits(0.0)), (path, 3.0, bits(-0.0)), (other, 3.0, bits(0.0))]
    assert set(memo["projections"][path]) == {state.key, signed.key}
    assert project_state(memo, path, signed) is memo["projections"][path][signed.key]
    assert len(calls) == 3


def test_path_vertices_have_zero_lateral(t_junction_map):
    routes = enumerate_routes(t_junction_map, "A", horizon=500.0)
    path = route_centerline(t_junction_map, select_route(t_junction_map, routes, 1))
    for x, y in path.points:
        _, lateral = path.project(x, y)[:2]
        assert abs(lateral) < 1e-9


def test_path_intersection_perpendicular():
    from scenex.geometry import Polyline

    a = Polyline([(-20, 0), (30, 0)])
    b = Polyline([(0, -20), (0, 30)])
    hit = path_intersection(a, b)
    assert hit is not None
    point, sa, sb = hit
    assert point == pytest.approx((0.0, 0.0))
    assert (sa, sb) == pytest.approx((20.0, 20.0))


def test_path_intersection_symmetry():
    from scenex.geometry import Polyline

    a = Polyline([(-20, 1), (30, -2), (40, 5)])
    b = Polyline([(3, -20), (-1, 30)])
    ab = path_intersection(a, b)
    ba = path_intersection(b, a)
    assert ab is not None and ba is not None
    assert ab[0] == pytest.approx(ba[0], abs=1e-9)
    assert ab[1] == pytest.approx(ba[2], abs=1e-9)
    assert ab[2] == pytest.approx(ba[1], abs=1e-9)


def test_path_intersection_parallel_none():
    from scenex.geometry import Polyline

    a = Polyline([(0, 0), (100, 0)])
    b = Polyline([(0, 3), (100, 3)])
    assert path_intersection(a, b) is None


def test_path_intersection_identical_overlap_none():
    from scenex.geometry import Polyline

    a = Polyline([(0, 0), (100, 0)])
    b = Polyline([(0, 0), (100, 0)])
    assert path_intersection(a, b) is None


class TestPathIntersectionPruning:
    """`path_intersection` skips segment pairs whose grown bounding boxes are
    disjoint; it must return what intersecting every pair returns, bit for
    bit."""

    @pytest.mark.parametrize("a, b", [
        # crossing at a vertex of both paths
        ([(0, 0), (10, 10), (20, 0)], [(0, 20), (10, 10), (20, 20)]),
        # crossing at a vertex of one path
        ([(0, 0), (10, 0), (20, 0)], [(10, -5), (10, 5)]),
        # one path ends on the other
        ([(0, 0), (10, 0)], [(10, -5), (10, 5)]),
        ([(0, 0), (10, 0)], [(5, 0), (5, 5)]),
        # endpoint to endpoint, at an angle and straight on
        ([(0, 0), (10, 0)], [(10, 0), (20, 7)]),
        ([(0, 0), (10, 0)], [(10, 0), (20, 0)]),
        # collinear overlap, then a crossing
        ([(0, 0), (10, 0), (20, 5)], [(5, 0), (15, 0), (15, -5)]),
        ([(0, 0), (10, 0)], [(5, 0), (15, 0)]),
        # a hit just past a segment end, inside the 1e-9 parametric tolerance
        ([(0, 0), (10, 0)], [(10 + 5e-9, -5), (10 + 5e-9, 5)]),
        ([(0, 0), (1000, 0)], [(1000 + 5e-7, -5), (1000 + 5e-7, 5)]),
        # and just outside it
        ([(0, 0), (10, 0)], [(10 + 5e-7, -5), (10 + 5e-7, 5)]),
        # a path that comes back across the other
        ([(0, 0), (30, 0)], [(5, 5), (10, -5), (20, 5), (25, -5)]),
    ])
    def test_hand_made(self, a, b):
        pa, pb = Polyline(a), Polyline(b)
        for p, q in ((pa, pb), (pb, pa)):
            assert bits(path_intersection(p, q)) == bits(oracles.path_intersection(p, q))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_random_polylines(self, data):
        # vertices on a coarse grid meet, touch and overlap often; scaled,
        # offset and nudged copies leave the grid
        grid = st.tuples(st.integers(-4, 4), st.integers(-4, 4))

        def polyline():
            points = data.draw(st.lists(grid, min_size=2, max_size=6))
            scale = data.draw(st.sampled_from([1.0, 0.1, 7.3, 250.0]))
            offset = data.draw(st.sampled_from([0.0, 1e3, -3.7e4]))
            nudge = data.draw(st.sampled_from([0.0, 1e-10, 3e-7, 0.3]))
            pts = []
            for k, (x, y) in enumerate(points):
                pt = (x * scale + offset + nudge * (k % 2), y * scale + offset)
                if not pts or pt != pts[-1]:
                    pts.append(pt)
            try:
                return Polyline(pts)
            except GeometryError:
                return None

        pa, pb = polyline(), polyline()
        if pa is None or pb is None:
            return
        assert bits(path_intersection(pa, pb)) == bits(oracles.path_intersection(pa, pb))

    def test_junction_routes(self, junction_scene):
        graph, _ = junction_scene
        paths = {graph.lane_path(lane_id, selector)
                 for lane_id in graph.lane_ids for selector in ("straightest", 0, 1)
                 if selector == "straightest" or selector < len(
                     enumerate_routes(graph, lane_id))}
        paths = sorted(paths, key=lambda p: p.points)
        hits = 0
        for pa in paths:
            for pb in paths:
                got = path_intersection(pa, pb)
                assert bits(got) == bits(oracles.path_intersection(pa, pb))
                hits += got is not None
        assert hits > 0


def test_path_for_pose_end_to_end(t_junction_map):
    path = path_for_pose(t_junction_map, 10.0, 0.5, 0.0)
    assert path.points == route_centerline(t_junction_map, ("A", "B")).points
    assert path.length == pytest.approx(150.0)


def test_one_polyline_per_route(t_junction_map):
    # on lane A, selector 0 is the straight route onto B, 1 the turn onto C
    straightest = t_junction_map.lane_path("A")
    assert t_junction_map.lane_path("A", 0) is straightest
    assert t_junction_map.lane_path("A", 1) is not straightest
    assert path_for_pose(t_junction_map, 10.0, 0.5, 0.0, 0) is straightest


# -- box-pruned lane matching against the unpruned match of tests/oracles.py --

def match_outcome(fn, graph, x, y, yaw, max_distance):
    try:
        return bits(fn(graph, x, y, yaw, max_distance))
    except OffMapError:
        return OffMapError


def same_match(graph, x, y, yaw, max_distance=DEFAULT_MATCH_DISTANCE):
    got = match_outcome(match_to_lane, graph, x, y, yaw, max_distance)
    assert got == match_outcome(oracles.match_to_lane, graph, x, y, yaw, max_distance)
    return got


centimetres = st.integers(-10_000, 10_000).map(lambda i: i / 100.0)
match_distances = st.sampled_from([DEFAULT_MATCH_DISTANCE, 0.5, 3.0, 25.0])
# distances from a lane or its bounding box, around the match distance
EDGE_OFFSETS = (-1e-6, -1e-9, -1e-12, 0.0, 1e-12, 1e-9, 1e-6, 2e-6)


@st.composite
def lane_maps(draw):
    lanes = []
    for k in range(draw(st.integers(1, 6))):
        points = draw(st.lists(st.tuples(centimetres, centimetres),
                               min_size=2, max_size=6))
        try:
            lanes.append(Lane(f"L{k}", Polyline(points), 3.5, ()))
        except GeometryError:
            continue
    if not lanes:
        lanes.append(Lane("L", Polyline([(0.0, 0.0), (10.0, 0.0)]), 3.5, ()))
    return MapGraph(lanes)


@settings(max_examples=200, deadline=None)
@given(lane_maps(), centimetres, centimetres,
       st.floats(-2 * math.pi, 2 * math.pi), match_distances)
def test_match_matches_oracle_random(graph, x, y, yaw, max_distance):
    same_match(graph, x, y, yaw, max_distance)


@settings(max_examples=200, deadline=None)
@given(lane_maps(), st.data(), match_distances, st.sampled_from(EDGE_OFFSETS))
def test_match_matches_oracle_at_the_match_distance(graph, data, max_distance,
                                                    offset):
    """Poses `max_distance` (give or take a rounding) from a point of a lane,
    or from an edge or a corner of its bounding box, at any heading."""
    lane = graph.lane(data.draw(st.sampled_from(graph.lane_ids)))
    pl = lane.polyline
    reach = max_distance + offset
    if data.draw(st.booleans()):
        bx, by = pl.point_at(data.draw(st.floats(0.0, pl.length)))
        a = data.draw(st.floats(-math.pi, math.pi))
        x, y = bx + reach * math.cos(a), by + reach * math.sin(a)
    else:
        x0, x1, y0, y1 = min(pl.xs), max(pl.xs), min(pl.ys), max(pl.ys)
        x = data.draw(st.sampled_from([x0 - reach, x1 + reach, x0, x1]))
        y = data.draw(st.sampled_from([y0 - reach, y1 + reach, y0, y1]))
    yaw = data.draw(st.floats(-math.pi, math.pi))
    same_match(graph, x, y, yaw, max_distance)


@settings(max_examples=200, deadline=None)
@given(lane_maps(), st.data())
def test_match_matches_oracle_with_reversed_yaw(graph, data):
    lane = graph.lane(data.draw(st.sampled_from(graph.lane_ids)))
    station = data.draw(st.floats(0.0, lane.polyline.length))
    x, y = lane.polyline.point_at(station)
    yaw = lane.polyline.tangent_at(station)
    for turn in (0.0, math.pi, -math.pi, math.pi / 2, -math.pi / 2):
        same_match(graph, x, y, yaw + turn)


def test_match_at_exactly_the_match_distance(straight_map):
    assert match_to_lane(straight_map, 40.0, 10.0, 0.0) == ("main", 40.0, 10.0)
    assert same_match(straight_map, 110.0, 0.0, 0.0) == ("main", "0x1.9000000000000p+6",
                                                         "0x0.0p+0")
    for x, y in ((40.0, 10.000001), (110.000001, 0.0), (-10.000001, 0.0)):
        assert same_match(straight_map, x, y, 0.0) is OffMapError


def test_lane_ids_sorted_copy(t_junction_map):
    ids = t_junction_map.lane_ids
    ids.append("Z")
    assert t_junction_map.lane_ids == ["A", "B", "C"]


def test_match_matches_oracle_on_the_junction_map(junction_scene):
    graph, frames = junction_scene
    states = [s for f in frames for s in f.states]
    assert len(states) == junction.N_FRAMES * 8
    matched = 0
    for s in states:
        for dx, dy, turn in ((0.0, 0.0, 0.0), (0.0, 0.0, math.pi),
                             (3.0, -2.0, 0.0), (0.0, 9.5, math.pi / 2)):
            if same_match(graph, s.x + dx, s.y + dy, s.yaw + turn) is not OffMapError:
                matched += 1
    assert matched > len(states)


@settings(max_examples=300, deadline=None)
@given(st.floats(-130.0, 130.0), st.floats(-130.0, 130.0),
       st.floats(-math.pi, math.pi), match_distances)
def test_match_matches_oracle_anywhere_on_the_junction_map(junction_scene, x, y,
                                                          yaw, max_distance):
    same_match(junction_scene[0], x, y, yaw, max_distance)
