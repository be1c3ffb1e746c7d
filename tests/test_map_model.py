import math

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
    route_centerline,
    save_map,
    select_route,
)
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
    assert path.polyline.length == pytest.approx(100.0)
    assert path.polyline.points == [(0.0, 0.0), (50.0, 0.0), (100.0, 0.0)]


def test_project_onto_path_endpoints(straight_map):
    path = route_centerline(straight_map, ("main",))
    assert path.polyline.project(0.0, 0.0)[:2] == pytest.approx((0.0, 0.0))
    station, lateral = path.polyline.project(50.0, -3.0)[:2]
    assert (station, lateral) == pytest.approx((50.0, -3.0))
    station, _ = path.polyline.project(150.0, 0.0)[:2]
    assert station == pytest.approx(100.0)


def test_path_vertices_have_zero_lateral(t_junction_map):
    routes = enumerate_routes(t_junction_map, "A", horizon=500.0)
    path = route_centerline(t_junction_map, select_route(t_junction_map, routes, 1))
    for x, y in path.polyline.points:
        _, lateral = path.polyline.project(x, y)[:2]
        assert abs(lateral) < 1e-9


def test_path_intersection_perpendicular():
    from scenex.map_model import Path
    from scenex.geometry import Polyline

    a = Path(Polyline([(-20, 0), (30, 0)]))
    b = Path(Polyline([(0, -20), (0, 30)]))
    hit = path_intersection(a, b)
    assert hit is not None
    point, sa, sb = hit
    assert point == pytest.approx((0.0, 0.0))
    assert (sa, sb) == pytest.approx((20.0, 20.0))


def test_path_intersection_symmetry():
    from scenex.map_model import Path
    from scenex.geometry import Polyline

    a = Path(Polyline([(-20, 1), (30, -2), (40, 5)]))
    b = Path(Polyline([(3, -20), (-1, 30)]))
    ab = path_intersection(a, b)
    ba = path_intersection(b, a)
    assert ab is not None and ba is not None
    assert ab[0] == pytest.approx(ba[0], abs=1e-9)
    assert ab[1] == pytest.approx(ba[2], abs=1e-9)
    assert ab[2] == pytest.approx(ba[1], abs=1e-9)


def test_path_intersection_parallel_none():
    from scenex.map_model import Path
    from scenex.geometry import Polyline

    a = Path(Polyline([(0, 0), (100, 0)]))
    b = Path(Polyline([(0, 3), (100, 3)]))
    assert path_intersection(a, b) is None


def test_path_intersection_identical_overlap_none():
    from scenex.map_model import Path
    from scenex.geometry import Polyline

    a = Path(Polyline([(0, 0), (100, 0)]))
    b = Path(Polyline([(0, 0), (100, 0)]))
    assert path_intersection(a, b) is None


def test_path_for_pose_end_to_end(t_junction_map):
    path = path_for_pose(t_junction_map, 10.0, 0.5, 0.0)
    assert path.source_route == ("A", "B")
    assert path.polyline.length == pytest.approx(150.0)


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
