"""Lane-graph road map: loading, matching, routing, and path queries.

The canonical map format is a YAML document with a versioned header::

    format: scenex-map
    version: 1
    lanes:
      - id: A
        width: 3.5
        points: [[0.0, 0.0], [100.0, 0.0]]
        successors: [B]

Coordinates are meters in a local Cartesian frame. Conversion from
third-party HD-map formats attaches at ``load_map`` (write a converter that
emits this format).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import yaml

from .errors import GeometryError, MapFormatError, OffMapError, RouteSelectionError
from .geometry import Polyline, segment_intersection, wrap_angle
from .schema import check_fields, read_document

MAP_FORMAT = "scenex-map"
MAP_VERSION = 1
DEFAULT_LANE_WIDTH = 3.5
DEFAULT_ROUTE_HORIZON = 150.0
DEFAULT_MATCH_DISTANCE = 10.0


@dataclass(frozen=True)
class Lane:
    lane_id: str
    polyline: Polyline
    width: float
    successors: tuple


class MapGraph:
    """Immutable lane graph; all queries are read-only.

    Lanes are kept in id order with the bounding box of each centerline,
    (lane id, polyline, min x, min y, max x, max y), for `match_to_lane`.
    """

    def __init__(self, lanes):
        self._lanes = {}
        self._paths = {}        # (lane, selector, horizon) -> centerline
        self._centerlines = {}  # route -> centerline
        for lane in lanes:
            if lane.lane_id in self._lanes:
                raise MapFormatError(f"duplicate lane id {lane.lane_id!r}")
            if lane.width <= 0.0:
                raise MapFormatError(f"lane {lane.lane_id!r}: width must be > 0")
            self._lanes[lane.lane_id] = lane
        for lane in self._lanes.values():
            for succ in lane.successors:
                if succ not in self._lanes:
                    raise MapFormatError(
                        f"lane {lane.lane_id!r}: dangling successor {succ!r}"
                    )
        boxes = []
        for lane_id in sorted(self._lanes):
            pl = self._lanes[lane_id].polyline
            boxes.append((lane_id, pl, min(pl.xs), min(pl.ys), max(pl.xs), max(pl.ys)))
        self._boxes = tuple(boxes)

    @property
    def lanes(self):
        return dict(self._lanes)

    @property
    def lane_ids(self):
        return [box[0] for box in self._boxes]

    def lane(self, lane_id) -> Lane:
        try:
            return self._lanes[lane_id]
        except KeyError:
            raise MapFormatError(f"unknown lane id {lane_id!r}") from None

    def __len__(self):
        return len(self._lanes)

    def lane_path(self, lane_id, selector="straightest",
                  horizon=DEFAULT_ROUTE_HORIZON) -> Polyline:
        """Centerline of the route from the start of `lane_id` that `selector`
        picks relative to the lane's start tangent.

        Memoized per (lane, selector, horizon), and selectors that pick the
        same route get the same `Polyline`; the graph never changes.
        """
        key = (lane_id, selector, horizon)
        path = self._paths.get(key)
        if path is None:
            route = select_route(self, enumerate_routes(self, lane_id, horizon), selector)
            path = self._centerlines.get(route)
            if path is None:
                path = self._centerlines[route] = route_centerline(self, route)
            self._paths[key] = path
        return path


_LANE_FIELDS = {"id": "str | int", "points": "list", "width": "float",
                "successors": "list[str | int]"}


def _lane_from_record(path, rec, index):
    named = isinstance(rec, dict) and "id" in rec
    where = f"{path}: lane {str(rec['id'])!r}" if named else f"{path}: lanes[{index}]"
    check_fields(where, rec, _LANE_FIELDS, ("id", "points"), MapFormatError)
    try:
        polyline = Polyline(rec["points"])
    except (GeometryError, TypeError, ValueError, OverflowError) as exc:
        raise MapFormatError(f"{where}: bad centerline: {exc}") from exc
    return Lane(str(rec["id"]), polyline, float(rec.get("width", DEFAULT_LANE_WIDTH)),
                tuple(str(s) for s in rec.get("successors", [])))


def load_map(path) -> MapGraph:
    """Load a lane-graph map from the canonical YAML format."""
    lanes = read_document(path, MAP_FORMAT, MAP_VERSION, {"lanes": "non-empty list"},
                          ("lanes",), MapFormatError)["lanes"]
    return MapGraph([_lane_from_record(path, rec, i) for i, rec in enumerate(lanes)])


def save_map(graph: MapGraph, path) -> None:
    doc = {
        "format": MAP_FORMAT,
        "version": MAP_VERSION,
        "lanes": [
            {
                "id": lane.lane_id,
                "width": lane.width,
                "points": [[x, y] for x, y in lane.polyline.points],
                "successors": list(lane.successors),
            }
            for lane in (graph.lane(lid) for lid in graph.lane_ids)
        ],
    }
    with open(path, "w") as fh:
        yaml.safe_dump(doc, fh, sort_keys=False)


def match_to_lane(graph: MapGraph, x, y, yaw, max_distance=DEFAULT_MATCH_DISTANCE):
    """Match a pose to the lane minimizing |lateral offset|.

    Only lanes whose tangent at the matched station differs from `yaw` by
    less than 90 degrees are candidates. Raises OffMapError when no lane is
    within `max_distance`. A lane whose bounding box lies farther than
    `max_distance` + 1e-6 is skipped without projecting: its centerline is
    farther still, so it could not match.
    """
    if len(graph) == 0:
        raise OffMapError("map has no lanes")
    reach = max_distance + 1e-6
    reach2 = reach * reach
    best = None
    for lane_id, polyline, x0, y0, x1, y1 in graph._boxes:
        ex = x0 - x if x < x0 else (x - x1 if x > x1 else 0.0)
        ey = y0 - y if y < y0 else (y - y1 if y > y1 else 0.0)
        if ex * ex + ey * ey > reach2:
            continue
        station, lateral, dist = polyline.project(x, y)
        if dist > max_distance:
            continue
        if abs(wrap_angle(polyline.tangent_at(station) - yaw)) >= math.pi / 2:
            continue
        key = (abs(lateral), lane_id)
        if best is None or key < best[0]:
            best = (key, lane_id, station, lateral)
    if best is None:
        raise OffMapError(
            f"pose ({x:.2f}, {y:.2f}, yaw {yaw:.2f}) is off-map "
            f"(no lane within {max_distance} m)"
        )
    return best[1], best[2], best[3]


def enumerate_routes(graph, start, horizon=DEFAULT_ROUTE_HORIZON):
    """Lane-id tuples of the routes from the start of lane `start`.

    Depth-limited forward traversal of the successor relation: each route
    either reaches `horizon` meters or ends at a lane with no unvisited
    successors (truncated). Lanes are never revisited within one route,
    which bounds traversal through cycles. Output is sorted
    lexicographically.
    """
    routes = []

    def dfs(lane, acc_len, seq):
        seq = seq + (lane.lane_id,)
        total = acc_len + lane.polyline.length
        nxt = [s for s in sorted(lane.successors) if s not in seq]
        if total >= horizon or not nxt:
            routes.append(seq)
            return
        for succ in nxt:
            dfs(graph.lane(succ), total, seq)

    dfs(graph.lane(start), 0.0, ())
    routes.sort()
    return routes


def _exit_angle(graph, route, yaw):
    first = graph.lane(route[0]).polyline
    last = graph.lane(route[-1]).polyline
    dx, dy = last.xs[-1] - first.xs[0], last.ys[-1] - first.ys[0]
    if math.hypot(dx, dy) < 1e-9:
        return 0.0
    return wrap_angle(math.atan2(dy, dx) - yaw)


def select_route(graph, routes, selector="straightest"):
    """Pick a route by its signed chord angle at the first lane's start.

    Each route's exit angle is the bearing of (route end - route start)
    relative to the first lane's start tangent. Routes are sorted by signed
    angle ascending; an integer selector indexes that order, the default
    "straightest" picks the minimal |angle|. Ties break on the
    lexicographically smaller lane id sequence.
    """
    if not routes:
        raise RouteSelectionError("no routes to select from")
    yaw = graph.lane(routes[0][0]).polyline.tangent_at(0.0)
    annotated = sorted((_exit_angle(graph, r, yaw), r) for r in routes)
    if selector == "straightest":
        return min(annotated, key=lambda e: (abs(e[0]), e[1]))[1]
    try:
        index = int(selector)
    except (TypeError, ValueError):
        raise RouteSelectionError(f"bad route selector {selector!r}") from None
    if not 0 <= index < len(annotated):
        raise RouteSelectionError(
            f"route selector index {index} out of range (have {len(annotated)} routes)"
        )
    return annotated[index][1]


def route_centerline(graph, route) -> Polyline:
    """Concatenated lane centerlines of a lane-id tuple.

    Duplicate junction points are removed and stations are recomputed from 0.
    """
    pts = []
    for lane_id in route:
        pl = graph.lane(lane_id).polyline
        for x, y in zip(pl.xs, pl.ys):
            if pts and math.hypot(x - pts[-1][0], y - pts[-1][1]) < 1e-9:
                continue
            pts.append((x, y))
    return Polyline(pts)


# growth of a segment's bounding box in `path_intersection`, per metre of
# its length plus one: far beyond `segment_intersection`'s 1e-9 parametric
# tolerance and the rounding of a hit point, so segments whose grown boxes
# are disjoint do not meet
_BOX_GROWTH = 1e-6


def _grown_boxes(p: Polyline):
    """(min x, min y, max x, max y) of each segment of `p`, grown by
    `_BOX_GROWTH` times its length plus one metre."""
    boxes = []
    xs, ys, cum = p.xs, p.ys, p.cum
    for i in range(len(cum) - 1):
        m = _BOX_GROWTH * (cum[i + 1] - cum[i] + 1.0)
        x0, x1 = (xs[i], xs[i + 1]) if xs[i] <= xs[i + 1] else (xs[i + 1], xs[i])
        y0, y1 = (ys[i], ys[i + 1]) if ys[i] <= ys[i + 1] else (ys[i + 1], ys[i])
        boxes.append((x0 - m, y0 - m, x1 + m, y1 + m))
    return boxes


def path_intersection(pa: Polyline, pb: Polyline):
    """First crossing of two centerlines in increasing station order on `pa`.

    Returns ((x, y), station_a, station_b) or None. Collinear overlap is not
    a crossing. A pair of segments whose grown bounding boxes
    (`_grown_boxes`) are disjoint is skipped without intersecting it.
    """
    boxes_b = _grown_boxes(pb)
    # the box around all of pb's grown boxes
    x0, y0 = min(b[0] for b in boxes_b), min(b[1] for b in boxes_b)
    x1, y1 = max(b[2] for b in boxes_b), max(b[3] for b in boxes_b)
    for i, (ax0, ay0, ax1, ay1) in enumerate(_grown_boxes(pa)):
        if ax1 < x0 or x1 < ax0 or ay1 < y0 or y1 < ay0:
            continue
        best = None
        seg_a = pa.cum[i + 1] - pa.cum[i]
        for j, (bx0, by0, bx1, by1) in enumerate(boxes_b):
            if ax1 < bx0 or bx1 < ax0 or ay1 < by0 or by1 < ay0:
                continue
            hit = segment_intersection(
                pa.xs[i], pa.ys[i], pa.xs[i + 1], pa.ys[i + 1],
                pb.xs[j], pb.ys[j], pb.xs[j + 1], pb.ys[j + 1],
            )
            if hit is None:
                continue
            x, y, t, u = hit
            sa = pa.cum[i] + t * seg_a
            sb = pb.cum[j] + u * (pb.cum[j + 1] - pb.cum[j])
            if best is None or (sa, sb) < (best[1], best[2]):
                best = ((x, y), sa, sb)
        if best is not None:
            return best
    return None


def state_path(memo, graph, state, selector, seed_lane, horizon):
    """`path_for_pose` of `state` (None without a map), once per `memo["paths"]`
    and (exact state, route selector, seed lane, graph, horizon); errors propagate."""
    if graph is None:
        return None
    key = (state.key, selector, seed_lane, graph, horizon)
    path = memo["paths"].get(key)
    if path is None:
        path = memo["paths"][key] = path_for_pose(graph, state.x, state.y, state.yaw,
                                                  selector, horizon, seed_lane)
    return path


def project_state(memo, path, state):
    """`path.project` of `state`'s position, once per (path, exact state) in
    `memo["projections"]`: {path: {`ParticipantState.key`: projection}}. The
    planner and the metric engine share one `memo` (`MetricEngine.memo`)."""
    on_path = memo["projections"].get(path)
    if on_path is None:
        on_path = memo["projections"][path] = {}
    hit = on_path.get(state.key)
    if hit is None:
        hit = on_path[state.key] = path.project(state.x, state.y)
    return hit


def match_seed_lane(graph, state, selector):
    """Lane on which an integer route `selector` applies: the lane matched at
    the participant's seed-scene `state`. None for "straightest" or no map."""
    if graph is None or selector == "straightest":
        return None
    return match_to_lane(graph, state.x, state.y, state.yaw)[0]


def seed_memo(memo, seed):
    """`memo`, whose "specs", "replays" and "lanes" memos belong to the one
    seed object it keeps under "seed": they start afresh for another seed."""
    if memo.get("seed") is not seed:
        memo.update(seed=seed, specs={}, replays={}, lanes={})
    return memo


def seed_lane(memo, graph, seed, tid, selector):
    """`match_seed_lane` of track `tid`'s state in `seed`'s current frame, once
    per (track, selector, graph) in the seed's "lanes" (`seed_memo`). The
    planner and the metric engine share it; errors propagate."""
    lanes = seed_memo(memo, seed)["lanes"]
    key = (tid, selector, graph)
    if key not in lanes:  # None, no lane, is stored too
        lanes[key] = match_seed_lane(graph, seed.current.get(tid), selector)
    return lanes[key]


def path_for_pose(graph, x, y, yaw, selector="straightest",
                  horizon=DEFAULT_ROUTE_HORIZON, seed_lane=None):
    """Match a pose to a lane and return that lane's route centerline
    (`lane_path`).

    An integer `selector` applies only while the pose matches `seed_lane`
    (see `match_seed_lane`; None applies it on any lane); past the seed lane
    the straightest route is taken. Without a map there is no path (None),
    and path followers drive straight along their yaw. One route always
    gives the same `Polyline` object.
    """
    if graph is None:
        return None
    lane_id, _, _ = match_to_lane(graph, x, y, yaw)
    if seed_lane is not None and lane_id != seed_lane:
        selector = "straightest"
    return graph.lane_path(lane_id, selector, horizon)
