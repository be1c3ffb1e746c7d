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
import sys
from dataclasses import dataclass

import yaml

from .errors import GeometryError, MapFormatError, OffMapError, RouteSelectionError
from .geometry import Polyline, segment_intersection, wrap_angle

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


class Path:
    """Arc-length-parametrized centerline derived from a route.

    A path without a centerline (no map) has `polyline` None.
    """

    __slots__ = ("polyline", "source_route")

    def __init__(self, polyline, source_route=()):
        self.polyline = polyline
        self.source_route = tuple(source_route)


# the one path of every pose on a seed without a map
_NO_MAP_PATH = Path(None)


class MapGraph:
    """Immutable lane graph; all queries are read-only.

    Lanes are kept in id order with the bounding box of each centerline,
    (lane id, polyline, min x, min y, max x, max y), for `match_to_lane`.
    """

    def __init__(self, lanes):
        self._lanes = {}
        self._paths = {}
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
                  horizon=DEFAULT_ROUTE_HORIZON) -> Path:
        """Path of a lane: its routes from the lane start, one picked by
        `selector` relative to the lane's start tangent, as one centerline.

        Memoized per (lane, selector, horizon); the graph never changes.
        """
        key = (lane_id, selector, horizon)
        path = self._paths.get(key)
        if path is None:
            routes = enumerate_routes(self, lane_id, horizon)
            path = route_centerline(self, select_route(self, routes, selector))
            self._paths[key] = path
        return path


def _lane_from_record(rec, index):
    if not isinstance(rec, dict):
        raise MapFormatError(f"lanes[{index}]: expected a mapping")
    try:
        lane_id = str(rec["id"])
        points = rec["points"]
    except KeyError as exc:
        raise MapFormatError(f"lanes[{index}]: missing field {exc.args[0]!r}") from None
    width = rec.get("width", DEFAULT_LANE_WIDTH)
    if (isinstance(width, bool) or not isinstance(width, (int, float))
            or not 0 < width <= sys.float_info.max):
        raise MapFormatError(
            f"lane {lane_id!r}: width must be a finite number > 0, got {width!r}")
    successors = rec.get("successors", [])
    if not isinstance(successors, list):
        raise MapFormatError(
            f"lane {lane_id!r}: successors must be a list, got {successors!r}")
    try:
        polyline = Polyline(points)
    except (GeometryError, TypeError, ValueError, OverflowError) as exc:
        raise MapFormatError(f"lane {lane_id!r}: bad centerline: {exc}") from exc
    return Lane(lane_id, polyline, float(width), tuple(str(s) for s in successors))


def load_map(path) -> MapGraph:
    """Load a lane-graph map from the canonical YAML format."""
    with open(path) as fh:
        try:
            doc = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise MapFormatError(f"{path}: not valid YAML: {exc}") from exc
    if not isinstance(doc, dict):
        raise MapFormatError(f"{path}: expected a mapping at top level")
    if doc.get("format") != MAP_FORMAT:
        raise MapFormatError(f"{path}: field 'format' must be {MAP_FORMAT!r}")
    if doc.get("version") != MAP_VERSION:
        raise MapFormatError(f"{path}: unsupported map version {doc.get('version')!r}")
    lanes_rec = doc.get("lanes")
    if not isinstance(lanes_rec, list) or not lanes_rec:
        raise MapFormatError(f"{path}: field 'lanes' must be a non-empty list")
    return MapGraph([_lane_from_record(rec, i) for i, rec in enumerate(lanes_rec)])


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


def route_centerline(graph, route) -> Path:
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
    return Path(Polyline(pts), route)


def path_intersection(a: Path, b: Path):
    """First crossing of two paths in increasing station order on `a`.

    Returns ((x, y), station_a, station_b) or None. Collinear overlap is not
    a crossing.
    """
    if a.polyline is None or b.polyline is None:
        return None
    pa, pb = a.polyline, b.polyline
    for i in range(len(pa.cum) - 1):
        best = None
        seg_a = pa.cum[i + 1] - pa.cum[i]
        for j in range(len(pb.cum) - 1):
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


def match_seed_lane(graph, state, selector):
    """Lane on which an integer route `selector` applies: the lane matched at
    the participant's seed-scene `state`. None for "straightest" or no map."""
    if graph is None or selector == "straightest":
        return None
    return match_to_lane(graph, state.x, state.y, state.yaw)[0]


def path_for_pose(graph, x, y, yaw, selector="straightest",
                  horizon=DEFAULT_ROUTE_HORIZON, seed_lane=None):
    """Match a pose to a lane and return that lane's path (`lane_path`).

    An integer `selector` applies only while the pose matches `seed_lane`
    (see `match_seed_lane`; None applies it on any lane); past the seed lane
    the straightest route is taken. Without a map the path has no centerline
    and path followers drive straight along their yaw. One lane and selector
    always give the same `Path` object.
    """
    if graph is None:
        return _NO_MAP_PATH
    lane_id, _, _ = match_to_lane(graph, x, y, yaw)
    if seed_lane is not None and lane_id != seed_lane:
        selector = "straightest"
    return graph.lane_path(lane_id, selector, horizon)
