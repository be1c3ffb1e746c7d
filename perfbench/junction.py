"""Seeded input generator for the `sample-junction` workload.

Writes a four-arm junction map (`scenex-map` v1) and an eight-vehicle track
file with a recorded future. The generator builds both files from its own
geometry, without calling scenex, so the program under test receives only
the generated files. The map topology and vertex count are fixed; the seed
moves the arm lengths, the vehicles' stations, gaps, speeds and routes.

    python3 perfbench/junction.py --seed 7 --out DIR
"""
from __future__ import annotations

import argparse
import math
import os
import random
import sys

ARMS = ("W", "S", "E", "N")
# unit vector from the junction centre out along each arm
ARM_DIR = {"W": (-1.0, 0.0), "S": (0.0, -1.0), "E": (1.0, 0.0), "N": (0.0, 1.0)}
HALF_BOX = 12.0
LANE_OFFSET = 1.75
LANE_WIDTH = 3.5
ARM_POINTS = 21
CONNECTOR_POINTS = 26
VEHICLES_PER_ARM = 2
HISTORY_LEN = 10
HORIZON_STEPS = 30
N_FRAMES = HISTORY_LEN + HORIZON_STEPS + 5
CURRENT_INDEX = HISTORY_LEN - 1
CASE_ID = 1
VEHICLE_LENGTH = 4.5
VEHICLE_WIDTH = 1.8


def _right(dx, dy):
    return dy, -dx


def _lerp_points(p, q, n):
    return [(p[0] + (q[0] - p[0]) * i / (n - 1), p[1] + (q[1] - p[1]) * i / (n - 1))
            for i in range(n)]


def _bezier(p0, h0, p3, h1, n):
    """Cubic Bezier from p0 heading h0 to p3 heading h1 (unit vectors)."""
    k = 0.5 * math.hypot(p3[0] - p0[0], p3[1] - p0[1])
    p1 = (p0[0] + k * h0[0], p0[1] + k * h0[1])
    p2 = (p3[0] - k * h1[0], p3[1] - k * h1[1])
    pts = []
    for i in range(n):
        t = i / (n - 1)
        a, b, c, d = (1 - t) ** 3, 3 * (1 - t) ** 2 * t, 3 * (1 - t) * t * t, t ** 3
        pts.append((a * p0[0] + b * p1[0] + c * p2[0] + d * p3[0],
                    a * p0[1] + b * p1[1] + c * p2[1] + d * p3[1]))
    return pts


def build_lanes(rng):
    """Lane id -> (points, successors): 4 incoming, 4 outgoing, 12 connectors."""
    lanes = {}
    ends = {}
    for arm in ARMS:
        ux, uy = ARM_DIR[arm]
        length = rng.uniform(90.0, 110.0)
        rx, ry = _right(-ux, -uy)  # incoming lanes travel towards the centre
        far = (ux * (HALF_BOX + length) + rx * LANE_OFFSET,
               uy * (HALF_BOX + length) + ry * LANE_OFFSET)
        edge = (ux * HALF_BOX + rx * LANE_OFFSET, uy * HALF_BOX + ry * LANE_OFFSET)
        lanes[f"{arm}_in"] = [_lerp_points(far, edge, ARM_POINTS), []]
        ox, oy = _right(ux, uy)
        start = (ux * HALF_BOX + ox * LANE_OFFSET, uy * HALF_BOX + oy * LANE_OFFSET)
        out_end = (ux * (HALF_BOX + length) + ox * LANE_OFFSET,
                   uy * (HALF_BOX + length) + oy * LANE_OFFSET)
        lanes[f"{arm}_out"] = [_lerp_points(start, out_end, ARM_POINTS), []]
        ends[arm] = (edge, start)
    for a in ARMS:
        for b in ARMS:
            if a == b:
                continue
            ua, ub = ARM_DIR[a], ARM_DIR[b]
            pts = _bezier(ends[a][0], (-ua[0], -ua[1]), ends[b][1], ub,
                          CONNECTOR_POINTS)
            cid = f"{a}_{b}"
            lanes[cid] = [pts, [f"{b}_out"]]
            lanes[f"{a}_in"][1].append(cid)
    return lanes


class _Route:
    """Concatenated centerline with arc-length interpolation."""

    def __init__(self, points):
        self.pts = []
        for p in points:
            if not self.pts or math.hypot(p[0] - self.pts[-1][0],
                                          p[1] - self.pts[-1][1]) > 1e-9:
                self.pts.append(p)
        self.cum = [0.0]
        for p, q in zip(self.pts, self.pts[1:]):
            self.cum.append(self.cum[-1] + math.hypot(q[0] - p[0], q[1] - p[1]))

    def pose(self, s):
        i = 0
        while i < len(self.cum) - 2 and self.cum[i + 1] < s:
            i += 1
        p, q = self.pts[i], self.pts[i + 1]
        t = (s - self.cum[i]) / (self.cum[i + 1] - self.cum[i])
        return (p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]),
                math.atan2(q[1] - p[1], q[0] - p[0]))


def build_tracks(rng, lanes):
    """Rows (track_id, frame_index, x, y, vx, vy, yaw) at 10 Hz."""
    rows = []
    tid = 0
    for arm in ARMS:
        in_pts = lanes[f"{arm}_in"][0]
        in_len = math.hypot(in_pts[-1][0] - in_pts[0][0], in_pts[-1][1] - in_pts[0][1])
        station = in_len - rng.uniform(20.0, 40.0)
        speed = rng.uniform(7.0, 11.0)
        for _ in range(VEHICLES_PER_ARM):
            tid += 1
            target = rng.choice([b for b in ARMS if b != arm])
            route = _Route(in_pts + lanes[f"{arm}_{target}"][0]
                           + lanes[f"{target}_out"][0])
            for k in range(N_FRAMES):
                s = station + speed * 0.1 * (k - CURRENT_INDEX)
                x, y, yaw = route.pose(s)
                rows.append((tid, k, x, y, speed * math.cos(yaw),
                             speed * math.sin(yaw), yaw))
            station -= rng.uniform(15.0, 25.0)
            speed *= rng.uniform(0.85, 1.0)
    rows.sort(key=lambda r: (r[1], r[0]))
    return rows


def map_text(lanes) -> str:
    out = ["format: scenex-map", "version: 1", "lanes:"]
    for lane_id, (pts, succ) in lanes.items():
        out.append(f"- id: {lane_id}")
        out.append(f"  width: {LANE_WIDTH!r}")
        out.append("  points: [" + ", ".join(f"[{x!r}, {y!r}]" for x, y in pts) + "]")
        out.append("  successors: [" + ", ".join(succ) + "]")
    return "\n".join(out) + "\n"


def tracks_text(rows) -> str:
    out = ["case_id,track_id,frame_id,timestamp_ms,agent_type,x,y,vx,vy,psi_rad,"
           "length,width"]
    for tid, k, x, y, vx, vy, yaw in rows:
        out.append(f"{CASE_ID},{tid},{k + 1},{100 * (k + 1)},car,{x!r},{y!r},"
                   f"{vx!r},{vy!r},{yaw!r},{VEHICLE_LENGTH!r},{VEHICLE_WIDTH!r}")
    return "\n".join(out) + "\n"


def generate(seed: int):
    """Return (map.yaml text, tracks.csv text) for a workload seed."""
    rng = random.Random(f"sample-junction/{seed}")
    lanes = build_lanes(rng)
    return map_text(lanes), tracks_text(build_tracks(rng, lanes))


def validate(map_path, tracks_path) -> None:
    """Raise ValueError unless scenex accepts the files as a usable seed scene."""
    from scenex.errors import ScenexError
    from scenex.map_model import load_map, match_to_lane
    from scenex.scene_io import extract_seed, load_tracks

    try:
        graph = load_map(map_path)
        case = load_tracks(tracks_path).case(CASE_ID)
        seed = extract_seed(case, CURRENT_INDEX, HISTORY_LEN, map_graph=graph)
    except (ScenexError, KeyError) as exc:
        raise ValueError(f"generated inputs rejected: {exc}") from exc
    if len(seed.track_ids) != VEHICLES_PER_ARM * len(ARMS):
        raise ValueError(f"seed has {len(seed.track_ids)} vehicles")
    for state in seed.current.states:
        try:
            match_to_lane(graph, state.x, state.y, state.yaw)
        except ScenexError as exc:
            raise ValueError(f"track {state.track_id} is off-map: {exc}") from exc
    if len(case.frames) - 1 - CURRENT_INDEX < HORIZON_STEPS:
        raise ValueError("recording does not cover the horizon")


def write_inputs(seed: int, out_dir) -> tuple:
    """Write and validate map.yaml and tracks.csv; return their paths."""
    map_src, tracks_src = generate(seed)
    if generate(seed) != (map_src, tracks_src):
        raise ValueError(f"generator is not deterministic for seed {seed}")
    os.makedirs(out_dir, exist_ok=True)
    paths = os.path.join(out_dir, "map.yaml"), os.path.join(out_dir, "tracks.csv")
    for path, text in zip(paths, (map_src, tracks_src)):
        with open(path, "w") as fh:
            fh.write(text)
    validate(*paths)
    return paths


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    for path in write_inputs(args.seed, args.out):
        print(path)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src"))
    raise SystemExit(main())
