"""Scene and trajectory I/O in the INTERACTION-compatible CSV layout.

Track CSV columns, exact and in order::

    case_id, track_id, frame_id, timestamp_ms, agent_type, x, y, vx, vy,
    psi_rad, length, width

The frame period is fixed at 100 ms (10 Hz).
"""
from __future__ import annotations

import csv
import hashlib
import logging
import math
import struct
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

from .errors import InsufficientHistoryError, SchemaError, SynthParamError
from .geometry import Polyline
from .map_model import DEFAULT_LANE_WIDTH, Lane, MapGraph
from .schema import check_fields

log = logging.getLogger(__name__)

TRACK_COLUMNS = [
    "case_id", "track_id", "frame_id", "timestamp_ms", "agent_type",
    "x", "y", "vx", "vy", "psi_rad", "length", "width",
]
FRAME_PERIOD_MS = 100
DT = FRAME_PERIOD_MS / 1000
DEFAULT_HISTORY_LEN = 10
# upper bound of horizon_steps and history_len: 1000 s of 100 ms frames, far
# beyond a scenario, low enough that an absurd value fails before allocating
MAX_STEPS = 10_000
# upper bound of a synthetic scene's n_vehicles: 9,900 ordered pairs a frame
MAX_SYNTH_VEHICLES = 100
DEFAULT_VEHICLE_LENGTH = 4.5
DEFAULT_VEHICLE_WIDTH = 1.8

# agent types that carry no behavior model and are dropped on load
_DROPPED_AGENT_TYPES = {"pedestrian", "bicycle", "pedestrian/bicycle"}
_KNOWN_VEHICLE_TYPES = {"car", "truck"}
_STATE_FLOATS = struct.Struct("<7d")


@dataclass(frozen=True)
class ParticipantState:
    track_id: int
    agent_type: str
    x: float
    y: float
    yaw: float
    vx: float
    vy: float
    length: float = DEFAULT_VEHICLE_LENGTH
    width: float = DEFAULT_VEHICLE_WIDTH

    def __post_init__(self):
        if self.length <= 0.0 or self.width <= 0.0:
            raise ValueError(f"track {self.track_id}: non-positive dimensions")
        if not (math.isfinite(self.x) and math.isfinite(self.y)
                and math.isfinite(self.yaw)
                and math.isfinite(self.vx) and math.isfinite(self.vy)):
            raise ValueError(f"track {self.track_id}: non-finite position, yaw "
                             "or velocity")

    @property
    def speed(self) -> float:
        return math.hypot(self.vx, self.vy)


@dataclass(frozen=True)
class SceneFrame:
    timestamp_ms: int
    states: tuple

    def __post_init__(self):
        states = tuple(sorted(self.states, key=lambda s: s.track_id))
        ids = [s.track_id for s in states]
        if len(set(ids)) != len(ids):
            raise ValueError(f"frame {self.timestamp_ms}: duplicate track ids")
        object.__setattr__(self, "states", states)

    @property
    def track_ids(self):
        return frozenset(s.track_id for s in self.states)

    def get(self, track_id):
        for s in self.states:
            if s.track_id == track_id:
                return s
        return None


def state_bits(s) -> bytes:
    """A state's seven floats, bit for bit, so 0.0 and -0.0 differ."""
    return _STATE_FLOATS.pack(s.x, s.y, s.yaw, s.vx, s.vy, s.length, s.width)


def states_key(frame) -> bytes:
    """The exact content of a frame's states, in track order: every field,
    floats as `state_bits`. The timestamp is left out."""
    parts = []
    for s in frame.states:
        parts.append(b"%a %a" % (s.track_id, s.agent_type))
        parts.append(state_bits(s))
    return b"".join(parts)


@dataclass(frozen=True)
class SeedScene:
    """Map reference plus a short history window, whose last frame is
    current, and the frames recorded after it (none for a synthetic seed),
    which replay models follow."""

    map_graph: MapGraph
    frames: tuple
    case_id: int = 0
    future: tuple = ()

    def __post_init__(self):
        if not self.frames:
            raise ValueError("seed scene needs at least one frame")
        ids = self.frames[0].track_ids
        for fr in self.frames:
            if fr.track_ids != ids:
                raise ValueError("participant set must be constant over the history")
        recorded = self.frames + self.future
        for k in range(1, len(recorded)):
            prev, ts = recorded[k - 1].timestamp_ms, recorded[k].timestamp_ms
            if ts - prev != FRAME_PERIOD_MS:
                where = "seed" if k < len(self.frames) else "recorded future"
                raise ValueError(f"case {self.case_id}: {where} frame at {ts} ms "
                                 f"is not 100 ms after {prev} ms")

    @property
    def current(self) -> SceneFrame:
        return self.frames[-1]

    @property
    def track_ids(self):
        return sorted(self.current.track_ids)


@dataclass(frozen=True)
class ScenarioLog:
    """What was simulated from a seed scene: its 100 ms frames. Children
    whose assignments simulate alike share one log."""

    seed: SeedScene
    frames: tuple

    @cached_property
    def digest(self) -> bytes:
        """sha256 of the frames' exact content (timestamps and `states_key`)."""
        h = hashlib.sha256()
        for frame in self.frames:
            h.update(b"%d:" % frame.timestamp_ms)
            h.update(states_key(frame))
        return h.digest()


@dataclass(frozen=True)
class Case:
    case_id: int
    frames: tuple


@dataclass
class TrackDataset:
    cases: list
    dropped_nonvehicle: int = 0

    def case(self, case_id) -> Case:
        for c in self.cases:
            if c.case_id == case_id:
                return c
        raise KeyError(f"no case {case_id} in dataset")


def _normalize_agent_type(raw: str) -> str:
    t = raw.strip().lower()
    return t if t in _KNOWN_VEHICLE_TYPES else "other"


def load_tracks(path) -> TrackDataset:
    """Load a track CSV, grouping rows into cases of ordered frames.

    Non-vehicle rows (pedestrians, bicycles) are dropped and counted; a
    frame that holds only such rows is kept with no states, and a case that
    holds only such rows is dropped. The raw load does not force
    participant-set constancy; `extract_seed` does.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file") from None
        if header != TRACK_COLUMNS:
            missing = [c for c in TRACK_COLUMNS if c not in header]
            if missing:
                raise SchemaError(f"{path}: missing column(s) {', '.join(missing)}")
            raise SchemaError(
                f"{path}: columns must be exactly {','.join(TRACK_COLUMNS)}"
            )
        dropped = 0
        cases = {}
        seen = set()
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(TRACK_COLUMNS):
                raise SchemaError(f"{path}:{lineno}: expected {len(TRACK_COLUMNS)} fields")
            try:
                case_id, track_id, frame_id, ts = (int(v) for v in row[:4])
            except ValueError as exc:
                raise SchemaError(f"{path}:{lineno}: {exc}") from exc
            # a frame of dropped rows alone stays, with no states: replay
            # holds each vehicle's latest state across it
            states = cases.setdefault(case_id, {}).setdefault(frame_id, (ts, []))[1]
            raw_type = row[4]
            if raw_type.strip().lower() in _DROPPED_AGENT_TYPES:
                dropped += 1
                continue
            try:
                x, y, vx, vy, yaw = (float(v) for v in (row[5], row[6], row[7], row[8], row[9]))
                length = float(row[10]) if row[10] else DEFAULT_VEHICLE_LENGTH
                width = float(row[11]) if row[11] else DEFAULT_VEHICLE_WIDTH
                state = ParticipantState(track_id, _normalize_agent_type(raw_type),
                                         x, y, yaw, vx, vy, length, width)
            except ValueError as exc:
                raise SchemaError(f"{path}:{lineno}: {exc}") from exc
            key = (case_id, track_id, frame_id)
            if key in seen:
                raise SchemaError(f"{path}:{lineno}: duplicate (case, track, frame) {key}")
            seen.add(key)
            states.append(state)

    out = []
    for case_id in sorted(cases):
        if not any(states for _, states in cases[case_id].values()):
            continue  # a case of dropped rows alone
        frames = []
        prev_ts = None
        for frame_id in sorted(cases[case_id]):
            ts, states = cases[case_id][frame_id]
            if prev_ts is not None and ts <= prev_ts:
                raise SchemaError(
                    f"{path}: case {case_id}: non-monotonic timestamps at frame {frame_id}"
                )
            prev_ts = ts
            frames.append(SceneFrame(ts, tuple(states)))
        out.append(Case(case_id, tuple(frames)))
    if not out:
        raise SchemaError(f"{path}: no vehicle rows")
    if dropped:
        log.info("dropped %d non-vehicle rows from %s", dropped, path)
    return TrackDataset(out, dropped)


def write_case(case_id, frames, path) -> None:
    """Write frames as track CSV rows ordered by (frame, track)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACK_COLUMNS)
        for fr in frames:
            frame_id = fr.timestamp_ms // FRAME_PERIOD_MS
            for s in fr.states:
                writer.writerow([
                    case_id, s.track_id, frame_id, fr.timestamp_ms, s.agent_type,
                    repr(s.x), repr(s.y), repr(s.vx), repr(s.vy), repr(s.yaw),
                    repr(s.length), repr(s.width),
                ])


def write_log(log_: ScenarioLog, path) -> None:
    """Write a scenario log in the same CSV layout it was loaded from."""
    write_case(log_.seed.case_id, log_.frames, path)


def extract_seed(case: Case, current_index, history_len=DEFAULT_HISTORY_LEN,
                 map_graph=None) -> SeedScene:
    """Cut a history window ending at `current_index` out of a case; the
    case's later frames are the seed's recorded future.

    The window's participant set is restricted to tracks present in every
    selected frame; behavior models assume complete histories.
    """
    if (history_len < 1 or current_index < history_len - 1
            or current_index >= len(case.frames)):
        raise InsufficientHistoryError(
            f"case {case.case_id}: insufficient history for current index "
            f"{current_index} (need {history_len} frames)"
        )
    window = case.frames[current_index - history_len + 1: current_index + 1]
    common = frozenset.intersection(*(fr.track_ids for fr in window))
    if not common:
        raise InsufficientHistoryError(
            f"case {case.case_id}: no participant present over the whole window"
        )
    frames = tuple(
        SceneFrame(fr.timestamp_ms,
                   tuple(s for s in fr.states if s.track_id in common))
        for fr in window
    )
    return SeedScene(map_graph, frames, case.case_id, case.frames[current_index + 1:])


def _history_frames(specs, history_len):
    """Back-extrapolate constant-velocity histories; last frame is current.

    `specs` is a list of (track_id, x, y, yaw, vx, vy, length, width).
    """
    frames = []
    for k in range(history_len):
        steps_back = history_len - 1 - k
        states = tuple(
            ParticipantState(tid, "car",
                             x - vx * DT * steps_back, y - vy * DT * steps_back,
                             yaw, vx, vy, length, width)
            for tid, x, y, yaw, vx, vy, length, width in specs
        )
        frames.append(SceneFrame(FRAME_PERIOD_MS * (k + 1), states))
    return tuple(frames)


# template -> parameter -> (annotation, default); every template also takes
# SHARED_PARAMS. A gap, speed or distance goes through float().
SHARED_PARAMS = {"history_len": ("int", DEFAULT_HISTORY_LEN),
                 "vehicle_length": ("float", DEFAULT_VEHICLE_LENGTH),
                 "vehicle_width": ("float", DEFAULT_VEHICLE_WIDTH)}
TEMPLATE_PARAMS = {
    "car_following": {"n_vehicles": ("int", 2), "gap": ("float", 20.0),
                      "gaps": ("list[float] | None", None), "speed": ("float >= 0", 10.0),
                      "speeds": ("list[float >= 0] | None", None),
                      "lane_length": ("float", 500.0)},
    "merge": {"gap": ("float", 15.0), "distance": ("float", 60.0),
              "speed_main": ("float >= 0", 10.0), "speed_ramp": ("float >= 0", 10.0)},
    "crossing": {"distance_a": ("float", 30.0), "distance_b": ("float", 30.0),
                 "speed_a": ("float >= 0", 10.0), "speed_b": ("float >= 0", 10.0)},
}


def _template_params(template, params, where):
    """A template's parameters, checked, with the defaults filled in."""
    if template not in TEMPLATE_PARAMS:
        raise SynthParamError(f"unknown template {template!r}")
    table = dict(SHARED_PARAMS, **TEMPLATE_PARAMS[template])
    check_fields(where, params,
                 {name: annotation for name, (annotation, _) in table.items()}, (),
                 SynthParamError, noun="parameter")
    values = {}
    for name, (annotation, default) in table.items():
        value = params.get(name, default)
        if annotation.startswith("float"):
            value = float(value)
        elif value is not None and annotation.startswith("list"):
            value = [float(v) for v in value]
        values[name] = value
    return values


def synth_scene(template, params=None):
    """Generate a synthetic (MapGraph, SeedScene) pair for desk-scale runs.

    Templates: car_following (straight lane, N vehicles at given gaps and
    speeds), merge (ramp joining a main road), crossing (perpendicular lanes
    through a shared conflict point). Histories are back-extrapolated at
    constant velocity; yaw equals the path tangent. `TEMPLATE_PARAMS` lists
    each template's parameters; one that is unknown or of the wrong type
    (e.g. `n_vehicles: null`) is a SynthParamError naming it.
    """
    where = f"template {template!r}"
    p = _template_params(template, params or {}, where)
    history_len = p["history_len"]
    if not 1 <= history_len <= MAX_STEPS:
        raise SynthParamError(
            f"{where}: parameter 'history_len' must be from 1 to {MAX_STEPS}")
    length, width = p["vehicle_length"], p["vehicle_width"]

    if template == "car_following":
        n = p["n_vehicles"]
        if not 1 <= n <= MAX_SYNTH_VEHICLES:
            raise SynthParamError(
                f"{where}: parameter 'n_vehicles' must be from 1 to {MAX_SYNTH_VEHICLES}")
        gaps = [p["gap"]] * (n - 1) if p["gaps"] is None else p["gaps"]
        speeds = [p["speed"]] * n if p["speeds"] is None else p["speeds"]
        if len(gaps) != n - 1 or len(speeds) != n:
            raise SynthParamError(
                f"{where}: need {n - 1} gaps and {n} speeds for {n} vehicles")
        graph = MapGraph([Lane("main", Polyline([(0.0, 0.0), (p["lane_length"], 0.0)]),
                               DEFAULT_LANE_WIDTH, ())])
        specs = [(i + 1, x, 0.0, 0.0, v, 0.0, length, width)
                 for i, (x, v) in enumerate(zip(accumulate([60.0, *gaps]), speeds))]
        return graph, SeedScene(graph, _history_frames(specs, history_len), 1)

    if template == "merge":
        merge_x = 150.0
        main_in = Polyline([(-200.0, 0.0), (merge_x, 0.0)])
        ramp = Polyline([(0.0, -40.0), (merge_x, 0.0)])
        main_out = Polyline([(merge_x, 0.0), (500.0, 0.0)])
        graph = MapGraph([
            Lane("main_in", main_in, DEFAULT_LANE_WIDTH, ("main_out",)),
            Lane("ramp", ramp, DEFAULT_LANE_WIDTH, ("main_out",)),
            Lane("main_out", main_out, DEFAULT_LANE_WIDTH, ()),
        ])
        # main vehicle leads by `gap` meters of arc distance to the merge point
        x_main = merge_x - p["distance"] + p["gap"]
        if x_main >= merge_x:
            raise SynthParamError(f"{where}: main vehicle would start past the merge point")
        ramp_station = ramp.length - p["distance"]
        if ramp_station < 0.0:
            raise SynthParamError(f"{where}: distance exceeds the ramp length")
        rx, ry = ramp.point_at(ramp_station)
        ryaw = ramp.tangent_at(ramp_station)
        v_ramp = p["speed_ramp"]
        specs = [
            (1, x_main, 0.0, 0.0, p["speed_main"], 0.0, length, width),
            (2, rx, ry, ryaw, v_ramp * math.cos(ryaw), v_ramp * math.sin(ryaw),
             length, width),
        ]
        return graph, SeedScene(graph, _history_frames(specs, history_len), 1)

    # crossing
    graph = MapGraph([
        Lane("east", Polyline([(-150.0, 0.0), (200.0, 0.0)]), DEFAULT_LANE_WIDTH, ()),
        Lane("north", Polyline([(0.0, -150.0), (0.0, 200.0)]), DEFAULT_LANE_WIDTH, ()),
    ])
    specs = [
        (1, -p["distance_a"], 0.0, 0.0, p["speed_a"], 0.0, length, width),
        (2, 0.0, -p["distance_b"], math.pi / 2, 0.0, p["speed_b"], length, width),
    ]
    return graph, SeedScene(graph, _history_frames(specs, history_len), 1)
