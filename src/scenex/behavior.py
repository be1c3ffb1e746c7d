"""Behavior models: the current frame in, planned states out.

Concrete models: Standard Driver and Risky Driver (path following with the
intelligent-driver acceleration law), Constant Velocity, Emergency Brake,
and ground-truth Replay. Every model plans from the current frame alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from .errors import ModelError, SchemaError
from .geometry import Polyline
from .scene_io import DT, ParticipantState, SceneFrame
from .schema import check_fields, is_positive_number, read_document

MODEL_KINDS = ("standard", "risky", "constant_velocity", "emergency_brake", "replay")
IDM_KINDS = ("standard", "risky")

LEADER_CLEARANCE = 5.0
HARD_BRAKE_DECEL = 9.0
EMERGENCY_BRAKE_DECEL = 5.0
MIN_NET_GAP = 0.01
# IDM target speed v0 when the spec leaves it unset: the initial speed, or
# DEFAULT_V0 for a participant slower than MIN_INITIAL_V0
DEFAULT_V0 = 10.0
MIN_INITIAL_V0 = 0.5

# Table-driven driver profiles; a_max and v0 are repo defaults, the rest is
# the published parametrization of each profile.
IDM_PROFILES = {
    "standard": dict(a_max=2.0, b=3.0, T=3.1, s0=9.0, delta=4.0),
    "risky": dict(a_max=2.5, b=8.0, T=2.1, s0=5.0, delta=4.0),
}


@dataclass(frozen=True)
class IdmParams:
    """IDM parameters; v0 None leaves the target speed to `resolve_spec`."""

    a_max: float
    b: float
    T: float
    s0: float
    delta: float
    v0: float | None = None

    def __post_init__(self):
        for name in ("a_max", "b", "T", "s0", "delta", "v0"):
            value = getattr(self, name)
            if value is not None and not is_positive_number(value):
                raise ModelError(
                    f"IDM parameter {name} must be finite and > 0, got {value!r}")


def profile_params(kind, v0=None, **overrides) -> IdmParams:
    base = dict(IDM_PROFILES[kind])
    base.update(overrides)
    return IdmParams(v0=v0, **base)


@dataclass(frozen=True)
class ModelSpec:
    """Roster entry: model kind plus kind-specific parameters."""

    kind: str
    params: IdmParams | None = None
    route_selector: object = "straightest"
    brake_decel: float = EMERGENCY_BRAKE_DECEL
    weight: float = 1.0

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ModelError(f"unknown model kind {self.kind!r}")
        for name in ("weight", "brake_decel"):
            value = getattr(self, name)
            if not is_positive_number(value):
                raise ModelError(f"{name} must be finite and > 0, got {value!r}")
        if self.route_selector != "straightest":
            if isinstance(self.route_selector, bool) or not isinstance(
                    self.route_selector, int):
                raise ModelError(
                    f"route_selector must be 'straightest' or an integer, "
                    f"got {self.route_selector!r}")
            if self.kind == "replay":
                raise ModelError("route_selector does not apply to replay")


@dataclass(frozen=True)
class WorldView:
    """What a model plans from: the current frame, its own track id and the
    number of steps to plan. `projections`, when the caller has them, holds
    the `Polyline.project` result of each state of the current frame, in
    order, on the path the model is given, so they are not computed again."""

    current: SceneFrame
    self_id: int
    horizon_steps: int
    projections: list | None = None

    def self_state(self) -> ParticipantState:
        state = self.current.get(self.self_id)
        if state is None:
            raise ModelError(f"track {self.self_id} missing from the current frame")
        return state


def resolve_spec(spec: ModelSpec, initial_speed) -> ModelSpec:
    """Fill profile defaults and the target speed v0 for IDM drivers."""
    if spec.kind not in IDM_KINDS:
        return spec
    params = spec.params or profile_params(spec.kind)
    if params.v0 is None:
        v0 = initial_speed if initial_speed >= MIN_INITIAL_V0 else DEFAULT_V0
        params = replace(params, v0=v0)
    return replace(spec, params=params)


def leader_gap(own_station, own_length, projection, other_length):
    """The leader rule: the net gap along a path from a participant at
    `own_station` to another whose `Polyline.project` result on that path is
    `projection`, or None when the other does not lead, being not ahead or
    more than LEADER_CLEARANCE off the path. Off the path means either
    offset: the lateral one to the closest segment's line, or the distance
    to the closest point, which is the larger one past the path's end or
    beyond an outer corner. The distance test allows 1e-9 of rounding, so
    at an interior point, where the two agree, an exact tie still leads.

    The net gap subtracts the mean of both vehicle lengths and is clamped to
    stay positive.
    """
    station = projection[0]
    if (station <= own_station or abs(projection[1]) > LEADER_CLEARANCE
            or projection[2] > LEADER_CLEARANCE + 1e-9):
        return None
    return max(station - own_station - 0.5 * (own_length + other_length), MIN_NET_GAP)


def neighbours_ahead(me, own_station, states, projections):
    """(projection, speed, length) of every other participant that leads `me`
    at `own_station` (`leader_gap`), given `projections`: the path's
    `Polyline.project` result for each of `states`, in the same order.

    Nearest first, and of equal stations the slower, then the shorter one:
    as `me` advances along the path, its leader is the first still ahead.
    """
    ahead = [(proj, other.speed, other.length)
             for other, proj in zip(states, projections)
             if other.track_id != me.track_id
             and leader_gap(own_station, me.length, proj, other.length) is not None]
    ahead.sort(key=lambda e: (e[0][0], e[1], e[2]))
    return ahead


def idm_accel(p: IdmParams, v, s_net=math.inf, delta_v=0.0) -> float:
    """Intelligent-driver acceleration toward v0 with dynamic desired gap.

    Free flow is the s_net = inf limit. The desired gap is clamped at s0,
    and the result at [-HARD_BRAKE_DECEL, a_max].
    """
    a = p.a_max * (1.0 - (v / p.v0) ** p.delta)
    if s_net != math.inf:
        s_star = p.s0 + v * p.T + v * delta_v / (2.0 * math.sqrt(p.a_max * p.b))
        if s_star < p.s0:
            s_star = p.s0
        a -= p.a_max * (s_star / s_net) ** 2
    return min(max(a, -HARD_BRAKE_DECEL), p.a_max)


def plan_path_follow(view: WorldView, spec: ModelSpec, path: Polyline | None) -> tuple:
    """Planned states for steps t+1 ... t+horizon, speed forward-integrated
    along a fixed path, the centerline of the participant's route.

    Other participants are frozen at their current state for the whole
    planning horizon; reactivity comes from replanning. Past the path end
    the vehicle continues along the last tangent. Without a map there is no
    path (None), and the vehicle drives straight along its current yaw. An
    IDM spec without v0 is completed by `resolve_spec` at the current speed.
    """
    if spec.kind == "replay":
        raise ModelError("replay models plan via plan_replay")
    me = view.self_state()
    v = me.speed
    idm = spec.kind in IDM_KINDS
    if idm:
        params = spec.params
        if params is None or params.v0 is None:
            params = resolve_spec(spec, v).params

    ahead = ()
    degenerate = path is None
    if degenerate:
        s = 0.0
        yaw = me.yaw
    elif idm:
        states = view.current.states
        projections = view.projections
        if projections is None:
            project = path.project
            projections = [project(other.x, other.y) for other in states]
        s = projections[states.index(me)][0]
        ahead = neighbours_ahead(me, s, states, projections)
    else:
        s = path.project(me.x, me.y)[0]

    states = []
    for _ in range(view.horizon_steps):
        if spec.kind == "constant_velocity":
            a = 0.0
        elif spec.kind == "emergency_brake":
            a = -spec.brake_decel if v > 0.0 else 0.0
        else:
            for proj, speed, length in ahead:
                s_net = leader_gap(s, me.length, proj, length)
                if s_net is not None:
                    a = idm_accel(params, v, s_net, v - speed)
                    break
            else:
                a = idm_accel(params, v)
        v1 = v + a * DT
        if v1 < 0.0:
            v1 = 0.0
        s1 = s + 0.5 * (v + v1) * DT
        if degenerate:
            x = me.x + s1 * math.cos(yaw)
            y = me.y + s1 * math.sin(yaw)
            th = yaw
        else:
            x, y = path.point_at(s1, extrapolate=True)
            th = path.tangent_at(s1)
        states.append(ParticipantState(
            me.track_id, me.agent_type, x, y, th,
            v1 * math.cos(th), v1 * math.sin(th), me.length, me.width,
        ))
        v, s = v1, s1
    return tuple(states)


def plan_replay(view: WorldView, recorded, current_index) -> tuple:
    """The recorded future states, verbatim; where the track is missing,
    hold its latest recorded state (constant position, zero speed)."""
    base = None
    for idx in range(min(current_index, len(recorded) - 1), -1, -1):
        base = recorded[idx].get(view.self_id)
        if base is not None:
            break
    if base is None:
        raise ModelError(f"track {view.self_id} absent from the recording")
    states = []
    held = None
    for k in range(1, view.horizon_steps + 1):
        idx = current_index + k
        state = recorded[idx].get(view.self_id) if idx < len(recorded) else None
        if state is not None:
            base, held = state, None
            states.append(state)
        else:
            if held is None:
                held = replace(base, vx=0.0, vy=0.0)
            states.append(held)
    return tuple(states)


# field annotations of a roster entry and of its IDM `params`
_ENTRY_FIELDS = {"kind": "str", "params": "dict | None", "route_selector": "str | int",
                 "brake_decel": "float", "weight": "float"}
_PARAM_FIELDS = {f.name: f.type for f in fields(IdmParams)}


def _spec_from_record(rec, where):
    check_fields(where, rec, _ENTRY_FIELDS, ("kind",), SchemaError)
    raw = rec.get("params")
    params = None
    if raw is not None:
        if rec["kind"] not in IDM_KINDS:
            raise SchemaError(f"{where}: params only apply to IDM kinds")
        check_fields(where, raw, _PARAM_FIELDS, (), SchemaError, "params.")
        v0 = raw.get("v0")
        params = profile_params(rec["kind"], None if v0 is None else float(v0),
                                **{k: float(v) for k, v in raw.items() if k != "v0"})
    try:
        return ModelSpec(rec["kind"], params, rec.get("route_selector", "straightest"),
                         float(rec.get("brake_decel", EMERGENCY_BRAKE_DECEL)),
                         float(rec.get("weight", 1.0)))
    except ModelError as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def load_roster(path):
    """Load a model roster (YAML list of model specs with weights)."""
    models = read_document(path, "scenex-roster", 1, {"models": "non-empty list"},
                           ("models",), SchemaError)["models"]
    return [_spec_from_record(rec, f"{path}: models[{i}]")
            for i, rec in enumerate(models)]
