"""Behavior models: frozen world view in, planned trajectory out.

Concrete models: Standard Driver and Risky Driver (path following with the
intelligent-driver acceleration law), Constant Velocity, Emergency Brake,
and ground-truth Replay. Learned predictors plug in through the same
ModelSpec/Trajectory contract.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import yaml

from .errors import ModelError, SchemaError
from .map_model import Path
from .scene_io import DT, ParticipantState

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


def _require_positive(name, value):
    if not (math.isfinite(value) and value > 0.0):
        raise ModelError(f"{name} must be finite and > 0, got {value!r}")


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
            if value is not None:
                _require_positive(f"IDM parameter {name}", value)


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
        _require_positive("model weight", self.weight)
        _require_positive("brake_decel", self.brake_decel)
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
    """Read-only environment snapshot handed to every model."""

    frames: tuple
    self_id: int
    horizon_steps: int

    @property
    def current(self):
        return self.frames[-1]

    def self_state(self) -> ParticipantState:
        state = self.current.get(self.self_id)
        if state is None:
            raise ModelError(f"track {self.self_id} missing from the current frame")
        return state


@dataclass(frozen=True)
class Trajectory:
    """Planned future states for steps t+1 ... t+horizon."""

    states: tuple


def resolve_spec(spec: ModelSpec, initial_speed) -> ModelSpec:
    """Fill profile defaults and the target speed v0 for IDM drivers."""
    if spec.kind not in IDM_KINDS:
        return spec
    params = spec.params or profile_params(spec.kind)
    if params.v0 is None:
        v0 = initial_speed if initial_speed >= MIN_INITIAL_V0 else DEFAULT_V0
        params = replace(params, v0=v0)
    return replace(spec, params=params)


def path_neighbours(self_id, states, projections):
    """(station, state) of every other participant within LEADER_CLEARANCE
    of a path, given `projections`: the path's `Polyline.project` result for
    each of `states`, in the same order."""
    return [(proj[0], other) for other, proj in zip(states, projections)
            if other.track_id != self_id and abs(proj[1]) <= LEADER_CLEARANCE]


def leaders_ahead(me, own_station, neighbours):
    """Yield (other, net gap) for each of `path_neighbours` ahead of
    `own_station`, in the order given.

    The net gap subtracts the mean of both vehicle lengths and is clamped to
    stay positive.
    """
    for station, other in neighbours:
        if station > own_station:
            yield other, max(station - own_station - 0.5 * (me.length + other.length),
                             MIN_NET_GAP)


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


def plan_path_follow(view: WorldView, spec: ModelSpec, path: Path) -> Trajectory:
    """Forward-integrate speed along a fixed path.

    Other participants are frozen at their current state for the whole
    planning horizon; reactivity comes from replanning. Past the path end
    the vehicle continues along the last tangent; a path without a
    centerline is driven straight along the current yaw. An IDM spec
    without v0 is completed by `resolve_spec` at the current speed.
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

    neighbours = ()
    polyline = path.polyline
    degenerate = polyline is None
    if degenerate:
        s = 0.0
        yaw = me.yaw
    elif idm:
        states = view.current.states
        project = polyline.project
        projections = [project(other.x, other.y) for other in states]
        s = projections[states.index(me)][0]
        neighbours = path_neighbours(view.self_id, states, projections)
        # nearest first, so the first one ahead leads; equal stations
        # put the slower, then the shorter vehicle first
        neighbours.sort(key=lambda e: (e[0], e[1].speed, e[1].length))
    else:
        s = polyline.project(me.x, me.y)[0]

    states = []
    for _ in range(view.horizon_steps):
        if spec.kind == "constant_velocity":
            a = 0.0
        elif spec.kind == "emergency_brake":
            a = -spec.brake_decel if v > 0.0 else 0.0
        else:
            lead = next(leaders_ahead(me, s, neighbours), None)
            if lead is None:
                a = idm_accel(params, v)
            else:
                other, s_net = lead
                a = idm_accel(params, v, s_net, v - other.speed)
        v1 = v + a * DT
        if v1 < 0.0:
            v1 = 0.0
        s1 = s + 0.5 * (v + v1) * DT
        if degenerate:
            x = me.x + s1 * math.cos(yaw)
            y = me.y + s1 * math.sin(yaw)
            th = yaw
        else:
            x, y = polyline.point_at(s1, extrapolate=True)
            th = polyline.tangent_at(s1)
        states.append(ParticipantState(
            me.track_id, me.agent_type, x, y, th,
            v1 * math.cos(th), v1 * math.sin(th), me.length, me.width,
        ))
        v, s = v1, s1
    return Trajectory(tuple(states))


def plan_replay(view: WorldView, recorded, current_index) -> Trajectory:
    """Return the recorded future verbatim; hold the last state when the
    recording ends (constant position, zero speed)."""
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
            base = state
            states.append(state)
        else:
            if held is None:
                held = replace(base, vx=0.0, vy=0.0)
            states.append(held)
    return Trajectory(tuple(states))


def _spec_from_record(rec, index):
    if not isinstance(rec, dict) or "kind" not in rec:
        raise SchemaError(f"models[{index}]: expected a mapping with a 'kind' field")
    kind = str(rec["kind"])
    params = None
    raw = rec.get("params")
    if raw is not None:
        if kind not in IDM_KINDS:
            raise SchemaError(f"models[{index}]: params only apply to IDM kinds")
        if not isinstance(raw, dict):
            raise SchemaError(f"models[{index}]: params must be a mapping")
        unknown = set(raw) - {"a_max", "b", "T", "s0", "delta", "v0"}
        if unknown:
            raise SchemaError(f"models[{index}]: unknown param(s) {sorted(unknown)}")
    try:
        if raw is not None:
            v0 = raw.get("v0")
            params = profile_params(kind, None if v0 is None else float(v0),
                                    **{k: float(v) for k, v in raw.items() if k != "v0"})
        return ModelSpec(
            kind=kind,
            params=params,
            route_selector=rec.get("route_selector", "straightest"),
            brake_decel=float(rec.get("brake_decel", EMERGENCY_BRAKE_DECEL)),
            weight=float(rec.get("weight", 1.0)),
        )
    except (ModelError, TypeError, ValueError) as exc:
        raise SchemaError(f"models[{index}]: {exc}") from exc


def load_roster(path):
    """Load a model roster (YAML list of model specs with weights)."""
    with open(path) as fh:
        try:
            doc = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise SchemaError(f"{path}: not valid YAML: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != "scenex-roster":
        raise SchemaError(f"{path}: field 'format' must be 'scenex-roster'")
    if doc.get("version") != 1:
        raise SchemaError(f"{path}: unsupported roster version")
    models = doc.get("models")
    if not isinstance(models, list) or not models:
        raise SchemaError(f"{path}: field 'models' must be a non-empty list")
    return [_spec_from_record(rec, i) for i, rec in enumerate(models)]
