"""Closed-loop child-scenario execution.

A run assigns one behavior model per participant, replans every
`replan_interval` steps from an identical frozen world view, advances all
participants along their cached trajectories at 10 Hz, and logs every frame.
Batches derive per-child seeds from the batch seed so results are
independent of scheduling and worker count.
"""
from __future__ import annotations

import hashlib
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .behavior import WorldView, plan_path_follow, plan_replay, resolve_spec
from .errors import ChildRunError, EnumerationCapError, ScenexError
from .map_model import DEFAULT_ROUTE_HORIZON, match_seed_lane, path_for_pose
from .scene_io import (
    DEFAULT_HISTORY_LEN,
    FRAME_PERIOD_MS,
    SceneFrame,
    ScenarioLog,
    SeedScene,
    states_key,
)

DEFAULT_N_RUNS = 385
DEFAULT_ENUMERATION_CAP = 1_000_000


@dataclass(frozen=True)
class SimConfig:
    horizon_steps: int = 30
    replan_interval: int = 5
    rng_seed: int = 0
    history_len: int = DEFAULT_HISTORY_LEN
    route_horizon: float = DEFAULT_ROUTE_HORIZON

    def __post_init__(self):
        if self.horizon_steps < 1:
            raise ValueError("horizon_steps must be >= 1")
        if not 1 <= self.replan_interval <= self.horizon_steps:
            raise ValueError("replan_interval must be in 1..horizon_steps")
        if self.history_len < 1:
            raise ValueError("history_len must be >= 1")


@dataclass(frozen=True)
class Assignment:
    """Participant -> model mapping plus how it was drawn."""

    mapping: dict
    origin: tuple  # ("sampled", run_seed) | ("enumerated", index)

    @property
    def run_seed(self) -> int:
        return int(self.origin[1])

    def kinds(self):
        return {tid: spec.kind for tid, spec in sorted(self.mapping.items())}


def _unit_interval(run_seed, track_id) -> float:
    digest = hashlib.sha256(f"{run_seed}|{track_id}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2.0 ** 64


def assign_models(seed: SeedScene, roster, run_seed) -> Assignment:
    """Draw one roster entry per participant, weighted, deterministically.

    The draw for each track depends only on (run_seed, track_id), so the
    result is independent of iteration order and scheduling.
    """
    if not roster:
        raise ValueError("roster must be non-empty")
    total = sum(spec.weight for spec in roster)
    mapping = {}
    for tid in seed.track_ids:
        u = _unit_interval(run_seed, tid) * total
        acc = 0.0
        chosen = roster[-1]
        for spec in roster:
            acc += spec.weight
            if u < acc:
                chosen = spec
                break
        mapping[tid] = chosen
    return Assignment(mapping, ("sampled", run_seed))


def enumeration_count(seed: SeedScene, roster) -> int:
    return len(roster) ** len(seed.track_ids)


def enumerate_assignments(seed: SeedScene, roster, cap=DEFAULT_ENUMERATION_CAP):
    """Mixed-radix enumeration over participants sorted by track id."""
    ids = seed.track_ids
    base = len(roster)
    total = enumeration_count(seed, roster)
    if total > cap:
        raise EnumerationCapError(
            f"{total} assignments exceed the cap of {cap}; "
            "use sampled runs (cmd_simulate) instead"
        )
    for index in range(total):
        mapping = {}
        rem = index
        for tid in reversed(ids):
            mapping[tid] = roster[rem % base]
            rem //= base
        yield Assignment(mapping, ("enumerated", index))


def recorded_base_index(recorded, seed: SeedScene) -> int:
    """Index of the seed's current frame in the recorded frames."""
    ts = seed.current.timestamp_ms
    for i, fr in enumerate(recorded):
        if fr.timestamp_ms == ts:
            return i
    raise ScenexError("recording does not contain the seed's current timestamp")


def run_child(seed: SeedScene, assignment: Assignment, cfg: SimConfig = SimConfig(),
              recorded=None, plan_memo=None) -> ScenarioLog:
    """Simulate one child-scenario under a fixed model assignment.

    Replay models follow `recorded` (the full case frames); without a
    recording they hold their seed state. All models plan from the same
    frozen history window, each for the `replan_interval` steps used before
    the next replan.

    `plan_memo` is a dict shared by the children of one batch: a path
    follower's plan is computed once per distinct (track, resolved spec,
    exact current states, path, steps), since the planner reads nothing else.
    """
    ids = seed.track_ids
    missing = [tid for tid in ids if tid not in assignment.mapping]
    if missing:
        raise ScenexError(f"assignment misses participant(s) {missing}")

    current = seed.current
    resolved = {
        tid: resolve_spec(assignment.mapping[tid], current.get(tid).speed)
        for tid in ids
    }
    rec_frames = tuple(recorded) if recorded is not None else seed.frames
    base_index = recorded_base_index(rec_frames, seed)

    if plan_memo is None:
        plan_memo = {}
    history = deque(seed.frames[-cfg.history_len:], maxlen=cfg.history_len)
    seed_lanes = {}
    plans = {}
    plan_step = 0
    ts = current.timestamp_ms
    out = []

    for step in range(cfg.horizon_steps):
        if step % cfg.replan_interval == 0:
            frames = tuple(history)
            now = states_key(frames[-1])
            for tid in ids:
                spec = resolved[tid]
                view = WorldView(frames, tid, cfg.replan_interval)
                try:
                    if spec.kind == "replay":
                        traj = plan_replay(view, rec_frames, base_index + step)
                    else:
                        me = frames[-1].get(tid)
                        if step == 0:
                            seed_lanes[tid] = match_seed_lane(
                                seed.map_graph, me, spec.route_selector)
                        path = path_for_pose(
                            seed.map_graph, me.x, me.y, me.yaw,
                            spec.route_selector, cfg.route_horizon, seed_lanes[tid],
                        )
                        key = (tid, spec, now, path, cfg.replan_interval)
                        traj = plan_memo.get(key)
                        if traj is None:
                            traj = plan_memo[key] = plan_path_follow(view, spec, path)
                except Exception as exc:
                    raise ChildRunError(tid, step, spec.kind, str(exc)) from exc
                plans[tid] = traj
            plan_step = step
        ts += FRAME_PERIOD_MS
        frame = SceneFrame(
            ts, tuple(plans[tid].states[step - plan_step] for tid in ids)
        )
        history.append(frame)
        out.append(frame)
    return ScenarioLog(seed, assignment, tuple(out))


@dataclass(frozen=True)
class ChildResult:
    """One child's log, or why it failed: the message, the failing track,
    step and model kind (None when the failure is not one participant's),
    and the class name of the original exception."""

    index: int
    assignment: Assignment
    log: ScenarioLog | None
    error: str | None = None
    track_id: int | None = None
    step: int | None = None
    model_kind: str | None = None
    error_class: str | None = None

    @property
    def ok(self) -> bool:
        return self.log is not None


@dataclass(frozen=True)
class BatchResult:
    children: tuple

    @property
    def logs(self):
        return [c.log for c in self.children if c.ok]

    @property
    def failures(self):
        return [c for c in self.children if not c.ok]

    @property
    def n_failed(self) -> int:
        return len(self.failures)


_WORKER_CTX = {}


def _init_worker(seed, cfg, recorded):
    _WORKER_CTX["seed"] = seed
    _WORKER_CTX["cfg"] = cfg
    _WORKER_CTX["recorded"] = recorded
    _WORKER_CTX["plan_memo"] = {}


def _run_one(seed, assignment, cfg, recorded, index, plan_memo) -> ChildResult:
    try:
        log = run_child(seed, assignment, cfg, recorded=recorded, plan_memo=plan_memo)
        return ChildResult(index, assignment, log)
    except Exception as exc:  # a failing child never ends the batch
        cause = (exc.__cause__ if isinstance(exc, ChildRunError) else None) or exc
        return ChildResult(
            index, assignment, None, error=str(exc),
            track_id=getattr(exc, "track_id", None), step=getattr(exc, "step", None),
            model_kind=getattr(exc, "model_kind", None),
            error_class=type(cause).__name__,
        )


def _worker(args):
    index, assignment = args
    return _run_one(_WORKER_CTX["seed"], assignment, _WORKER_CTX["cfg"],
                    _WORKER_CTX["recorded"], index, _WORKER_CTX["plan_memo"])


def _execute(seed, cfg, recorded, tasks, jobs) -> BatchResult:
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if jobs > 1:
        with ProcessPoolExecutor(
            max_workers=jobs, initializer=_init_worker,
            initargs=(seed, cfg, recorded),
        ) as pool:
            results = list(pool.map(_worker, tasks, chunksize=64))
    else:
        plan_memo = {}
        results = [_run_one(seed, a, cfg, recorded, i, plan_memo) for i, a in tasks]
    results.sort(key=lambda c: c.index)
    return BatchResult(tuple(results))


def run_batch(seed: SeedScene, roster, n_runs=DEFAULT_N_RUNS,
              cfg: SimConfig = SimConfig(), recorded=None, jobs=1) -> BatchResult:
    """Run `n_runs` sampled children; child i uses run seed rng_seed XOR i."""
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    tasks = [
        (i, assign_models(seed, roster, cfg.rng_seed ^ i)) for i in range(n_runs)
    ]
    return _execute(seed, cfg, recorded, tasks, jobs)


def run_enumerated(seed: SeedScene, roster, cfg: SimConfig = SimConfig(),
                   recorded=None, jobs=1, cap=DEFAULT_ENUMERATION_CAP) -> BatchResult:
    """Run every possible assignment (|roster| ** participants children)."""
    tasks = list(enumerate(enumerate_assignments(seed, roster, cap=cap)))
    return _execute(seed, cfg, recorded, tasks, jobs)
