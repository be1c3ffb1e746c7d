"""Closed-loop child-scenario execution.

A run assigns one behavior model per participant, replans every
`replan_interval` steps from the current frame, advances all participants
along their planned states at 10 Hz, and logs every frame.
Batches derive per-child seeds from the batch seed so results are
independent of scheduling and worker count.
"""
from __future__ import annotations

import hashlib
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

from .behavior import WorldView, plan_path_follow, plan_replay, resolve_spec
from .errors import ChildRunError, EnumerationCapError, ScenexError
from .map_model import DEFAULT_ROUTE_HORIZON, match_seed_lane, path_for_pose
from .scene_io import (
    FRAME_PERIOD_MS,
    MAX_STEPS,
    SceneFrame,
    ScenarioLog,
    SeedScene,
    states_key,
)

DEFAULT_N_RUNS = 385
DEFAULT_ENUMERATION_CAP = 1_000_000
# upper bound of enumeration_cap: a batch holds every child's log in memory,
# so a larger cap would end in a MemoryError instead of a validation error
MAX_ENUMERATION_CAP = DEFAULT_ENUMERATION_CAP


@dataclass(frozen=True)
class SimConfig:
    horizon_steps: int = 30
    replan_interval: int = 5
    rng_seed: int = 0
    route_horizon: float = DEFAULT_ROUTE_HORIZON

    def __post_init__(self):
        if not 1 <= self.horizon_steps <= MAX_STEPS:
            raise ValueError(f"horizon_steps must be in 1..{MAX_STEPS}")
        if not 1 <= self.replan_interval <= self.horizon_steps:
            raise ValueError("replan_interval must be in 1..horizon_steps")


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


def run_child(seed: SeedScene, assignment: Assignment, cfg: SimConfig = SimConfig(),
              plan_memo=None) -> ScenarioLog:
    """Simulate one child-scenario under a fixed model assignment.

    Replay models follow the seed's recorded future, holding their latest
    recorded state where it lacks them. All models plan from the current frame,
    each for the `replan_interval` steps used before the next replan; the
    seed's earlier frames are never read.

    `plan_memo` is a dict shared by the children of one batch: a path
    follower's path and plan are computed once per distinct (track, resolved
    spec, exact current states, map, seed lane, route horizon, steps), since
    `path_for_pose` and the planner read nothing else.
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
    recorded = seed.frames + seed.future
    base_index = len(seed.frames) - 1

    if plan_memo is None:
        plan_memo = {}
    seed_lanes = {}
    plans = {}
    plan_step = 0
    frame = current
    ts = current.timestamp_ms
    out = []

    for step in range(cfg.horizon_steps):
        if step % cfg.replan_interval == 0:
            now = states_key(frame)
            for tid in ids:
                spec = resolved[tid]
                try:
                    if spec.kind == "replay":
                        plan = plan_replay(WorldView(frame, tid, cfg.replan_interval),
                                           recorded, base_index + step)
                    else:
                        me = frame.get(tid)
                        if step == 0:
                            seed_lanes[tid] = match_seed_lane(
                                seed.map_graph, me, spec.route_selector)
                        key = (tid, spec, now, seed.map_graph, seed_lanes[tid],
                               cfg.route_horizon, cfg.replan_interval)
                        plan = plan_memo.get(key)
                        if plan is None:
                            path = path_for_pose(
                                seed.map_graph, me.x, me.y, me.yaw, spec.route_selector,
                                cfg.route_horizon, seed_lanes[tid],
                            )
                            plan = plan_memo[key] = plan_path_follow(
                                WorldView(frame, tid, cfg.replan_interval), spec, path)
                except Exception as exc:
                    raise ChildRunError(tid, step, spec.kind, str(exc)) from exc
                plans[tid] = plan
            plan_step = step
        ts += FRAME_PERIOD_MS
        frame = SceneFrame(ts, tuple(plans[tid][step - plan_step] for tid in ids))
        out.append(frame)
    return ScenarioLog(seed, tuple(out))


@dataclass(frozen=True)
class ChildResult:
    """One child's log, or why it failed: the message, the failing track,
    step and model kind (None when the failure is not one participant's),
    and the class name of the original exception. Children whose specs are
    equal share one log object."""

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


def _init_worker(seed, cfg):
    _WORKER_CTX["seed"] = seed
    _WORKER_CTX["cfg"] = cfg
    _WORKER_CTX["plan_memo"] = {}


def _run_one(seed, assignment, cfg, index, plan_memo) -> ChildResult:
    try:
        log = run_child(seed, assignment, cfg, plan_memo=plan_memo)
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
    """Run one task in a pool worker. A log goes back as its frames alone,
    which the parent puts under its own seed."""
    index, assignment = args
    child = _run_one(_WORKER_CTX["seed"], assignment, _WORKER_CTX["cfg"], index,
                     _WORKER_CTX["plan_memo"])
    return replace(child, log=child.log.frames) if child.ok else child


def available_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _execute(seed, cfg, tasks, jobs) -> BatchResult:
    """Run the (index, assignment) `tasks`, each distinct assignment once,
    and return their children in task order.

    `run_child` reads nothing of an assignment but each participant's
    `ModelSpec`, so a task whose specs equal an earlier task's gets that
    child's log, or its failure, under its own index and assignment.
    Only the first task of each spec tuple is run: in a pool of at most
    `jobs` workers, no more than there are CPUs or such tasks, or serially
    when that is one.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    ids = seed.track_ids
    keys = [tuple(assignment.mapping.get(tid) for tid in ids)
            for _, assignment in tasks]
    firsts = {}
    for key, task in zip(keys, tasks):
        firsts.setdefault(key, task)
    distinct = list(firsts.values())
    # the pool starts all its workers at the first task
    workers = min(jobs, available_cpus(), len(distinct))
    if workers > 1:
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker,
            initargs=(seed, cfg),
        ) as pool:
            results = [replace(r, log=ScenarioLog(seed, r.log)) if r.ok else r
                       for r in pool.map(_worker, distinct, chunksize=64)]
    else:
        plan_memo = {}
        results = [_run_one(seed, a, cfg, i, plan_memo) for i, a in distinct]
    ran = dict(zip(firsts, results))
    return BatchResult(tuple(replace(ran[key], index=index, assignment=assignment)
                             for key, (index, assignment) in zip(keys, tasks)))


def run_batch(seed: SeedScene, roster, n_runs=DEFAULT_N_RUNS,
              cfg: SimConfig = SimConfig(), jobs=1) -> BatchResult:
    """Run `n_runs` sampled children; child i uses run seed rng_seed XOR i."""
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    tasks = [
        (i, assign_models(seed, roster, cfg.rng_seed ^ i)) for i in range(n_runs)
    ]
    return _execute(seed, cfg, tasks, jobs)


def run_enumerated(seed: SeedScene, roster, cfg: SimConfig = SimConfig(),
                   jobs=1, cap=DEFAULT_ENUMERATION_CAP) -> BatchResult:
    """Run every possible assignment (|roster| ** participants children)."""
    tasks = list(enumerate(enumerate_assignments(seed, roster, cap=cap)))
    return _execute(seed, cfg, tasks, jobs)
