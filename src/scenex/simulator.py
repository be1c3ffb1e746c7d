"""Closed-loop child-scenario execution.

A run assigns one behavior model per participant, replans every
`replan_interval` steps from the current frame, advances all participants
along their planned states at 10 Hz, and logs every frame.
Batches derive per-child seeds from the batch seed so results are
independent of scheduling and worker count.

A batch simulates each distinct tuple of specs once, serially or in a pool
of worker processes, and hands each completed child to the caller's
`finish` in the process that simulated it. The library's `keep_log` keeps
the log; the CLI's scores the child and writes its log there, so a worker
sends back a fingerprint, not frames. A worker that dies fails the children
of the tasks it had not returned, not the batch.
"""
from __future__ import annotations

import hashlib
import os
import struct
from dataclasses import dataclass, replace

from .behavior import (
    IDM_KINDS,
    WorldView,
    neighbours_ahead,
    plan_path_follow,
    plan_replay,
    resolve_spec,
)
from .errors import ChildRunError, EnumerationCapError, ScenexError
from .map_model import DEFAULT_ROUTE_HORIZON, project_state, seed_lane, seed_memo, state_path
from .scene_io import (
    FRAME_PERIOD_MS,
    MAX_STEPS,
    SceneFrame,
    ScenarioLog,
    SeedScene,
)
from .schema import positive_number

DEFAULT_N_RUNS = 385
DEFAULT_ENUMERATION_CAP = 1_000_000
# upper bound of enumeration_cap: a batch holds one result per child, and
# under the library's `keep_log` every child's log, so a larger cap could end
# in a MemoryError instead of a validation error (the CLI's children drop
# their logs once written)
MAX_ENUMERATION_CAP = DEFAULT_ENUMERATION_CAP
# a neighbour ahead in a plan key: station, speed and length, bit for bit
_NEIGHBOUR = struct.Struct("<3d")


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
        positive_number("route_horizon", self.route_horizon)


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


def enumeration_count(seed: SeedScene, roster, cap=None) -> int:
    """The number of assignments of `roster` to the seed's participants;
    raises EnumerationCapError if it exceeds `cap`."""
    total = len(roster) ** len(seed.track_ids)
    if cap is not None and total > cap:
        raise EnumerationCapError(
            f"{total} assignments exceed the cap of {cap}; "
            "use sampled runs (`scenex simulate`, or `run_batch`) instead"
        )
    return total


def enumerate_assignments(seed: SeedScene, roster, cap=DEFAULT_ENUMERATION_CAP):
    """Mixed-radix enumeration over participants sorted by track id."""
    ids = seed.track_ids
    base = len(roster)
    total = enumeration_count(seed, roster, cap)
    for index in range(total):
        mapping = {}
        rem = index
        for tid in reversed(ids):
            mapping[tid] = roster[rem % base]
            rem //= base
        yield Assignment(mapping, ("enumerated", index))


def _plan(memo, graph, frame, i, spec, seed_lane, cfg):
    """`plan_path_follow` from `frame` for the path follower whose state is
    its `i`th, on its `state_path`, once per `memo` and planner input: the
    own state's exact content (its `key`: track id, agent type and floats),
    the resolved spec, path and steps, and the bit-exact (station, speed,
    length) of every neighbour ahead (`neighbours_ahead`) in the planner's
    order, which IDM drivers alone read. The planner reads nothing else, so
    an equal input plans the same states. Each exact state is projected onto
    a path once per `memo` (`project_state`), for the key and the planner."""
    states = frame.states
    me = states[i]
    path = state_path(memo, graph, me, spec.route_selector, seed_lane, cfg.route_horizon)
    projections = None
    ahead = b""
    if path is not None and spec.kind in IDM_KINDS:
        projections = [project_state(memo, path, s) for s in states]
        ahead = b"".join(
            _NEIGHBOUR.pack(proj[0], speed, length)
            for proj, speed, length in neighbours_ahead(me, projections[i][0],
                                                        states, projections))
    key = (me.key, spec, path, cfg.replan_interval, ahead)
    plan = memo["plans"].get(key)
    if plan is None:
        plan = memo["plans"][key] = plan_path_follow(
            WorldView(frame, me.track_id, cfg.replan_interval, projections), spec, path)
    return plan


def run_child(seed: SeedScene, assignment: Assignment, cfg: SimConfig = SimConfig(),
              plan_memo=None) -> ScenarioLog:
    """Simulate one child-scenario under a fixed model assignment.

    Replay models follow the seed's recorded future, holding their latest
    recorded state where it lacks them. All models plan from the current frame,
    each for the `replan_interval` steps used before the next replan; the
    seed's earlier frames are never read.

    `plan_memo` is a dict shared by a batch's children and by a `MetricEngine`
    whose `memo` it is. Its "paths", "projections" and "plans" memos key on a
    state's exact content (`ParticipantState.key`). A path follower's path is
    resolved once per distinct own state, route selector and seed lane, and
    its plan once per distinct planner input: its own state, spec, path and
    steps and, for an IDM driver, the station, speed and length of every
    vehicle ahead on its path, whatever the rest of the frame holds. An
    `OffMapError` fails the child at its step and is never stored.

    Its "specs", "replays" and "lanes" memos belong to the one seed it keeps
    under "seed", and start afresh when a child of another seed object runs
    (`seed_memo`): a track's spec is resolved once per roster spec, at the
    seed's current speed, a replay track's plan once per recorded index and
    steps, from the seed's recorded frames, and a path follower's seed lane
    once per track and route selector (`seed_lane`, which the metric
    engine's routes read too).
    """
    ids = seed.track_ids
    missing = [tid for tid in ids if tid not in assignment.mapping]
    if missing:
        raise ScenexError(f"assignment misses participant(s) {missing}")

    if plan_memo is None:
        plan_memo = {}
    for name in ("paths", "projections", "plans"):
        plan_memo.setdefault(name, {})
    specs = seed_memo(plan_memo, seed)["specs"]
    replays = plan_memo["replays"]

    current = seed.current
    resolved = {}
    for tid in ids:
        key = (tid, assignment.mapping[tid])
        spec = specs.get(key)
        if spec is None:
            spec = specs[key] = resolve_spec(key[1], current.get(tid).speed)
        resolved[tid] = spec
    base_index = len(seed.frames) - 1
    graph = seed.map_graph
    seed_lanes = {}
    plans = {}
    plan_step = 0
    frame = current
    ts = current.timestamp_ms
    out = []

    for step in range(cfg.horizon_steps):
        if step % cfg.replan_interval == 0:
            # frames hold one state per track, in `ids` order
            for i, tid in enumerate(ids):
                spec = resolved[tid]
                try:
                    if spec.kind == "replay":
                        key = (tid, base_index + step, cfg.replan_interval)
                        plan = replays.get(key)
                        if plan is None:
                            plan = replays[key] = plan_replay(
                                WorldView(frame, tid, cfg.replan_interval),
                                seed.frames + seed.future, key[1])
                    else:
                        if step == 0:
                            seed_lanes[tid] = seed_lane(plan_memo, graph, seed, tid,
                                                        spec.route_selector)
                        plan = _plan(plan_memo, graph, frame, i, spec, seed_lanes[tid], cfg)
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
    """One child's outcome: its log and its fingerprint, each when the
    batch's `finish` keeps it, or why it failed: the message, the failing
    track, step and model kind (None when the failure is not one
    participant's), and the class name of the original exception. Children
    whose specs are equal share one log object and one fingerprint."""

    index: int
    assignment: Assignment
    log: ScenarioLog | None
    error: str | None = None
    track_id: int | None = None
    step: int | None = None
    model_kind: str | None = None
    error_class: str | None = None
    fingerprint: dict | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass(frozen=True)
class BatchResult:
    children: tuple

    @property
    def failures(self):
        return [c for c in self.children if not c.ok]

    @property
    def n_failed(self) -> int:
        return len(self.failures)


def keep_log(child, indices) -> ChildResult:
    """The library's `finish`: a child keeps its log."""
    return child


# distinct children per pool task: neighbours in a batch share most of their
# planner inputs, so contiguous chunks keep a worker's memos hitting
CHUNK_SIZE = 64

_WORKER_CTX = []  # a pool worker's (seed, cfg, finish, plan_memo)


def _init_worker(*args):
    # the args come as one pickle or fork image: `finish`'s engine memo stays `plan_memo`
    _WORKER_CTX[:] = args


def _failed(index, assignment, exc, cause) -> ChildResult:
    return ChildResult(
        index, assignment, None, error=str(exc),
        track_id=getattr(exc, "track_id", None), step=getattr(exc, "step", None),
        model_kind=getattr(exc, "model_kind", None),
        error_class=type(cause).__name__,
    )


def _run_task(seed, cfg, finish, plan_memo, task) -> ChildResult:
    """Simulate a task's child, then hand a completed one to `finish` with
    the indices of every task of its specs. `finish` runs outside the
    `except`: its own errors, such as an `OSError` from a log write, end the
    batch instead of failing the child."""
    index, assignment, indices = task
    try:
        log = run_child(seed, assignment, cfg, plan_memo=plan_memo)
    except Exception as exc:  # a failing child never ends the batch
        cause = (exc.__cause__ if isinstance(exc, ChildRunError) else None) or exc
        return _failed(index, assignment, exc, cause)
    return finish(ChildResult(index, assignment, log), indices)


def _worker(chunk):
    """Run a chunk of tasks in a pool worker. A result goes back without its
    assignment, which the parent has, and a kept log as its frames alone,
    which the parent puts under its own seed."""
    results = []
    for task in chunk:
        child = _run_task(*_WORKER_CTX, task)
        frames = None if child.log is None else child.log.frames
        results.append(replace(child, assignment=None, log=frames))
    return results


def available_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_pool(seed, cfg, distinct, workers, finish, plan_memo):
    """The results of `distinct` tasks run in a pool, in task order. A chunk
    whose worker died fails each of its children with `BrokenProcessPool`;
    the chunks received before are kept. The pool's module, and with it
    `multiprocessing`, is imported here, so a serial run never loads it."""
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    chunks = [distinct[i:i + CHUNK_SIZE] for i in range(0, len(distinct), CHUNK_SIZE)]
    results = []
    pool = ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                               initargs=(seed, cfg, finish, plan_memo))
    try:
        futures = [pool.submit(_worker, chunk) for chunk in chunks]
        for chunk, future in zip(chunks, futures):
            try:
                received = future.result()
            except BrokenProcessPool as exc:
                results += [_failed(i, a, exc, exc) for i, a, _ in chunk]
                continue
            results += [r if r.log is None else replace(r, log=ScenarioLog(seed, r.log))
                        for r in received]
    finally:
        pool.shutdown(cancel_futures=True)
    return results


def _execute(seed, cfg, tasks, jobs, finish, plan_memo) -> BatchResult:
    """Run the (index, assignment) `tasks`, each distinct assignment once,
    and return their children in task order.

    `run_child` reads nothing of an assignment but each participant's
    `ModelSpec`, so a task whose specs equal an earlier task's gets that
    child's result, or its failure, under its own index and assignment.
    Only the first task of each spec tuple is run: in a pool of at most
    `jobs` workers, no more than there are CPUs or such tasks, or serially
    when that is one. Each completed child then goes through
    `finish(child, indices)` in the process that simulated it, with the
    indices of every task of its specs, its own first; what `finish`
    returns is the child's result. `keep_log` keeps the log. The children
    share `plan_memo` (`run_child`; None: a new dict), each worker its copy.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    ids = seed.track_ids
    keys = [tuple(assignment.mapping.get(tid) for tid in ids)
            for _, assignment in tasks]
    groups = {}  # spec tuple -> (first index, its assignment, every index)
    for key, (index, assignment) in zip(keys, tasks):
        groups.setdefault(key, (index, assignment, []))[2].append(index)
    distinct = list(groups.values())
    if plan_memo is None:
        plan_memo = {}
    # the pool starts all its workers at the first task
    workers = min(jobs, available_cpus(), len(distinct))
    if workers > 1:
        results = _run_pool(seed, cfg, distinct, workers, finish, plan_memo)
    else:
        results = [_run_task(seed, cfg, finish, plan_memo, task) for task in distinct]
    ran = dict(zip(groups, results))
    return BatchResult(tuple(replace(ran[key], index=index, assignment=assignment)
                             for key, (index, assignment) in zip(keys, tasks)))


def run_batch(seed: SeedScene, roster, n_runs=DEFAULT_N_RUNS,
              cfg: SimConfig = SimConfig(), jobs=1, finish=keep_log,
              plan_memo=None) -> BatchResult:
    """Run `n_runs` sampled children; child i uses run seed rng_seed XOR i.
    Children go through `finish` and share `plan_memo` (see `_execute`)."""
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    tasks = [
        (i, assign_models(seed, roster, cfg.rng_seed ^ i)) for i in range(n_runs)
    ]
    return _execute(seed, cfg, tasks, jobs, finish, plan_memo)


def run_enumerated(seed: SeedScene, roster, cfg: SimConfig = SimConfig(),
                   jobs=1, cap=DEFAULT_ENUMERATION_CAP, finish=keep_log,
                   plan_memo=None) -> BatchResult:
    """Run every possible assignment (|roster| ** participants children).
    Children go through `finish` and share `plan_memo` (see `_execute`)."""
    tasks = list(enumerate(enumerate_assignments(seed, roster, cap=cap)))
    return _execute(seed, cfg, tasks, jobs, finish, plan_memo)
