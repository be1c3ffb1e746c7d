import math
from concurrent.futures import Future, process
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from functools import cached_property

import pytest

from scenex import map_model, simulator
from scenex.behavior import ModelSpec, WorldView, plan_path_follow, profile_params
from scenex.errors import ChildRunError, EnumerationCapError, ScenexError
from scenex.map_model import MapGraph, match_seed_lane
from scenex.metrics import MetricEngine
from scenex.scene_io import (
    MAX_STEPS,
    Case,
    ParticipantState,
    SceneFrame,
    SeedScene,
    extract_seed,
    synth_scene,
    write_log,
)
from scenex.simulator import (
    SimConfig,
    assign_models,
    enumerate_assignments,
    enumeration_count,
    run_batch,
    run_child,
    run_enumerated,
)
from tests import oracles
from tests.test_metrics import exact


def replay_case(n_tracks=2, n_frames=50):
    from tests.test_scene_io import make_case

    return make_case(n_tracks=n_tracks, n_frames=n_frames)


def seed_of(map_graph, *vehicles, history_len=10):
    """Seed scene of (track, x, y, yaw, speed) vehicles at constant velocity."""
    frames = []
    for k in range(history_len):
        back = 0.1 * (history_len - 1 - k)
        frames.append(SceneFrame(100 * (k + 1), tuple(
            ParticipantState(tid, "car",
                             x - v * math.cos(yaw) * back, y - v * math.sin(yaw) * back,
                             yaw, v * math.cos(yaw), v * math.sin(yaw))
            for tid, x, y, yaw, v in vehicles
        )))
    return SeedScene(map_graph, tuple(frames))


class TestSimConfig:
    def test_defaults(self):
        cfg = SimConfig()
        assert cfg.horizon_steps == 30
        assert cfg.replan_interval == 5
        assert cfg.route_horizon == 150.0

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SimConfig(replan_interval=0)
        with pytest.raises(ValueError):
            SimConfig(replan_interval=31)
        with pytest.raises(TypeError):
            SimConfig(dt=0.05)  # the frame period is fixed, not a setting
        with pytest.raises(ValueError):
            SimConfig(horizon_steps=0)

    @pytest.mark.parametrize("field", ["horizon_steps"])
    def test_step_counts_bounded(self, field):
        SimConfig(**{field: MAX_STEPS, "replan_interval": 1})
        for value in (MAX_STEPS + 1, 10 ** 30):
            with pytest.raises(ValueError, match=f"{field} must be in 1..{MAX_STEPS}"):
                SimConfig(**{field: value})


class TestAssignModels:
    def test_single_model_roster(self, following_scene):
        _, seed = following_scene
        a = assign_models(seed, [ModelSpec("constant_velocity")], 0)
        assert set(a.kinds().values()) == {"constant_velocity"}

    def test_same_seed_same_assignment(self, following_scene, roster6):
        _, seed = following_scene
        a = assign_models(seed, roster6, 42)
        b = assign_models(seed, roster6, 42)
        assert a.kinds() == b.kinds()

    def test_draw_depends_only_on_seed_and_track(self, roster6):
        _, two = synth_scene("car_following", {"n_vehicles": 2})
        _, four = synth_scene("car_following", {"n_vehicles": 4})
        a = assign_models(two, roster6, 7).kinds()
        b = assign_models(four, roster6, 7).kinds()
        assert all(b[tid] == kind for tid, kind in a.items())

    def test_equal_weights_uniform(self, following_scene, roster6):
        # 6000 draws over 6 slots; chi-square bound at ~5 sigma for 5 dof
        _, seed = following_scene
        counts = dict.fromkeys(range(len(roster6)), 0)
        index = {id(spec): i for i, spec in enumerate(roster6)}
        for run_seed in range(3000):
            for spec in assign_models(seed, roster6, run_seed).mapping.values():
                counts[index[id(spec)]] += 1
        expected = 6000 / 6
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi2 < 40.0

    def test_weighted_draws(self, following_scene):
        _, seed = following_scene
        roster = [ModelSpec("standard", weight=1.0),
                  ModelSpec("constant_velocity", weight=3.0)]
        n_cv = sum(
            spec.kind == "constant_velocity"
            for run_seed in range(2000)
            for spec in assign_models(seed, roster, run_seed).mapping.values()
        )
        assert 0.75 == pytest.approx(n_cv / 4000, abs=0.03)


class TestEnumeration:
    def test_count(self, following_scene, roster6):
        _, seed = following_scene
        assert enumeration_count(seed, roster6) == 36
        _, five = synth_scene("car_following", {"n_vehicles": 5})
        assert enumeration_count(five, roster6) == 7776

    def test_lexicographic_order(self, following_scene):
        _, seed = following_scene
        roster = [ModelSpec("standard"), ModelSpec("risky")]
        combos = [tuple(a.kinds().values()) for a in enumerate_assignments(seed, roster)]
        assert combos == [
            ("standard", "standard"), ("standard", "risky"),
            ("risky", "standard"), ("risky", "risky"),
        ]
        indices = [a.origin for a in enumerate_assignments(seed, roster)]
        assert indices == [("enumerated", i) for i in range(4)]

    def test_cap_enforced(self, roster6):
        _, seed = synth_scene("car_following", {"n_vehicles": 11, "gap": 30.0})
        assert enumeration_count(seed, roster6) == 6 ** 11
        with pytest.raises(EnumerationCapError):
            next(enumerate_assignments(seed, roster6))


def cv_assignment(seed):
    spec = ModelSpec("constant_velocity")
    return simulator.Assignment({tid: spec for tid in seed.track_ids}, ("sampled", 0))


class TestRunChild:
    def test_constant_velocity_exact(self, following_scene):
        _, seed = following_scene
        log = run_child(seed, cv_assignment(seed))
        assert len(log.frames) == 30
        rear, front = log.frames[-1].states
        assert rear.x == pytest.approx(90.0)
        assert front.x == pytest.approx(110.0)

    def test_timestamps_and_participants(self, following_scene):
        _, seed = following_scene
        log = run_child(seed, cv_assignment(seed))
        ts0 = seed.current.timestamp_ms
        for k, fr in enumerate(log.frames, start=1):
            assert fr.timestamp_ms == ts0 + 100 * k
            assert fr.track_ids == seed.current.track_ids

    def test_missing_assignment_rejected(self, following_scene):
        _, seed = following_scene
        a = simulator.Assignment({1: ModelSpec("constant_velocity")}, ("sampled", 0))
        with pytest.raises(ScenexError, match="misses"):
            run_child(seed, a)

    def test_replay_reproduces_recording(self):
        case = replay_case()
        seed = extract_seed(case, 9)
        spec = ModelSpec("replay")
        a = simulator.Assignment({tid: spec for tid in seed.track_ids}, ("sampled", 0))
        log = run_child(seed, a)
        assert log.frames == case.frames[10:40]

    def test_route_selector_applies_on_seed_lane_only(self, t_junction_map):
        # vehicle 1 turns onto C (route index 1 on A); vehicle 2 drives on B
        seed = seed_of(t_junction_map, (1, 30.0, 0.0, 0.0, 10.0),
                       (2, 90.0, 0.0, 0.0, 10.0))
        cv = ModelSpec("constant_velocity")
        turn = simulator.Assignment(
            {1: ModelSpec("constant_velocity", route_selector=1), 2: cv},
            ("sampled", 0))
        log = run_child(seed, turn)
        assert log.frames[-1].get(1).y > 0.0
        # judged on (A, C), vehicle 2 on B never leads vehicle 1
        engine = MetricEngine(t_junction_map)
        assert "inv_ttc" not in engine.aggregate(log, turn)
        both_cv = simulator.Assignment({1: cv, 2: cv}, ("sampled", 0))
        straight = run_child(seed, both_cv)
        assert straight.frames[-1].get(1).y == 0.0
        assert "inv_ttc" in engine.aggregate(straight, both_cv)

    def test_mapless_seed_drives_along_yaw(self):
        yaw = math.pi / 4
        seed = seed_of(None, (1, 0.0, 0.0, yaw, 10.0))
        batch = run_batch(seed, [ModelSpec("constant_velocity")], n_runs=1)
        assert batch.n_failed == 0
        end = batch.children[0].log.frames[-1].get(1)
        assert (end.x, end.y) == pytest.approx((30.0 * math.cos(yaw),
                                                30.0 * math.sin(yaw)))

    def test_default_v0_same_planned_or_simulated(self, straight_map):
        # a standard driver at 0.3 m/s gets the default target speed 10 m/s
        # from the same rule whether it is planned directly or simulated
        seed = seed_of(straight_map, (1, 20.0, 0.0, 0.0, 0.3))
        spec = ModelSpec("standard")
        log = run_child(seed, simulator.Assignment({1: spec}, ("sampled", 0)))
        simulated = log.frames[-1].get(1).speed
        direct = plan_path_follow(WorldView(seed.current, 1, 30), spec,
                                  straight_map.lane_path("main"))
        assert simulated == pytest.approx(6.13, abs=0.005)
        assert direct[-1].speed == pytest.approx(simulated, rel=1e-9)

    def test_replan_interval_changes_reactivity(self, following_scene):
        _, seed = following_scene
        follower = ModelSpec("risky")
        leader = ModelSpec("emergency_brake")
        a = simulator.Assignment({1: follower, 2: leader}, ("sampled", 0))
        tight = run_child(seed, a, SimConfig(replan_interval=1))
        loose = run_child(seed, a, SimConfig(replan_interval=30))
        gap_tight = tight.frames[-1].get(2).x - tight.frames[-1].get(1).x
        gap_loose = loose.frames[-1].get(2).x - loose.frames[-1].get(1).x
        # a single stale plan treats the leader as frozen at its seed
        # position, so the follower brakes harder than when replanning
        assert gap_loose > gap_tight + 1.0

    def test_planning_call_count(self, following_scene, monkeypatch):
        _, seed = following_scene
        calls = []
        original = simulator.plan_path_follow

        def counting(view, spec, path, **kw):
            calls.append(view.self_id)
            return original(view, spec, path, **kw)

        monkeypatch.setattr(simulator, "plan_path_follow", counting)
        run_child(seed, cv_assignment(seed), SimConfig(replan_interval=7))
        assert len(calls) == math.ceil(30 / 7) * 2

    def test_plan_horizon_covers_replan_interval(self, following_scene):
        _, seed = following_scene
        log = run_child(seed, cv_assignment(seed),
                        SimConfig(horizon_steps=45, replan_interval=45))
        assert len(log.frames) == 45
        assert log.frames[-1].get(1).x == pytest.approx(105.0)


class TestBatches:
    def test_run_batch_shape_and_order(self, following_scene, roster6):
        graph, seed = following_scene
        batch = run_batch(seed, roster6, n_runs=10)
        assert len(batch.children) == 10
        assert [c.index for c in batch.children] == list(range(10))
        assert batch.n_failed == 0

    def test_run_batch_deterministic(self, following_scene, roster6):
        _, seed = following_scene
        a = run_batch(seed, roster6, n_runs=6)
        b = run_batch(seed, roster6, n_runs=6)
        for ca, cb in zip(a.children, b.children):
            assert ca.log.frames == cb.log.frames

    def test_jobs_do_not_change_results(self, following_scene, roster6):
        _, seed = following_scene
        serial = run_batch(seed, roster6, n_runs=8, jobs=1)
        parallel = run_batch(seed, roster6, n_runs=8, jobs=2)
        for cs, cp in zip(serial.children, parallel.children):
            assert cs.log.frames == cp.log.frames

    def test_child_seeds_are_xor_derived(self, following_scene, roster6):
        _, seed = following_scene
        cfg = SimConfig(rng_seed=12)
        batch = run_batch(seed, roster6, n_runs=3, cfg=cfg)
        assert [c.assignment.run_seed for c in batch.children] == [12, 13, 14]

    def test_single_run_batch(self, following_scene, roster6):
        _, seed = following_scene
        batch = run_batch(seed, roster6, n_runs=1)
        assert len(batch.children) == 1
        assert batch.children[0].log is not None

    def test_run_enumerated_small(self, following_scene):
        _, seed = following_scene
        roster = [ModelSpec("constant_velocity"), ModelSpec("emergency_brake")]
        batch = run_enumerated(seed, roster)
        assert len(batch.children) == 4
        assert batch.n_failed == 0
        finals = {tuple(c.assignment.kinds().values()):
                  c.log.frames[-1].get(1).x for c in batch.children}
        # the rear vehicle's outcome depends only on its own model here
        assert finals[("constant_velocity", "constant_velocity")] == pytest.approx(90.0)
        assert finals[("emergency_brake", "constant_velocity")] == pytest.approx(70.0)


def assert_children_run_alone(batch, seed, cfg=SimConfig()):
    """Every child of `batch` equals its assignment run by itself, bit for bit,
    or fails the same way."""
    for child in batch.children:
        try:
            alone = run_child(seed, child.assignment, cfg)
        except ChildRunError as exc:
            assert not child.ok
            assert (child.error, child.track_id, child.step, child.model_kind,
                    child.error_class) == (str(exc), exc.track_id, exc.step,
                                           exc.model_kind,
                                           type(exc.__cause__).__name__)
            continue
        assert child.ok
        assert child.log.digest == alone.digest
        assert child.log.frames == alone.frames


@pytest.fixture
def planner_calls(monkeypatch):
    calls = []
    original = simulator.plan_path_follow

    def counting(view, spec, path):
        calls.append(view.self_id)
        return original(view, spec, path)

    monkeypatch.setattr(simulator, "plan_path_follow", counting)
    return calls


def bend_map():
    from tests.conftest import lane

    return MapGraph([lane("main", [(0.0, 0.0), (40.0, 0.0), (80.0, 30.0)])])


class TestPlanMemo:
    def test_fork_map_with_integer_selectors(self, t_junction_map, planner_calls):
        seed = seed_of(t_junction_map, (1, 5.0, 0.0, 0.0, 8.0),
                       (2, 20.0, 0.0, 0.0, 10.0), (3, 35.0, 0.0, 0.0, 10.0))
        roster = [ModelSpec("standard", route_selector=1),
                  ModelSpec("risky", route_selector=0),
                  ModelSpec("constant_velocity", route_selector=1),
                  ModelSpec("emergency_brake"), ModelSpec("standard")]
        batch = run_enumerated(seed, roster)
        in_batch = len(planner_calls)
        assert batch.n_failed == 0
        assert {c.log.frames[-1].get(3).y > 1.0 for c in batch.children} == {
            True, False}  # some children turn onto C
        assert_children_run_alone(batch, seed)
        assert in_batch < (len(planner_calls) - in_batch) / 2

    def test_path_resolved_only_for_a_plan(self, t_junction_map, planner_calls,
                                           monkeypatch):
        # a path is resolved once per distinct (own state, route selector,
        # seed lane) of a path follower at a replan, before its plan lookup;
        # `map_model.state_path` is the one caller of `path_for_pose`
        path_calls = []
        original = map_model.path_for_pose

        def counting(*args):
            path_calls.append(args)
            return original(*args)

        monkeypatch.setattr(map_model, "path_for_pose", counting)
        seed = seed_of(t_junction_map, (1, 5.0, 0.0, 0.0, 8.0),
                       (2, 20.0, 0.0, 0.0, 10.0), (3, 35.0, 0.0, 0.0, 10.0))
        roster = [ModelSpec("standard", route_selector=1),
                  ModelSpec("risky", route_selector=0),
                  ModelSpec("constant_velocity"), ModelSpec("replay")]
        batch = run_enumerated(seed, roster)
        assert batch.n_failed == 0
        cfg = SimConfig()
        inputs = set()
        for child in batch.children:
            frames = (seed.current,) + child.log.frames  # the frame of each step
            for tid, spec in child.assignment.mapping.items():
                if spec.kind == "replay":
                    continue
                seed_lane = match_seed_lane(t_junction_map, seed.current.get(tid),
                                            spec.route_selector)
                for step in range(0, cfg.horizon_steps, cfg.replan_interval):
                    inputs.add((frames[step].get(tid).key, spec.route_selector,
                                seed_lane))
        assert len(path_calls) == len(inputs) > 0
        assert len(planner_calls) > 0

    def test_planner_and_engine_share_one_store(self, t_junction_map, monkeypatch):
        # a batch run with the engine's `memo` as its `plan_memo`, then scored
        # by that engine: a path is resolved once per distinct (own state,
        # route selector, seed lane) across the planner and the engine
        # together, and the fingerprints are those of an engine of its own
        path_calls = []
        original = map_model.path_for_pose

        def counting(*args):
            path_calls.append(args)
            return original(*args)

        monkeypatch.setattr(map_model, "path_for_pose", counting)
        seed = seed_of(t_junction_map, (1, 5.0, 0.0, 0.0, 8.0),
                       (2, 20.0, 0.0, 0.0, 10.0), (3, 35.0, 0.0, 0.0, 10.0))
        roster = [ModelSpec("standard", route_selector=1),
                  ModelSpec("risky", route_selector=0),
                  ModelSpec("constant_velocity", route_selector=1), ModelSpec("replay")]
        engine = MetricEngine(t_junction_map)
        batch = run_enumerated(seed, roster, plan_memo=engine.memo)
        assert batch.n_failed == 0
        vectors = [engine.aggregate(c.log, c.assignment) for c in batch.children]
        cfg = SimConfig()
        planned, scored = set(), set()
        for child in batch.children:
            frames = (seed.current,) + child.log.frames  # the frame of each step
            for tid, spec in child.assignment.mapping.items():
                seed_lane = match_seed_lane(t_junction_map, seed.current.get(tid),
                                            spec.route_selector)
                route = (spec.route_selector, seed_lane)
                if seed_lane is None:
                    route = ("straightest", None)
                scored |= {(frame.get(tid).key, *route) for frame in child.log.frames}
                if spec.kind != "replay":
                    planned |= {(frames[step].get(tid).key, *route)
                                for step in range(0, cfg.horizon_steps,
                                                  cfg.replan_interval)}
        assert len(path_calls) == len(planned | scored)
        assert planned & scored  # each side resolved some paths for the other
        monkeypatch.setattr(map_model, "path_for_pose", original)
        for child, vector in zip(batch.children, vectors):
            alone = MetricEngine(t_junction_map).aggregate(child.log, child.assignment)
            oracle = oracles.aggregate(MetricEngine(t_junction_map), child.log,
                                       child.assignment)
            assert exact(vector) == exact(alone) == exact(oracle)

    def test_mapless_seed(self, planner_calls):
        seed = seed_of(None, (1, 0.0, 0.0, 0.3, 9.0), (2, 20.0, 5.0, 0.3, 7.0))
        roster = [ModelSpec("standard"), ModelSpec("risky"),
                  ModelSpec("constant_velocity"), ModelSpec("emergency_brake")]
        batch = run_enumerated(seed, roster)
        in_batch = len(planner_calls)
        assert batch.n_failed == 0
        assert_children_run_alone(batch, seed)
        assert in_batch < (len(planner_calls) - in_batch) / 2

    def test_batches_do_not_leak_into_each_other(self, straight_map):
        vehicles = [(1, 10.0, 0.0, 0.0, 8.0), (2, 30.0, 0.0, 0.0, 10.0)]
        roster = [ModelSpec("standard"), ModelSpec("risky"),
                  ModelSpec("constant_velocity")]
        straight = seed_of(straight_map, *vehicles)
        bend = seed_of(bend_map(), *vehicles)  # same states, other paths
        alone = {name: [c.log.digest for c in run_enumerated(seed, roster).children]
                 for name, seed in (("straight", straight), ("bend", bend))}
        assert alone["straight"] != alone["bend"]
        for name, seed in (("bend", bend), ("straight", straight), ("bend", bend)):
            again = [c.log.digest for c in run_enumerated(seed, roster).children]
            assert again == alone[name]

    def test_shared_memo_tells_paths_apart(self, straight_map):
        vehicles = [(1, 10.0, 0.0, 0.0, 8.0), (2, 30.0, 0.0, 0.0, 10.0)]
        spec = ModelSpec("standard")
        a = simulator.Assignment({1: spec, 2: spec}, ("sampled", 0))
        memo = {}
        first = run_child(seed_of(straight_map, *vehicles), a, plan_memo=memo)
        bend = seed_of(bend_map(), *vehicles)
        second = run_child(bend, a, plan_memo=memo)
        assert second.digest != first.digest
        assert second.digest == run_child(bend, a).digest

    def test_shared_memo_tells_seed_lanes_apart(self, double_branch_map):
        a = simulator.Assignment(
            {1: ModelSpec("constant_velocity", route_selector=1)}, ("sampled", 0))
        first_seed = seed_of(double_branch_map, (1, 9.0, 0.0, 0.0, 15.0))
        memo = {}
        first = run_child(first_seed, a, plan_memo=memo)
        # the second seed starts at the first child's state of its step-5
        # replan, on lane C: the first child, past its seed lane A, took C's
        # straightest route there; the second applies route selector 1 on C
        history = (first_seed.frames + first.frames[:5])[-10:]
        second_seed = SeedScene(double_branch_map, history)
        alone = run_child(second_seed, a)
        assert run_child(second_seed, a, plan_memo=memo).digest == alone.digest
        assert alone.frames[:5] != first.frames[5:10]  # the routes part ways

    def test_signed_zero_is_another_input(self, planner_calls, tmp_path):
        # a vehicle without a map drives along its yaw, 0.0 or -0.0, which
        # its planned yaw and vy carry on
        a = simulator.Assignment({1: ModelSpec("standard")}, ("sampled", 0))
        memo = {}
        logs = []
        for yaw in (0.0, -0.0):
            seed = seed_of(None, (1, 10.0, 0.0, yaw, 8.0))
            logs.append(run_child(seed, a, plan_memo=memo))
            assert logs[-1].digest == run_child(seed, a).digest
        # each child planned every replan itself: no key matched across them
        assert len(planner_calls) == 4 * 6
        assert len(memo["plans"]) == 2 * 6
        assert logs[0].frames == logs[1].frames  # equal as numbers only
        assert logs[0].digest != logs[1].digest
        write_log(logs[0], tmp_path / "plus.csv")
        write_log(logs[1], tmp_path / "minus.csv")
        plus = (tmp_path / "plus.csv").read_text()
        minus = (tmp_path / "minus.csv").read_text()
        assert minus != plus
        assert "-0.0," not in plus
        unsigned = [",".join("0.0" if f == "-0.0" else f for f in line.split(","))
                    for line in minus.splitlines()]
        assert unsigned == plus.splitlines()

    def test_failing_spec_fails_every_child_that_draws_it(self, following_scene):
        _, seed = following_scene
        # v0 = 1e-300 makes (v / v0) ** delta overflow in the IDM law
        overflow = ModelSpec("standard", params=profile_params("standard", v0=1e-300))
        roster = [overflow, ModelSpec("constant_velocity")]
        for jobs in (1, 2):
            batch = run_enumerated(seed, roster, jobs=jobs)
            assert batch.n_failed == 3
            for child in batch.failures:
                assert (child.step, child.model_kind, child.error_class) == (
                    0, "standard", "OverflowError")
                assert child.assignment.mapping[child.track_id] == overflow
            assert_children_run_alone(batch, seed)


class TestBatchMemo:
    """The batch memo's resolved specs and replay plans, made once per seed."""

    def test_children_equal_fresh_memo_runs(self, straight_map):
        seed = extract_seed(replay_case(), 9, map_graph=straight_map)
        roster = [ModelSpec("standard"),
                  ModelSpec("risky", params=profile_params("risky", 15.0)),
                  ModelSpec("constant_velocity"), ModelSpec("emergency_brake"),
                  ModelSpec("replay")]
        batch = run_enumerated(seed, roster)
        assert len(batch.children) == 25 and batch.n_failed == 0
        assert_children_run_alone(batch, seed)

    def test_replay_planned_once_per_track_and_replan_step(self, monkeypatch, roster6):
        calls = []
        original = simulator.plan_replay

        def counting(view, recorded, current_index):
            calls.append((view.self_id, current_index, view.horizon_steps))
            return original(view, recorded, current_index)

        monkeypatch.setattr(simulator, "plan_replay", counting)
        _, seed = synth_scene("car_following", {"n_vehicles": 3})
        batch = run_enumerated(seed, roster6)
        assert batch.n_failed == 0
        cfg = SimConfig()
        base = len(seed.frames) - 1
        assert sorted(calls) == [(tid, base + step, cfg.replan_interval)
                                 for tid in seed.track_ids
                                 for step in range(0, cfg.horizon_steps, cfg.replan_interval)]

    def test_shared_memo_gives_each_seed_its_own_replay(self):
        case = replay_case()
        moved = Case(case.case_id, case.frames[:10] + tuple(
            SceneFrame(f.timestamp_ms, tuple(replace(s, y=1.0) for s in f.states))
            for f in case.frames[10:]))
        seeds = [extract_seed(c, 9) for c in (case, moved)]
        assert seeds[0].frames == seeds[1].frames  # one history, two futures
        spec = ModelSpec("replay")
        a = simulator.Assignment({tid: spec for tid in seeds[0].track_ids}, ("sampled", 0))
        memo = {}
        for seed in seeds + seeds[:1]:
            assert run_child(seed, a, plan_memo=memo).frames == seed.future[:30]

    def test_shared_memo_resolves_each_seeds_target_speed(self, straight_map):
        # a standard driver without v0 targets its seed's current speed
        a = simulator.Assignment({1: ModelSpec("standard")}, ("sampled", 0))
        memo = {}
        for speed in (6.0, 12.0, 6.0):
            seed = seed_of(straight_map, (1, 10.0, 0.0, 0.0, speed))
            log = run_child(seed, a, plan_memo=memo)
            assert log.digest == run_child(seed, a).digest
            assert log.frames[-1].get(1).speed == pytest.approx(speed)


@pytest.fixture
def child_runs(monkeypatch):
    """The assignments `run_child` simulates in this process."""
    runs = []
    original = simulator.run_child

    def counting(seed, assignment, *args, **kwargs):
        runs.append(assignment)
        return original(seed, assignment, *args, **kwargs)

    monkeypatch.setattr(simulator, "run_child", counting)
    return runs


def spec_tuple(seed, assignment):
    return tuple(assignment.mapping[tid] for tid in seed.track_ids)


def child_bits(batch):
    return [(c.index, c.assignment, c.log and c.log.digest, c.error, c.track_id,
             c.step, c.model_kind, c.error_class) for c in batch.children]


class TestPlanKey:
    """A path follower's plan is stored under the planner's whole input: its
    own state, spec, path and steps, and, for an IDM driver, every
    neighbour ahead on its path, not the rest of the frame."""

    def test_passing_a_slower_neighbour(self, straight_map, planner_calls):
        # the standard driver 1 is too fast to stop behind the slow 2 and
        # passes it in the replan interval that starts at step 5; 3 then
        # leads, and where 3 is at step 5 depends on its own model
        seed = seed_of(straight_map, (1, 10.0, 0.0, 0.0, 25.0),
                       (2, 25.0, 0.0, 0.0, 2.0), (3, 50.0, 0.0, 0.0, 20.0))
        roster = [ModelSpec("standard"), ModelSpec("constant_velocity"),
                  ModelSpec("emergency_brake")]
        batch = run_enumerated(seed, roster)
        in_batch = len(planner_calls)
        assert batch.n_failed == 0
        assert_children_run_alone(batch, seed)
        assert in_batch < (len(planner_calls) - in_batch) / 2
        third_at_5 = set()
        for child in batch.children:
            kinds = child.assignment.kinds()
            if (kinds[1], kinds[2]) != ("standard", "constant_velocity"):
                continue
            frames = (seed.current,) + child.log.frames
            ahead = [frames[k].get(2).x > frames[k].get(1).x for k in range(11)]
            assert ahead == [True] * 8 + [False] * 3  # passed within steps 5-9
            third_at_5.add(frames[5].get(3).x)
        assert len(third_at_5) == 2  # emergency braking, or not

    def test_neighbours_tied_on_station(self, straight_map, planner_calls):
        # 2 and 3 stand side by side 50 m ahead of 1, both within the
        # clearance of its path; the planner orders them by speed, then
        # length, and follows the first. One memo serves every seed.
        def seed(speed_2, length_2, speed_3, length_3):
            return SeedScene(straight_map, (SceneFrame(100, (
                ParticipantState(1, "car", 10.0, 0.0, 0.0, 15.0, 0.0),
                ParticipantState(2, "car", 60.0, 1.0, 0.0, speed_2, 0.0, length_2),
                ParticipantState(3, "car", 60.0, -1.0, 0.0, speed_3, 0.0, length_3),
            )),))

        seeds = [seed(8.0, 5.0, 8.0, 4.0), seed(8.0, 4.0, 8.0, 5.0),
                 seed(8.0, 5.0, 8.0, 3.0), seed(6.0, 5.0, 8.0, 5.0),
                 seed(8.0, 5.0, 8.0, 5.0)]
        memo = {}
        firsts = []
        for one in ("standard", "risky"):
            for others in (("constant_velocity",) * 2,
                           ("constant_velocity", "emergency_brake")):
                specs = map(ModelSpec, (one,) + others)
                a = simulator.Assignment(dict(zip((1, 2, 3), specs)), ("sampled", 0))
                for s in seeds:
                    log = run_child(s, a, plan_memo=memo)
                    alone = run_child(s, a)
                    assert log.digest == alone.digest
                    firsts.append(tuple(f.get(1) for f in log.frames))
        # the first two seeds differ only in which track holds which length
        assert firsts[0] == firsts[1] and firsts[0] != firsts[2]
        in_memo = len(memo["plans"])
        assert in_memo < len(planner_calls) - in_memo

    def test_lead_vehicle_planned_once_per_own_state(self, planner_calls):
        _, seed = synth_scene("car_following", {"n_vehicles": 3})
        roster = [ModelSpec("standard"), ModelSpec("risky"),
                  ModelSpec("constant_velocity"), ModelSpec("emergency_brake"),
                  ModelSpec("replay")]
        batch = run_enumerated(seed, roster)
        assert batch.n_failed == 0
        lead = max(seed.current.states, key=lambda s: s.x).track_id
        cfg = SimConfig()
        inputs = set()
        for child in batch.children:
            spec = child.assignment.mapping[lead]
            if spec.kind == "replay":
                continue
            frames = (seed.current,) + child.log.frames
            for step in range(0, cfg.horizon_steps, cfg.replan_interval):
                inputs.add((spec, frames[step].get(lead).key))
        # nothing is ahead of the lead, so each of its four models plans one
        # trajectory, whatever the 25 assignments of its followers; a stopped
        # emergency braker's last two replans start from one state
        assert planner_calls.count(lead) == len(inputs) == 4 * 6 - 1


class TestDistinctAssignments:
    """A batch simulates each distinct tuple of specs once; a repeat gets the
    first child's log, or its failure, under its own index and assignment."""

    def test_equal_roster_slots_run_once(self, following_scene, roster6, child_runs):
        _, seed = following_scene
        batch = run_enumerated(seed, roster6)
        # the two replay slots are equal specs: 5 distinct per vehicle
        assert len(child_runs) == len({spec_tuple(seed, a) for a in child_runs}) == 25
        assert [c.index for c in batch.children] == list(range(36))
        logs = {}  # spec tuple -> the log of its first child
        for child in batch.children:
            assert logs.setdefault(spec_tuple(seed, child.assignment),
                                   child.log) is child.log
            assert child.log.seed is seed
        assert len({id(log) for log in logs.values()}) == 25
        assert_children_run_alone(batch, seed)

    def test_sampled_repeats_run_once(self, following_scene, roster6, child_runs):
        _, seed = following_scene
        batch = run_batch(seed, roster6, n_runs=40)
        distinct = {spec_tuple(seed, c.assignment) for c in batch.children}
        assert len(child_runs) == len(distinct) < 40
        assert [c.assignment.run_seed for c in batch.children] == list(range(40))
        assert_children_run_alone(batch, seed)

    def test_failing_spec_tuple_fails_every_repeat(self, following_scene, child_runs):
        _, seed = following_scene
        # v0 = 1e-300 makes (v / v0) ** delta overflow in the IDM law
        overflow = ModelSpec("standard", params=profile_params("standard", v0=1e-300))
        roster = [overflow, ModelSpec("constant_velocity"), overflow]
        batch = run_enumerated(seed, roster)
        assert len(child_runs) == 4
        assert batch.n_failed == 8
        assert [c.index for c in batch.children] == list(range(9))
        failures = {}
        for child in batch.failures:
            failures.setdefault(spec_tuple(seed, child.assignment), set()).add(
                (child.error, child.track_id, child.step, child.model_kind,
                 child.error_class))
        assert len(failures) == 3
        assert all(len(fields) == 1 for fields in failures.values())
        assert_children_run_alone(batch, seed)

    def test_jobs_do_not_change_repeats(self, following_scene, roster6):
        _, seed = following_scene
        overflow = ModelSpec("risky", params=profile_params("risky", v0=1e-300))
        roster = roster6 + [overflow, overflow]
        serial = run_enumerated(seed, roster, jobs=1)
        assert serial.n_failed > 0
        assert child_bits(serial) == child_bits(run_enumerated(seed, roster, jobs=2))

    def test_pool_children_hold_the_parents_seed(self, roster6):
        # a worker sends back frames only, not an unpickled copy of the seed
        _, seed = synth_scene("car_following", {"n_vehicles": 4})
        batch = run_enumerated(seed, roster6[:5], jobs=2)
        assert len(batch.children) == 625 and batch.n_failed == 0
        assert all(child.log.seed is seed for child in batch.children)


def test_batch_packs_each_state_object_once(monkeypatch, roster6):
    # the plan, path and projection memos and the metric engine all key on
    # `ParticipantState.key`; a state is packed once, whoever asks first
    packed = []
    original = ParticipantState.__dict__["key"].func

    def counting(state):
        packed.append(state)
        return original(state)

    key = cached_property(counting)
    key.__set_name__(ParticipantState, "key")
    monkeypatch.setattr(ParticipantState, "key", key)
    graph, seed = synth_scene("car_following", {"n_vehicles": 3})
    batch = run_enumerated(seed, roster6)
    engine = MetricEngine(graph)
    for child in batch.children:
        engine.aggregate(child.log, child.assignment)
    held = {id(s) for child in batch.children
            for frame in (seed.current,) + child.log.frames for s in frame.states}
    assert len({id(s) for s in packed}) == len(packed) > 0
    assert {id(s) for s in packed} <= held


class TestCurrentFrameOnly:
    """A child depends on the seed's current frame alone, as the plan memo's
    key does: a seed of that one frame gives the same child."""

    @staticmethod
    def assert_same_child(seed, mapping):
        assert len(seed.frames) > 1
        a = simulator.Assignment(mapping, ("sampled", 0))
        full = run_child(seed, a)
        alone = run_child(SeedScene(seed.map_graph, (seed.current,), seed.case_id,
                                    seed.future), a)
        assert alone.frames == full.frames
        assert alone.digest == full.digest

    @pytest.mark.parametrize("kind", ["standard", "risky", "constant_velocity",
                                      "emergency_brake", "replay"])
    def test_each_kind(self, following_scene, kind):
        _, seed = following_scene
        self.assert_same_child(seed, {tid: ModelSpec(kind) for tid in seed.track_ids})

    def test_replay_of_a_recording(self):
        case = replay_case()
        seed = extract_seed(case, 9)
        self.assert_same_child(seed, {tid: ModelSpec("replay") for tid in seed.track_ids})

    def test_route_selector_on_a_fork(self, t_junction_map):
        seed = seed_of(t_junction_map, (1, 30.0, 0.0, 0.0, 10.0),
                       (2, 45.0, 0.0, 0.0, 6.0))
        self.assert_same_child(seed, {1: ModelSpec("standard", route_selector=1),
                                      2: ModelSpec("risky", route_selector=0)})


class StubPool:
    """Stands in for `ProcessPoolExecutor`, which `simulator._run_pool` imports
    from `concurrent.futures.process` when it starts a pool: records
    `max_workers` and runs the tasks in this process, one worker's state for
    all of them."""

    started = []

    def __init__(self, max_workers, initializer, initargs):
        self.started.append(max_workers)
        initializer(*initargs)

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self, cancel_futures=False):
        simulator._WORKER_CTX.clear()


class DyingStubPool(StubPool):
    """A `StubPool` whose worker dies in its second task."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.submitted = 0

    def submit(self, fn, *args):
        self.submitted += 1
        if self.submitted == 2:
            future = Future()
            future.set_exception(BrokenProcessPool("a process in the pool died"))
            return future
        return super().submit(fn, *args)


def test_dead_worker_fails_the_children_of_its_task(monkeypatch, roster6):
    # 216 children, 125 distinct: task 0 runs distinct children 0-63, task 1
    # the other 61, and the repeats of each take its outcome
    monkeypatch.setattr(process, "ProcessPoolExecutor", DyingStubPool)
    monkeypatch.setattr(simulator, "available_cpus", lambda: 2)
    _, seed = synth_scene("car_following", {"n_vehicles": 3})
    batch = run_enumerated(seed, roster6, jobs=2)
    serial = run_enumerated(seed, roster6, jobs=1)
    rank = {}  # spec tuple -> its place among the distinct children
    for child in serial.children:
        rank.setdefault(spec_tuple(seed, child.assignment), len(rank))
    assert len(rank) == 125 and 0 < batch.n_failed < 216
    for child, alone in zip(batch.children, serial.children):
        assert (child.index, child.assignment) == (alone.index, alone.assignment)
        if rank[spec_tuple(seed, child.assignment)] < simulator.CHUNK_SIZE:
            assert child.log.digest == alone.log.digest and child.log.seed is seed
            continue
        assert (child.log, child.error, child.error_class) == (
            None, "a process in the pool died", "BrokenProcessPool")
        assert (child.track_id, child.step, child.model_kind) == (None, None, None)


class TestPoolBound:
    @pytest.fixture
    def started(self, monkeypatch):
        monkeypatch.setattr(process, "ProcessPoolExecutor", StubPool)
        monkeypatch.setattr(StubPool, "started", [])
        return StubPool.started

    @pytest.mark.parametrize("jobs, cpus, workers", [
        (100_000, 64, 9), (100_000, 4, 4), (3, 64, 3), (2, 2, 2), (100_000, 1, None),
        (1, 64, None)])
    def test_workers_bounded_by_cpus_and_distinct_children(
            self, following_scene, monkeypatch, started, jobs, cpus, workers):
        _, seed = following_scene
        roster = [ModelSpec("standard"), ModelSpec("constant_velocity"),
                  ModelSpec("emergency_brake"), ModelSpec("standard")]
        monkeypatch.setattr(simulator, "available_cpus", lambda: cpus)
        batch = run_enumerated(seed, roster, jobs=jobs)
        assert started == ([] if workers is None else [workers])
        assert len(batch.children) == 16  # 9 distinct assignments
        serial = run_enumerated(seed, roster, jobs=1)
        assert [c.log.digest for c in batch.children] == \
            [c.log.digest for c in serial.children]

    def test_one_distinct_child_runs_serially(self, following_scene, started):
        _, seed = following_scene
        run_batch(seed, [ModelSpec("constant_velocity")], n_runs=50, jobs=100_000)
        assert started == []
