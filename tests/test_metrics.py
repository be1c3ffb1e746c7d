import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenex.behavior import ModelSpec
from scenex.errors import OffMapError, RouteSelectionError, SchemaError
from scenex.geometry import Polyline
from scenex.map_model import MapGraph, match_seed_lane, path_for_pose, path_intersection
from scenex.metrics import (
    DEFAULT_METRICS,
    MAX_IS_WORST,
    MetricEngine,
    MetricStats,
    PairContext,
    effective_radius,
    metric_inverse_ttc,
    metric_pttc,
    metric_wttc,
    read_metric_table,
    write_metric_table,
)
from scenex.scene_io import (
    ParticipantState,
    SceneFrame,
    ScenarioLog,
    SeedScene,
    synth_scene,
    write_log,
)
from scenex.simulator import SimConfig, run_enumerated
from tests import oracles
from tests.oracles import bits


def state(tid, x, y=0.0, yaw=0.0, vx=0.0, vy=0.0, length=4.5, width=1.8):
    return ParticipantState(tid, "car", x, y, yaw, vx, vy, length, width)


def pair_value(metric, ctx):
    """One metric of an ordered pair, from `MetricEngine.pair_values`."""
    return MetricEngine(None).pair_values(ctx)[metric]


def distance(a, b):
    return pair_value("distance", PairContext(a, b))


def gap_time(ctx):
    return pair_value("gap_time", ctx)


def following_ctx(s_net, delta_v, v_leader, v_follower=None, **dims):
    if v_follower is None:
        v_follower = v_leader + delta_v
    a = state(1, 0.0, vx=v_follower, **dims)
    b = state(2, s_net + 4.5, vx=v_leader, **dims)
    return PairContext(a, b, s_net=s_net, delta_v=delta_v)


def pttc_gap(ctx, b_p, t):
    """Independent piecewise gap evaluation for the braking-leader model."""
    t_stop = ctx.b.speed / b_p
    if t <= t_stop:
        return ctx.s_net - ctx.delta_v * t - 0.5 * b_p * t * t
    g_stop = ctx.s_net - ctx.delta_v * t_stop - 0.5 * b_p * t_stop * t_stop
    return g_stop - ctx.a.speed * (t - t_stop)


def wttc_gap(ctx, a_w, t):
    d = math.hypot(ctx.a.x - ctx.b.x, ctx.a.y - ctx.b.y)
    r = effective_radius(ctx.a) + effective_radius(ctx.b)
    return d - r - (ctx.a.speed + ctx.b.speed) * t - a_w * t * t


def bisect_root(f, lo, hi, tol=1e-12):
    assert f(lo) > 0.0 >= f(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


class TestDistance:
    def test_identical_centers(self):
        assert distance(state(1, 0.0), state(2, 0.0)) == 0.0

    def test_three_four_five(self):
        assert distance(state(1, 0.0), state(2, 3.0, 4.0)) == 5.0

    def test_symmetric_and_linear(self):
        rng = random.Random(0)
        for _ in range(50):
            a = state(1, rng.uniform(-50, 50), rng.uniform(-50, 50))
            b = state(2, rng.uniform(-50, 50), rng.uniform(-50, 50))
            d = distance(a, b)
            assert d == distance(b, a)
            scaled = distance(
                state(1, 2 * a.x, 2 * a.y), state(2, 2 * b.x, 2 * b.y))
            assert scaled == pytest.approx(2 * d)


class TestInverseTtc:
    def test_closing_gap(self):
        assert metric_inverse_ttc(following_ctx(20.0, 5.0, 5.0)) == pytest.approx(0.25)

    def test_opening_gap_zero(self):
        assert metric_inverse_ttc(following_ctx(20.0, -2.0, 10.0)) == 0.0

    def test_not_following_undefined(self):
        ctx = PairContext(state(1, 0.0), state(2, 10.0), d_self=5.0, d_other=5.0)
        assert metric_inverse_ttc(ctx) is None

    def test_halves_when_gap_doubles(self):
        a = metric_inverse_ttc(following_ctx(15.0, 3.0, 8.0))
        b = metric_inverse_ttc(following_ctx(30.0, 3.0, 8.0))
        assert a == pytest.approx(2 * b)


class TestPttc:
    def test_piecewise_example(self):
        # leader at 6 m/s stops after 2 s having closed 6 m of the 18 m gap;
        # the follower covers the remaining 12 m at 6 m/s
        ctx = following_ctx(18.0, 0.0, 6.0)
        assert metric_pttc(ctx, decel=3.0) == pytest.approx(4.0)

    def test_gap_closes_before_leader_stops(self):
        ctx = following_ctx(1.5, 0.0, 6.0)
        assert metric_pttc(ctx, decel=3.0) == pytest.approx(1.0)

    def test_stopped_follower_opening_gap_undefined(self):
        ctx = following_ctx(10.0, -6.0, 6.0, v_follower=0.0)
        assert metric_pttc(ctx, decel=3.0) is None

    def test_not_following_undefined(self):
        assert metric_pttc(PairContext(state(1, 0.0), state(2, 9.0))) is None

    def test_agrees_with_bisection(self):
        rng = random.Random(1)
        for _ in range(1000):
            ctx = following_ctx(rng.uniform(0.5, 60.0), 0.0,
                                rng.uniform(0.0, 20.0),
                                v_follower=rng.uniform(0.1, 25.0))
            ctx = PairContext(ctx.a, ctx.b, ctx.s_net,
                              ctx.a.speed - ctx.b.speed)
            t = metric_pttc(ctx, decel=3.0)
            oracle = bisect_root(lambda u: pttc_gap(ctx, 3.0, u), 0.0, 1000.0)
            assert t == pytest.approx(oracle, abs=1e-6)


class TestWttc:
    def test_overlap_zero(self):
        assert metric_wttc(PairContext(state(1, 0.0), state(2, 1.0))) == 0.0

    def test_static_unit_discs(self):
        # r = 1 each, 18 m of clear gap, growth ½·a_w·t² per disc
        a = state(1, 0.0, length=1.6, width=1.2)
        b = state(2, 20.0, length=1.6, width=1.2)
        t = metric_wttc(PairContext(a, b), accel=7.5)
        assert t == pytest.approx(math.sqrt(18.0 / 7.5), abs=1e-9)
        assert t == pytest.approx(1.549, abs=1e-3)

    def test_symmetric(self):
        rng = random.Random(2)
        for _ in range(100):
            a = state(1, rng.uniform(-40, 40), rng.uniform(-40, 40),
                      vx=rng.uniform(-15, 15), vy=rng.uniform(-15, 15))
            b = state(2, rng.uniform(-40, 40), rng.uniform(-40, 40),
                      vx=rng.uniform(-15, 15), vy=rng.uniform(-15, 15))
            assert metric_wttc(PairContext(a, b)) == metric_wttc(PairContext(b, a))

    def test_agrees_with_bisection(self):
        rng = random.Random(3)
        for _ in range(1000):
            a = state(1, 0.0, vx=rng.uniform(0, 20))
            b = state(2, rng.uniform(6.0, 80.0), vx=rng.uniform(0, 20))
            ctx = PairContext(a, b)
            t = metric_wttc(ctx, accel=7.5)
            oracle = bisect_root(lambda u: wttc_gap(ctx, 7.5, u), 0.0, 100.0)
            assert t == pytest.approx(oracle, abs=1e-6)


class TestGapTime:
    def test_hand_arithmetic(self):
        ctx = PairContext(state(1, 0.0, vx=10.0), state(2, 50.0, vx=10.0),
                          d_self=20.0, d_other=30.0)
        assert gap_time(ctx) == pytest.approx(1.0)

    def test_equal_arrival_zero(self):
        ctx = PairContext(state(1, 0.0, vx=10.0), state(2, 50.0, vx=15.0),
                          d_self=20.0, d_other=30.0)
        assert gap_time(ctx) == pytest.approx(0.0)

    def test_no_conflict_undefined(self):
        assert gap_time(following_ctx(20.0, 0.0, 10.0)) is None

    def test_slow_participant_undefined(self):
        ctx = PairContext(state(1, 0.0, vx=0.05), state(2, 50.0, vx=10.0),
                          d_self=20.0, d_other=30.0)
        assert gap_time(ctx) is None

    def test_scale_invariant(self):
        base = PairContext(state(1, 0.0, vx=8.0), state(2, 50.0, vx=5.0),
                           d_self=24.0, d_other=35.0)
        doubled = PairContext(state(1, 0.0, vx=16.0), state(2, 100.0, vx=10.0),
                              d_self=48.0, d_other=70.0)
        assert gap_time(base) == pytest.approx(gap_time(doubled))


class TestOrdering:
    def test_pttc_and_wttc_bounded_by_ttc(self):
        rng = random.Random(4)
        for _ in range(2000):
            s = rng.uniform(1.0, 60.0)
            v_l = rng.uniform(0.0, 15.0)
            dv = rng.uniform(0.1, 10.0)
            ctx = following_ctx(s, dv, v_l)
            ttc = 1.0 / metric_inverse_ttc(ctx)
            assert metric_pttc(ctx, decel=3.0) <= ttc + 1e-12
            # align the disc pair with the following pair
            assert metric_wttc(ctx, accel=7.5) <= ttc + 1e-12


# a MetricEngine or SimConfig setting that is not a finite number > 0: a
# zero or negative PTTC deceleration or WTTC acceleration would divide by
# zero or take a root of a negative number at the first `aggregate`, a NaN
# one would write NaN fingerprints, and a NaN or negative route horizon
# would change which routes `enumerate_routes` returns
@pytest.mark.parametrize("value", [0.0, -3.0, math.nan, math.inf, -math.inf, True])
@pytest.mark.parametrize("make, field", [
    (lambda **kw: MetricEngine(None, **kw), "pttc_decel"),
    (lambda **kw: MetricEngine(None, **kw), "wttc_accel"),
    (lambda **kw: MetricEngine(None, **kw), "route_horizon"),
    (lambda **kw: SimConfig(**kw), "route_horizon"),
], ids=["engine-pttc_decel", "engine-wttc_accel", "engine-route_horizon",
        "simconfig-route_horizon"])
def test_setting_not_a_finite_positive_number_rejected(make, field, value):
    with pytest.raises(ValueError, match=f"^{field} must be a finite number > 0, "
                                         f"got {value!r}$"):
        make(**{field: value})
    assert getattr(make(**{field: 2}), field) == 2
    assert getattr(make(**{field: 0.5}), field) == 0.5


class TestEngine:
    def test_following_pair_detected(self, following_scene):
        graph, seed = following_scene
        engine = MetricEngine(graph)
        contexts = {(c.a.track_id, c.b.track_id): c
                    for c in engine.pair_contexts(seed.current)}
        rear_front = contexts[(1, 2)]
        assert rear_front.following
        assert rear_front.s_net == pytest.approx(20.0 - 4.5)
        assert rear_front.delta_v == pytest.approx(0.0)
        assert not contexts[(2, 1)].following

    def test_crossing_pair_has_conflict(self):
        graph, seed = synth_scene("crossing",
                                  {"distance_a": 30.0, "distance_b": 40.0})
        engine = MetricEngine(graph)
        contexts = {(c.a.track_id, c.b.track_id): c
                    for c in engine.pair_contexts(seed.current)}
        ctx = contexts[(1, 2)]
        assert ctx.crossing and not ctx.following
        assert ctx.d_self == pytest.approx(30.0)
        assert ctx.d_other == pytest.approx(40.0)

    def test_paths_intersected_once_per_pair_of_routes(self, monkeypatch):
        # 1 and 2 drive east, 1 by route selector 0, which picks the same
        # route as the straightest; 3 drives north across both
        graph, _ = synth_scene("crossing", {})
        east, north = graph.lane_path("east"), graph.lane_path("north")
        calls = []

        def counting(a, b):
            calls.append((a, b))
            return path_intersection(a, b)

        monkeypatch.setattr("scenex.metrics.path_intersection", counting)
        engine = MetricEngine(graph)
        for k in range(3):
            frame = SceneFrame(100 * (k + 1), (
                state(1, -30.0 + k, vx=10.0), state(2, -60.0 + k, vx=10.0),
                state(3, 0.0, -30.0 + k, yaw=math.pi / 2, vy=10.0)))
            assert "gap_time" in engine.frame_extrema(frame, {1: (0, "east")})
        assert len(calls) == 2
        assert calls[0][0] is east and calls[0][1] is north
        assert calls[1][0] is north and calls[1][1] is east

    def test_judged_on_own_lane_at_a_junction_node(self):
        from tests.conftest import lane

        # the incoming lane is Z, so the sibling B has the lowest id of the
        # three lanes that meet at (50, 0), where C starts
        graph = MapGraph([
            lane("Z", [(0.0, 0.0), (50.0, 0.0)], successors=("B", "C")),
            lane("B", [(50.0, 0.0), (150.0, 0.0)]),
            lane("C", [(50.0, 0.0), (60.0, 10.0), (60.0, 100.0)]),
        ])
        on_c = state(1, 53.54, 3.54, yaw=math.pi / 4, vx=5.0, vy=5.0)
        ahead_on_c = state(2, 60.0, 30.0, yaw=math.pi / 2, vy=5.0)
        assert path_for_pose(graph, on_c.x, on_c.y, on_c.yaw) is graph.lane_path("C")
        engine = MetricEngine(graph)
        contexts = {(c.a.track_id, c.b.track_id): c
                    for c in engine.pair_contexts(SceneFrame(100, (on_c, ahead_on_c)))}
        expected = math.hypot(10.0, 10.0) + 20.0 - math.hypot(3.54, 3.54) - 4.5
        assert contexts[(1, 2)].s_net == pytest.approx(expected)

    def test_offmap_participant_keeps_geometric_metrics(self, following_scene):
        graph, _ = following_scene
        engine = MetricEngine(graph)
        frame = SceneFrame(100, (state(1, 50.0), state(2, 50.0, y=40.0)))
        extrema = engine.frame_extrema(frame)
        assert extrema["distance"] == pytest.approx(40.0)
        assert "wttc" in extrema
        assert "inv_ttc" not in extrema and "gap_time" not in extrema

    def test_frame_extrema_min_over_pairs(self):
        engine = MetricEngine(None)
        frame = SceneFrame(100, (state(1, 0.0), state(2, 5.0), state(3, 12.0)))
        assert engine.frame_extrema(frame)["distance"] == pytest.approx(5.0)

    def test_single_vehicle_frame_empty(self):
        engine = MetricEngine(None)
        assert engine.frame_extrema(SceneFrame(100, (state(1, 0.0),))) == {}

    def test_constant_scene_worst_equals_mean(self, following_scene):
        graph, seed = following_scene
        engine = MetricEngine(graph)
        frames = tuple(SceneFrame(100 * (k + 1), seed.current.states)
                       for k in range(30))
        vector = engine.aggregate(ScenarioLog(seed, frames), None)
        for stats in vector.values():
            assert stats.worst == pytest.approx(stats.mean_of_extrema)
            assert stats.defined_frames == 30

    def test_worst_at_least_as_critical_as_mean(self, following_scene):
        graph, seed = following_scene
        engine = MetricEngine(graph)
        rng = random.Random(5)
        frames = tuple(
            SceneFrame(100 * (k + 1), (
                state(1, rng.uniform(0, 40), vx=rng.uniform(0, 15)),
                state(2, rng.uniform(45, 95), vx=rng.uniform(0, 15)),
            ))
            for k in range(20)
        )
        vector = engine.aggregate(ScenarioLog(seed, frames), None)
        for metric, stats in vector.items():
            if metric in MAX_IS_WORST:
                assert stats.worst >= stats.mean_of_extrema - 1e-12
            else:
                assert stats.worst <= stats.mean_of_extrema + 1e-12

    def test_aggregate_matches_brute_force(self, following_scene):
        graph, seed = following_scene
        rng = random.Random(6)
        for _ in range(20):
            engine = MetricEngine(graph)
            frames = tuple(
                SceneFrame(100 * (k + 1), tuple(
                    state(t, rng.uniform(0, 95), y=rng.uniform(-1, 1),
                          vx=rng.uniform(0, 15))
                    for t in (1, 2, 3)
                ))
                for k in range(10)
            )
            log = ScenarioLog(seed, frames)
            vector = engine.aggregate(log, None)
            # brute force over every (frame, ordered pair, metric) triple
            per_metric = {}
            for frame in frames:
                frame_vals = {}
                for ctx in engine.pair_contexts(frame):
                    for m, v in engine.pair_values(ctx).items():
                        if v is not None:
                            frame_vals.setdefault(m, []).append(v)
                for m, vals in frame_vals.items():
                    pick = max(vals) if m in MAX_IS_WORST else min(vals)
                    per_metric.setdefault(m, []).append(pick)
            assert set(vector) == set(per_metric)
            for m, vals in per_metric.items():
                worst = max(vals) if m in MAX_IS_WORST else min(vals)
                assert vector[m].worst == worst
                assert vector[m].mean_of_extrema == sum(vals) / len(vals)
                assert vector[m].defined_frames == len(vals)


def exact(vector):
    """A fingerprint with its floats as bits, so -0.0 differs from 0.0."""
    return {m: (v.worst.hex(), v.mean_of_extrema.hex(), v.defined_frames)
            for m, v in vector.items()}


@pytest.fixture
def frames_folded(monkeypatch):
    calls = []
    original = MetricEngine.frame_extrema

    def counting(self, frame, routes=None):
        calls.append(frame)
        return original(self, frame, routes)

    monkeypatch.setattr(MetricEngine, "frame_extrema", counting)
    return calls


MEMO_ROSTER = (
    ModelSpec("standard"), ModelSpec("risky"), ModelSpec("constant_velocity"),
    ModelSpec("emergency_brake"), ModelSpec("replay"),
    ModelSpec("risky", route_selector=0),
)


class TestFingerprintMemo:
    def test_repeated_log_is_aggregated_once(self, following_scene,
                                             frames_folded):
        graph, seed = following_scene
        engine = MetricEngine(graph)
        first = engine.aggregate(ScenarioLog(seed, seed.frames), None)
        first.clear()  # a caller's copy; the stored fingerprint is untouched
        again = engine.aggregate(ScenarioLog(seed, seed.frames), None)
        assert len(frames_folded) == len(seed.frames)
        assert exact(again) == exact(MetricEngine(graph).aggregate(
            ScenarioLog(seed, seed.frames), None))

    def test_signed_zero_logs_get_their_own_fingerprints(
            self, following_scene, frames_folded, tmp_path):
        graph, seed = following_scene

        def log_with(vy):
            frames = tuple(SceneFrame(100 * (k + 11), (
                state(1, 20.0 + k, vx=10.0), state(2, 40.0, vx=0.0, vy=vy),
            )) for k in range(30))
            return ScenarioLog(seed, frames)

        plus, minus = log_with(0.0), log_with(-0.0)
        assert plus.frames == minus.frames  # equal as numbers only
        assert plus.frames[0].states[1].key != minus.frames[0].states[1].key
        assert plus.digest != minus.digest
        write_log(plus, tmp_path / "plus.csv")
        write_log(minus, tmp_path / "minus.csv")
        assert (tmp_path / "plus.csv").read_bytes() != (
            tmp_path / "minus.csv").read_bytes()
        engine = MetricEngine(graph)
        vectors = [engine.aggregate(plus, None), engine.aggregate(minus, None)]
        assert len(frames_folded) == 2 * 30
        for log, vector in zip((plus, minus), vectors):
            assert exact(vector) == exact(MetricEngine(graph).aggregate(log, None))

    def test_same_frames_on_other_routes_are_scored_again(self, t_junction_map):
        from scenex.simulator import Assignment
        from tests.test_simulator import seed_of

        # vehicle 2 is ahead of vehicle 1 only on the route that turns onto C
        seed = seed_of(t_junction_map, (1, 30.0, 0.0, 0.0, 10.0),
                       (2, 60.0, 30.0, math.pi / 2, 5.0))
        cv = ModelSpec("constant_velocity")
        engine = MetricEngine(t_junction_map)
        seen = []
        for selector in (1, "straightest", 1):
            assignment = Assignment(
                {1: ModelSpec("constant_velocity", route_selector=selector), 2: cv},
                ("sampled", 0))
            log = ScenarioLog(seed, seed.frames)
            vector = engine.aggregate(log, assignment)
            assert exact(vector) == exact(
                MetricEngine(t_junction_map).aggregate(log, assignment))
            seen.append("inv_ttc" in vector)
        assert seen == [True, False, True]

    @settings(max_examples=30, deadline=None)
    @given(
        scene=st.one_of(
            st.builds(lambda n, gap, speed: ("car_following", {
                "n_vehicles": n, "gap": gap, "speed": speed}),
                st.integers(2, 3), st.floats(6.0, 40.0), st.floats(0.0, 15.0)),
            st.builds(lambda d_a, d_b, v_a, v_b: ("crossing", {
                "distance_a": d_a, "distance_b": d_b, "speed_a": v_a,
                "speed_b": v_b}),
                st.floats(5.0, 40.0), st.floats(5.0, 40.0),
                st.floats(0.0, 15.0), st.floats(0.0, 15.0)),
        ),
        picks=st.lists(st.sampled_from(range(len(MEMO_ROSTER))),
                       min_size=1, max_size=3, unique=True),
    )
    def test_one_engine_equals_fresh_engines(self, scene, picks):
        graph, seed = synth_scene(*scene)
        batch = run_enumerated(seed, [MEMO_ROSTER[i] for i in picks])
        engine = MetricEngine(graph)
        for child in batch.children:
            assert exact(engine.aggregate(child.log, child.assignment)) == exact(
                MetricEngine(graph).aggregate(child.log, child.assignment))


def context_bits(contexts):
    return [(c.a.track_id, c.b.track_id,
             bits((c.s_net, c.delta_v, c.d_self, c.d_other))) for c in contexts]


class TestSharedProjections:
    """`pair_contexts` projects each state once onto each distinct path of a
    frame and must equal projecting it anew for every state that looks."""

    def test_vehicles_sharing_a_lane(self, t_junction_map, monkeypatch):
        # 1 and 2 share A's straight path, 3 drives on C, 4 faces the other way
        frame = SceneFrame(100, (
            state(1, 10.0, 0.4, vx=10.0), state(2, 30.0, -0.3, vx=8.0),
            state(3, 60.0, 30.0, yaw=math.pi / 2, vy=5.0),
            state(4, 40.0, 1.0, yaw=math.pi, vx=-3.0),
        ))
        engine = MetricEngine(t_junction_map)
        expected = context_bits(oracles.pair_contexts(MetricEngine(t_junction_map),
                                                      frame))
        path = path_for_pose(t_junction_map, 10.0, 0.4, 0.0)
        projected = []
        original = Polyline.project

        def counting(pl, x, y):
            if pl is path:
                projected.append((x, y))
            return original(pl, x, y)

        monkeypatch.setattr(Polyline, "project", counting)
        contexts = engine.pair_contexts(frame)
        assert context_bits(contexts) == expected
        assert projected == [(s.x, s.y) for s in frame.states]
        following = {(c.a.track_id, c.b.track_id) for c in contexts if c.following}
        assert (1, 2) in following and (1, 3) not in following

    def test_vehicle_far_past_the_path_end_does_not_lead(self, straight_map):
        # 1's path ends at x = 100: 3 is 3 m past its end, 2 is 20 m past it,
        # both on the line of its last segment
        frame = SceneFrame(100, (state(1, 10.0, vx=10.0), state(2, 120.0, vx=8.0),
                                 state(3, 103.0, vx=8.0)))
        contexts = MetricEngine(straight_map).pair_contexts(frame)
        assert context_bits(contexts) == context_bits(
            oracles.pair_contexts(MetricEngine(straight_map), frame))
        following = {(c.a.track_id, c.b.track_id) for c in contexts if c.following}
        assert (1, 3) in following and (1, 2) not in following

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_equals_per_state_projection_on_the_junction_map(self, junction_scene,
                                                             data):
        graph, frames = junction_scene
        frame = frames[data.draw(st.integers(0, len(frames) - 1))]
        keep = data.draw(st.lists(st.sampled_from(frame.states), min_size=1,
                                  unique_by=lambda s: s.track_id))
        nudged = []
        for s in keep:
            dx = data.draw(st.sampled_from([0.0, 0.0, 1.5, -4.0, 12.0]))
            dy = data.draw(st.sampled_from([0.0, 0.0, -0.5, 3.0]))
            nudged.append(ParticipantState(s.track_id, s.agent_type, s.x + dx,
                                           s.y + dy, s.yaw, s.vx, s.vy, s.length,
                                           s.width))
        frame = SceneFrame(frame.timestamp_ms, tuple(nudged))
        routes = {}
        for s in frame.states:
            if data.draw(st.booleans()):
                try:
                    routes[s.track_id] = (0, match_seed_lane(graph, s, 0))
                except OffMapError:
                    pass
        assert context_bits(MetricEngine(graph).pair_contexts(frame, routes)) == \
            context_bits(oracles.pair_contexts(MetricEngine(graph), frame, routes))


def fork_map():
    """The `t_junction_map` fixture's map, for tests that draw examples."""
    from tests.conftest import lane

    return MapGraph([
        lane("A", [(0.0, 0.0), (50.0, 0.0)], successors=("B", "C")),
        lane("B", [(50.0, 0.0), (150.0, 0.0)]),
        lane("C", [(50.0, 0.0), (60.0, 10.0), (60.0, 100.0)]),
    ])


FOLD_MAPS = {"following": synth_scene("car_following", {})[0],
             "crossing": synth_scene("crossing", {})[0], "fork": fork_map()}
# speeds and velocity components, with both zeros: a state at rest may have either
FOLD_SPEEDS = st.sampled_from([0.0, -0.0, 0.05, 3.0, -3.0, 10.0])
# 20 m to the side of a lane is off the map
FOLD_LATERAL = st.sampled_from([0.0, -0.0, 0.4, -1.5, 20.0])


@st.composite
def fold_state(draw, graph, track_id):
    """A state along a lane of `graph`, heading with it (3 in 4), or anywhere
    near."""
    if draw(st.integers(0, 3)):
        polyline = graph.lane(draw(st.sampled_from(sorted(graph.lane_ids)))).polyline
        station = draw(st.integers(0, 20)) / 20 * polyline.length
        x, y = polyline.point_at(station)
        yaw = polyline.tangent_at(station)
        lateral = draw(FOLD_LATERAL)
        x, y = x - lateral * math.sin(yaw), y + lateral * math.cos(yaw)
        speed = draw(FOLD_SPEEDS)
        vx, vy = speed * math.cos(yaw), speed * math.sin(yaw)
    else:
        x, y = draw(st.floats(-30.0, 120.0)), draw(st.floats(-30.0, 90.0))
        yaw = draw(st.sampled_from([0.0, math.pi / 2, math.pi, -math.pi / 2]))
        vx, vy = draw(FOLD_SPEEDS), draw(FOLD_SPEEDS)
    return ParticipantState(track_id, "car", x, y, yaw, vx, vy)


def flipped_zeros(s):
    """`s` with the sign of each zero coordinate, yaw and velocity flipped."""
    x, y, yaw, vx, vy = (-v if v == 0.0 else v for v in (s.x, s.y, s.yaw, s.vx, s.vy))
    return ParticipantState(s.track_id, s.agent_type, x, y, yaw, vx, vy)


def bits_of(extrema):
    return {metric: bits(value) for metric, value in extrema.items()}


class TestFoldAgainstOracle:
    """`frame_extrema` folds the ordered pairs through one scalar kernel per
    metric; the oracle folds `pair_values` of its own pair contexts into a
    running extremum. Both must give the same floats."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_frame_extrema_bits(self, data):
        graph = FOLD_MAPS[data.draw(st.sampled_from(sorted(FOLD_MAPS)))]
        n = data.draw(st.integers(1, 4))
        frame = SceneFrame(100, tuple(data.draw(fold_state(graph, tid))
                                      for tid in range(1, n + 1)))
        routes = {}
        for s in frame.states:
            if data.draw(st.booleans()):
                try:
                    routes[s.track_id] = (0, match_seed_lane(graph, s, 0))
                except OffMapError:
                    pass
        engine = MetricEngine(graph)
        got = engine.frame_extrema(frame, routes)
        assert set(got) <= set(DEFAULT_METRICS)
        contexts = oracles.pair_contexts(engine, frame, routes)
        assert bits_of(got) == bits_of(oracles.frame_extrema(engine, frame, contexts))
        assert bits_of(engine.frame_extrema(frame)) == bits_of(
            oracles.frame_extrema(engine, frame))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_one_engine_across_frames_bits(self, data):
        # each track draws its states from a small pool, so states recur
        # across frames and later frames read what earlier ones memoised; a
        # pool also holds a state's twin with the signs of its zeros flipped
        graph = FOLD_MAPS[data.draw(st.sampled_from(sorted(FOLD_MAPS)))]
        n = data.draw(st.integers(1, 4))
        pools = []
        for tid in range(1, n + 1):
            pool = data.draw(st.lists(fold_state(graph, tid), min_size=1, max_size=3))
            pools.append(pool + [flipped_zeros(pool[0])])
        engine = MetricEngine(graph)
        for k in range(data.draw(st.integers(2, 8))):
            frame = SceneFrame(100 * (k + 1), tuple(data.draw(st.sampled_from(pool))
                                                    for pool in pools))
            routes = {}  # on the fork's lane A, selector 1 turns onto C
            for s in frame.states:
                selector = data.draw(st.sampled_from(["straightest", 0, 1]))
                try:
                    lane = match_seed_lane(graph, s, selector)
                    path_for_pose(graph, s.x, s.y, s.yaw, selector, seed_lane=lane)
                except (OffMapError, RouteSelectionError):
                    continue
                if lane is not None:
                    routes[s.track_id] = (selector, lane)
            contexts = oracles.pair_contexts(MetricEngine(graph), frame, routes)
            assert context_bits(engine.pair_contexts(frame, routes)) == \
                context_bits(contexts)
            assert bits_of(engine.frame_extrema(frame, routes)) == bits_of(
                oracles.frame_extrema(engine, frame, contexts))

    def test_crossing_grid(self):
        # both participants ahead of the conflict point on most of the grid
        graph = FOLD_MAPS["crossing"]
        engine = MetricEngine(graph)
        east, north = (graph.lane(i).polyline for i in ("east", "north"))
        crossing = 0
        for k in range(0, 21, 2):
            for j in range(0, 21, 2):
                xa, ya = east.point_at(k / 20 * east.length)
                xb, yb = north.point_at(j / 20 * north.length)
                for v_a, v_b in ((10.0, 3.0), (0.0, 10.0), (-0.0, 0.05)):
                    frame = SceneFrame(100, (
                        ParticipantState(1, "car", xa, ya, 0.0, v_a, 0.0),
                        ParticipantState(2, "car", xb, yb, math.pi / 2, -0.0, v_b)))
                    got = engine.frame_extrema(frame)
                    assert bits_of(got) == bits_of(oracles.frame_extrema(engine, frame))
                    crossing += "gap_time" in got
        assert crossing > 0

    def test_aggregate_bits_over_a_batch(self):
        graph, seed = synth_scene("merge", {})
        batch = run_enumerated(seed, MEMO_ROSTER)
        engine = MetricEngine(graph)
        defined = set()
        for child in batch.children:
            vector = engine.aggregate(child.log, child.assignment)
            assert exact(vector) == exact(oracles.aggregate(MetricEngine(graph),
                                                            child.log, child.assignment))
            defined |= set(vector)
        assert defined == set(DEFAULT_METRICS)


class TestPairMemo:
    """`frame_extrema` stores each ordered pair's values under the pair of
    its states' keys (exact state, route) and folds the stored values. One
    engine that scores a batch's logs in turn must equal a fresh engine per
    log and the oracle, bit for bit."""

    @staticmethod
    def check(graph, logs):
        engine = MetricEngine(graph)
        for log, assignment in logs:
            vector = engine.aggregate(log, assignment)
            assert exact(vector) == exact(MetricEngine(graph).aggregate(log, assignment))
            assert exact(vector) == exact(oracles.aggregate(MetricEngine(graph), log,
                                                            assignment))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_batch_of_logs_bits(self, data):
        # each track draws its states from a small pool that holds a state's
        # twin with the signs of its zeros flipped, and states 20 m off the
        # lanes; each log draws every track's route selector
        from scenex.simulator import Assignment

        graph = FOLD_MAPS[data.draw(st.sampled_from(sorted(FOLD_MAPS)))]
        n = data.draw(st.integers(2, 4))
        pools = []
        for tid in range(1, n + 1):
            pool = data.draw(st.lists(fold_state(graph, tid), min_size=1, max_size=3))
            pools.append(pool + [flipped_zeros(pool[0])])
        seed = SeedScene(graph, (SceneFrame(100, tuple(pool[0] for pool in pools)),))
        logs = []
        for _ in range(data.draw(st.integers(2, 5))):
            frames = tuple(SceneFrame(100 * (k + 2), tuple(
                data.draw(st.sampled_from(pool)) for pool in pools))
                for k in range(data.draw(st.integers(1, 4))))
            mapping = {}
            for s in seed.current.states:
                selector = data.draw(st.sampled_from(["straightest", 0, 1]))
                try:
                    lane = match_seed_lane(graph, s, selector)
                    path_for_pose(graph, s.x, s.y, s.yaw, selector, seed_lane=lane)
                except (OffMapError, RouteSelectionError):
                    selector = "straightest"
                mapping[s.track_id] = ModelSpec("constant_velocity",
                                                route_selector=selector)
            logs.append((ScenarioLog(seed, frames), Assignment(mapping, ("sampled", 0))))
        self.check(graph, logs)

    def test_signed_zeros_and_off_map_states(self):
        # vehicle 2 stands still with vx 0.0 or -0.0; vehicle 3 is 20 m off the lane
        from scenex.simulator import Assignment

        graph = FOLD_MAPS["following"]

        def log(vx):
            frames = tuple(SceneFrame(100 * (k + 1), (
                state(1, 20.0 + k, vx=10.0), state(2, 40.0, vx=vx),
                state(3, 30.0, 20.0, vx=5.0),
            )) for k in range(10))
            return ScenarioLog(SeedScene(graph, frames[:1]), frames)

        plus, minus = log(0.0), log(-0.0)
        assert plus.digest != minus.digest
        cv = ModelSpec("constant_velocity")
        everyone = Assignment({1: cv, 2: cv, 3: cv}, ("sampled", 0))
        self.check(graph, [(plus, everyone), (minus, everyone), (plus, everyone)])

    def test_crossing_pairs(self):
        graph, seed = synth_scene("crossing", {"speed_b": 7.0})
        batch = run_enumerated(seed, MEMO_ROSTER)
        self.check(graph, [(c.log, c.assignment) for c in batch.children])
        engine = MetricEngine(graph)
        assert any("gap_time" in engine.aggregate(c.log, c.assignment)
                   for c in batch.children)

    def test_one_state_on_two_routes(self, t_junction_map):
        from scenex.simulator import Assignment
        from tests.test_simulator import seed_of

        # vehicle 2 is ahead of vehicle 1 only on the route that turns onto
        # C; the same frames are scored with 1 on either route, in turn
        seed = seed_of(t_junction_map, (1, 30.0, 0.0, 0.0, 10.0),
                       (2, 60.0, 30.0, math.pi / 2, 5.0))
        log = ScenarioLog(seed, seed.frames)
        cv = ModelSpec("constant_velocity")
        logs = [(log, Assignment({1: ModelSpec("constant_velocity", route_selector=sel),
                                  2: cv}, ("sampled", 0))) for sel in (1, 0, 1, 0)]
        self.check(t_junction_map, logs)
        engine = MetricEngine(t_junction_map)
        assert ["inv_ttc" in engine.aggregate(*entry) for entry in logs] == [
            True, False, True, False]


class TestMetricTable:
    def test_round_trip_with_absent_metric(self, tmp_path):
        p = tmp_path / "metrics.csv"
        rows = [
            (0, 17, {"distance": MetricStats(4.25, 6.125, 30),
                     "inv_ttc": MetricStats(0.5, 0.25, 12)}),
            (1, 18, {"distance": MetricStats(9.0, 9.5, 30)}),
        ]
        write_metric_table(p, rows)
        metrics, back = read_metric_table(p)
        assert metrics == list(DEFAULT_METRICS)
        assert back[0][0] == 0 and back[0][1] == 17
        assert back[0][2]["distance"] == MetricStats(4.25, 6.125, 30)
        assert "pttc" not in back[0][2]
        assert back[1][2] == {"distance": MetricStats(9.0, 9.5, 30)}

    # only ("", "", "0") and a worst and mean over >= 1 frames are written
    @pytest.mark.parametrize("cells", [
        ("", "3.5", "30"), ("2.5", "", "30"), ("", "", "30"), ("2.5", "3.5", "0"),
        ("2.5", "3.5", "-1"), ("", "", "-1"), ("", "", ""),
    ])
    def test_disagreeing_cells_rejected(self, tmp_path, cells):
        p = tmp_path / "metrics.csv"
        p.write_text("run_index,run_seed,distance_worst,distance_mean,"
                     "distance_defined_frames\n0,0,1.5,2.5,4\n1,1," + ",".join(cells) + "\n")
        with pytest.raises(SchemaError) as err:
            read_metric_table(p)
        worst, mean, frames = cells
        assert str(err.value) == (f"{p}:3: distance: worst {worst!r}, mean {mean!r} "
                                  f"and defined frames {frames!r} disagree")

    def test_floats_lossless(self, tmp_path):
        p = tmp_path / "metrics.csv"
        value = 1.0 / 3.0
        write_metric_table(p, [(0, 0, {"wttc": MetricStats(value, value * 2, 7)})])
        _, back = read_metric_table(p)
        assert back[0][2]["wttc"].worst == value
        assert back[0][2]["wttc"].mean_of_extrema == value * 2
