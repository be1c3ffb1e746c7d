import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenex.behavior import (
    IdmParams,
    ModelSpec,
    Trajectory,
    WorldView,
    idm_accel,
    leaders_ahead,
    load_roster,
    path_neighbours,
    plan_path_follow,
    plan_replay,
    profile_params,
)
from scenex.errors import ModelError, SchemaError
from scenex.geometry import Polyline
from scenex.map_model import Path, route_centerline
from scenex.scene_io import ParticipantState, SceneFrame


def state(tid, x, y=0.0, yaw=0.0, vx=0.0, vy=0.0, length=4.5, width=1.8):
    return ParticipantState(tid, "car", x, y, yaw, vx, vy, length, width)


def view_of(states, self_id, horizon_steps=30):
    frame = SceneFrame(1000, tuple(states))
    return WorldView((frame,), self_id, horizon_steps)


@pytest.fixture
def main_path(straight_map):
    return route_centerline(straight_map, ("main",))


def first_leader(view, path):
    """(leader, net gap) of the view's own vehicle on `path`, or None."""
    me = view.self_state()
    own_station, _ = path.polyline.project(me.x, me.y)[:2]
    states = view.current.states
    projections = [path.polyline.project(s.x, s.y) for s in states]
    neighbours = sorted(path_neighbours(view.self_id, states, projections),
                        key=lambda e: e[0])
    return next(leaders_ahead(me, own_station, neighbours), None)


class TestFindLeader:
    """The leader rule shared by the planner and the metric engine."""

    def test_net_gap(self, main_path):
        view = view_of([state(1, 10.0, vx=10.0), state(2, 30.5, vx=6.0)], 1)
        leader, s_net = first_leader(view, main_path)
        assert leader.track_id == 2
        assert s_net == pytest.approx(16.0)
        assert view.self_state().speed - leader.speed == pytest.approx(4.0)

    def test_lateral_clearance(self, main_path):
        view = view_of([state(1, 10.0, vx=10.0), state(2, 30.0, y=6.0)], 1)
        assert first_leader(view, main_path) is None

    def test_nearest_of_two(self, main_path):
        view = view_of([state(1, 10.0), state(2, 50.0), state(3, 30.0)], 1)
        assert first_leader(view, main_path)[0].track_id == 3

    def test_behind_ignored(self, main_path):
        view = view_of([state(1, 50.0), state(2, 10.0)], 1)
        assert first_leader(view, main_path) is None

    def test_overlapping_gap_clamped(self, main_path):
        view = view_of([state(1, 10.0), state(2, 12.0)], 1)
        assert first_leader(view, main_path)[1] == pytest.approx(0.01)


class TestIdmAccel:
    def test_free_flow_from_rest(self):
        p = profile_params("standard", v0=10.0)
        assert idm_accel(p, 0.0) == pytest.approx(2.0)

    def test_free_flow_at_desired_speed(self):
        p = profile_params("standard", v0=10.0)
        assert idm_accel(p, 10.0) == pytest.approx(0.0)

    def test_equilibrium_gap_gives_minus_a_max(self):
        # at v = v0 the free term vanishes; with s_net equal to the desired
        # gap s* = s0 + v T = 40 the interaction term is exactly -a_max
        p = profile_params("standard", v0=10.0)
        assert idm_accel(p, 10.0, s_net=40.0, delta_v=0.0) == pytest.approx(-2.0)

    def test_stopped_at_standstill_gap(self):
        p = profile_params("standard", v0=10.0)
        assert idm_accel(p, 0.0, s_net=9.0, delta_v=0.0) == pytest.approx(0.0)

    def test_hard_brake_clamp(self):
        p = profile_params("risky", v0=10.0)
        assert idm_accel(p, 10.0, s_net=0.01, delta_v=10.0) == pytest.approx(-9.0)

    def test_desired_gap_clamped_at_s0(self):
        # a strongly opening gap would drive s* negative; it is held at s0
        p = profile_params("standard", v0=10.0)
        a = idm_accel(p, 1.0, s_net=100.0, delta_v=-50.0)
        expected = 2.0 * (1.0 - (1.0 / 10.0) ** 4 - (9.0 / 100.0) ** 2)
        assert a == pytest.approx(expected)

    def test_invalid_params_rejected(self):
        for bad in (-1.0, 0.0, math.nan, math.inf):
            with pytest.raises(ModelError, match="a_max"):
                IdmParams(a_max=bad, b=3.0, T=3.1, s0=9.0, delta=4.0, v0=10.0)
            with pytest.raises(ModelError, match="v0"):
                IdmParams(a_max=2.0, b=3.0, T=3.1, s0=9.0, delta=4.0, v0=bad)
        # an unset target speed is filled by resolve_spec
        assert IdmParams(a_max=2.0, b=3.0, T=3.1, s0=9.0, delta=4.0).v0 is None

    @settings(max_examples=200, deadline=None)
    @given(
        v=st.floats(0.0, 40.0),
        dv=st.floats(-20.0, 20.0),
        s1=st.floats(0.5, 200.0),
        s2=st.floats(0.5, 200.0),
    )
    def test_monotone_in_gap(self, v, dv, s1, s2):
        p = profile_params("standard", v0=15.0)
        lo, hi = sorted((s1, s2))
        assert idm_accel(p, v, lo, dv) <= idm_accel(p, v, hi, dv) + 1e-12

    @settings(max_examples=200, deadline=None)
    @given(
        v=st.floats(0.1, 40.0),
        s=st.floats(0.5, 200.0),
        dv1=st.floats(-20.0, 20.0),
        dv2=st.floats(-20.0, 20.0),
    )
    def test_antitone_in_closing_speed(self, v, s, dv1, dv2):
        p = profile_params("risky", v0=15.0)
        lo, hi = sorted((dv1, dv2))
        assert idm_accel(p, v, s, hi) <= idm_accel(p, v, s, lo) + 1e-12


class TestPlanPathFollow:
    def test_constant_velocity_stations(self, main_path):
        view = view_of([state(1, 0.0, vx=10.0)], 1)
        traj = plan_path_follow(view, ModelSpec("constant_velocity"), main_path)
        assert len(traj.states) == 30
        for k, s in enumerate(traj.states, start=1):
            assert s.x == pytest.approx(1.0 * k)
            assert s.speed == pytest.approx(10.0)

    def test_emergency_brake_oracle(self, main_path):
        view = view_of([state(1, 0.0, vx=10.0)], 1)
        traj = plan_path_follow(view, ModelSpec("emergency_brake"), main_path)
        # v(k) = 10 - 0.5 k until rest at step 20; trapezoid distance = 10 m
        for k in range(20):
            assert traj.states[k].speed == pytest.approx(10.0 - 0.5 * (k + 1))
        assert traj.states[19].speed == 0.0
        assert traj.states[29].speed == 0.0
        assert traj.states[29].x == pytest.approx(10.0)

    def test_idm_free_flow_approaches_v0(self, main_path):
        view = view_of([state(1, 0.0, vx=2.0)], 1, horizon_steps=300)
        spec = ModelSpec("standard", params=profile_params("standard", v0=12.0))
        traj = plan_path_follow(view, spec, main_path)
        speeds = [s.speed for s in traj.states]
        assert speeds == sorted(speeds)
        assert speeds[-1] == pytest.approx(12.0, abs=0.05)

    def test_idm_never_reverses(self, main_path):
        view = view_of([state(1, 10.0, vx=10.0), state(2, 16.0, vx=0.0)], 1)
        spec = ModelSpec("risky", params=profile_params("risky", v0=10.0))
        traj = plan_path_follow(view, spec, main_path)
        assert all(s.speed >= 0.0 for s in traj.states)
        xs = [s.x for s in traj.states]
        assert xs == sorted(xs)

    def test_kinematic_consistency(self, main_path):
        view = view_of([state(1, 0.0, vx=8.0)], 1)
        spec = ModelSpec("standard", params=profile_params("standard", v0=14.0))
        traj = plan_path_follow(view, spec, main_path)
        prev_x, prev_v = 0.0, 8.0
        for s in traj.states:
            assert s.x - prev_x == pytest.approx(0.05 * (prev_v + s.speed), abs=1e-9)
            prev_x, prev_v = s.x, s.speed

    def test_extrapolates_past_path_end(self, main_path):
        view = view_of([state(1, 99.0, vx=10.0)], 1)
        traj = plan_path_follow(view, ModelSpec("constant_velocity"), main_path)
        assert traj.states[-1].x == pytest.approx(129.0)
        assert traj.states[-1].yaw == pytest.approx(0.0)

    @pytest.mark.parametrize("kind, projected", [
        ("standard", [1, 2, 3]), ("constant_velocity", [1])])
    def test_projects_each_state_once(self, main_path, monkeypatch, kind, projected):
        """An IDM driver reads its own station from the projections it takes
        for its leaders; the other kinds project only themselves."""
        view = view_of([state(2, 30.0, vx=5.0), state(1, 10.0, vx=10.0),
                        state(3, 50.0, y=1.0)], 1)
        calls = []
        original = Polyline.project

        def counting(pl, x, y):
            calls.append((x, y))
            return original(pl, x, y)

        expected = plan_path_follow(view, ModelSpec(kind), main_path)
        monkeypatch.setattr(Polyline, "project", counting)
        assert plan_path_follow(view, ModelSpec(kind), main_path) == expected
        by_id = {s.track_id: (s.x, s.y) for s in view.current.states}
        assert calls == [by_id[tid] for tid in projected]

    def test_replay_kind_rejected(self, main_path):
        view = view_of([state(1, 0.0)], 1)
        with pytest.raises(ModelError):
            plan_path_follow(view, ModelSpec("replay"), main_path)


class TestPlanPrefix:
    """A k-step plan is the first k states of the 30-step plan: planning is
    causal, so the simulator plans only the steps it uses before the next
    replan."""

    PATH = Path(Polyline([(0.0, 0.0), (60.0, 0.0), (120.0, 30.0)]))

    @settings(max_examples=80, deadline=None)
    @given(
        kind=st.sampled_from(("standard", "risky", "constant_velocity",
                              "emergency_brake")),
        v_me=st.floats(0.0, 30.0),
        v_other=st.floats(0.0, 30.0),
        gap=st.floats(0.0, 80.0),
        k=st.integers(1, 30),
    )
    def test_path_follow(self, kind, v_me, v_other, gap, k):
        states = [state(1, 10.0, vx=v_me), state(2, 10.0 + gap, vx=v_other)]
        spec = ModelSpec(kind)
        full = plan_path_follow(view_of(states, 1, 30), spec, self.PATH)
        short = plan_path_follow(view_of(states, 1, k), spec, self.PATH)
        assert short.states == full.states[:k]

    @settings(max_examples=40, deadline=None)
    @given(
        speed=st.floats(0.0, 30.0),
        n_frames=st.integers(1, 50),
        current=st.integers(0, 49),
        k=st.integers(1, 30),
    )
    def test_replay(self, speed, n_frames, current, k):
        current = min(current, n_frames - 1)
        rec = [SceneFrame(100 * (i + 1), (state(1, speed * 0.1 * i, vx=speed),))
               for i in range(n_frames)]
        me = [rec[current].states[0]]
        full = plan_replay(view_of(me, 1, 30), rec, current)
        short = plan_replay(view_of(me, 1, k), rec, current)
        assert short.states == full.states[:k]


class TestPlanReplay:
    def make_recording(self, n=40):
        return [SceneFrame(100 * (i + 1), (state(1, float(i), vx=10.0),))
                for i in range(n)]

    def test_returns_recorded_future(self):
        rec = self.make_recording()
        view = view_of([state(1, 9.0, vx=10.0)], 1)
        traj = plan_replay(view, rec, current_index=9)
        assert len(traj.states) == 30
        assert [s.x for s in traj.states] == [float(i) for i in range(10, 40)]

    def test_holds_last_state_beyond_recording(self):
        rec = self.make_recording(n=15)
        view = view_of([state(1, 9.0, vx=10.0)], 1)
        traj = plan_replay(view, rec, current_index=9)
        assert traj.states[4].x == 14.0
        for s in traj.states[5:]:
            assert s.x == 14.0
            assert s.speed == 0.0

    def test_missing_track_rejected(self):
        rec = self.make_recording()
        view = view_of([state(7, 0.0)], 7)
        with pytest.raises(ModelError):
            plan_replay(view, rec, current_index=9)


class TestRoster:
    def test_load_roster(self, tmp_path):
        p = tmp_path / "roster.yaml"
        p.write_text(
            "format: scenex-roster\nversion: 1\nmodels:\n"
            "  - {kind: standard}\n"
            "  - {kind: risky, params: {T: 2.5}, weight: 2.0}\n"
            "  - {kind: emergency_brake, brake_decel: 6.0}\n"
        )
        roster = load_roster(p)
        assert [m.kind for m in roster] == ["standard", "risky", "emergency_brake"]
        assert roster[1].params.T == 2.5
        assert roster[1].params.b == 8.0  # profile default retained
        assert roster[2].brake_decel == 6.0

    def test_bad_format_rejected(self, tmp_path):
        p = tmp_path / "roster.yaml"
        p.write_text("format: nope\nversion: 1\nmodels: [{kind: standard}]\n")
        with pytest.raises(SchemaError):
            load_roster(p)

    def test_unknown_param_rejected(self, tmp_path):
        p = tmp_path / "roster.yaml"
        p.write_text(
            "format: scenex-roster\nversion: 1\nmodels:\n"
            "  - {kind: standard, params: {tau: 1.0}}\n"
        )
        with pytest.raises(SchemaError, match="tau"):
            load_roster(p)

    def test_unknown_kind_rejected(self, tmp_path):
        p = tmp_path / "roster.yaml"
        p.write_text(
            "format: scenex-roster\nversion: 1\nmodels:\n  - {kind: teleport}\n")
        with pytest.raises(SchemaError):
            load_roster(p)

    @pytest.mark.parametrize("entry", [
        "{kind: standard, route_selector: left}",
        "{kind: standard, route_selector: [1]}",
        "{kind: replay, route_selector: 1}",
    ])
    def test_bad_route_selector_rejected(self, tmp_path, entry):
        p = tmp_path / "roster.yaml"
        p.write_text(
            f"format: scenex-roster\nversion: 1\nmodels:\n  - {entry}\n")
        with pytest.raises(SchemaError, match="route_selector"):
            load_roster(p)


    @pytest.mark.parametrize("entry", [
        "{kind: standard, params: {T: -1.0}}",
        "{kind: standard, params: {s0: 0}}",
        "{kind: risky, params: {a_max: .nan}}",
        "{kind: risky, params: {v0: .inf}}",
        "{kind: standard, params: {T: fast}}",
        "{kind: standard, params: 3}",
        "{kind: constant_velocity, weight: .nan}",
        "{kind: constant_velocity, weight: .inf}",
        "{kind: emergency_brake, brake_decel: .nan}",
        "{kind: emergency_brake, brake_decel: -2.0}",
    ])
    def test_bad_number_rejected_at_load(self, tmp_path, entry):
        p = tmp_path / "roster.yaml"
        p.write_text("format: scenex-roster\nversion: 1\nmodels:\n"
                     f"  - {{kind: replay}}\n  - {entry}\n")
        with pytest.raises(SchemaError, match=r"models\[1\]"):
            load_roster(p)

    def test_v0_may_be_absent(self, tmp_path):
        p = tmp_path / "roster.yaml"
        p.write_text("format: scenex-roster\nversion: 1\nmodels:\n"
                     "  - {kind: standard, params: {T: 2.0}}\n")
        (spec,) = load_roster(p)
        assert spec.params.T == 2.0 and spec.params.v0 is None


def test_trajectory_is_plain_data(main_path):
    view = view_of([state(1, 0.0, vx=5.0)], 1)
    traj = plan_path_follow(view, ModelSpec("constant_velocity"), main_path)
    assert isinstance(traj, Trajectory)
    again = plan_path_follow(view, ModelSpec("constant_velocity"), main_path)
    assert traj == again  # planning is pure
