import csv
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenex.errors import InsufficientHistoryError, SchemaError, SynthParamError
from scenex.map_model import path_for_pose, path_intersection
from scenex.scene_io import (
    MAX_STEPS,
    MAX_SYNTH_VEHICLES,
    TRACK_COLUMNS,
    Case,
    ParticipantState,
    ScenarioLog,
    SceneFrame,
    SeedScene,
    extract_seed,
    load_tracks,
    synth_scene,
    write_case,
    write_log,
)


def make_case(n_tracks=2, n_frames=40, case_id=1, start_ids=None):
    """Constant-velocity case; track i starts at frame start_ids.get(i, 0)."""
    start_ids = start_ids or {}
    frames = []
    for f in range(n_frames):
        states = []
        for t in range(1, n_tracks + 1):
            if f < start_ids.get(t, 0):
                continue
            states.append(ParticipantState(
                t, "car", 10.0 * t + 8.0 * 0.1 * f, 0.0, 0.0, 8.0, 0.0))
        frames.append(SceneFrame(100 * (f + 1), tuple(states)))
    return Case(case_id, tuple(frames))


def write_case_csv(path, case):
    write_case(case.case_id, case.frames, path)


PEDESTRIAN = ParticipantState(9, "pedestrian", 0.0, 5.0, 0.0, 1.0, 0.0, 0.5, 0.5)


class TestLoadTracks:
    def test_well_formed(self, tmp_path):
        p = tmp_path / "tracks.csv"
        write_case_csv(p, make_case())
        data = load_tracks(p)
        assert len(data.cases) == 1
        case = data.cases[0]
        assert len(case.frames) == 40
        assert all(len(fr.states) == 2 for fr in case.frames)

    def test_missing_column(self, tmp_path):
        p = tmp_path / "tracks.csv"
        cols = [c for c in TRACK_COLUMNS if c != "psi_rad"]
        p.write_text(",".join(cols) + "\n")
        with pytest.raises(SchemaError, match="psi_rad"):
            load_tracks(p)

    def test_partial_track_not_forced_constant(self, tmp_path):
        p = tmp_path / "tracks.csv"
        write_case_csv(p, make_case(start_ids={2: 19}))
        case = load_tracks(p).cases[0]
        assert len(case.frames[0].states) == 1
        assert len(case.frames[19].states) == 2

    def test_duplicate_key_rejected(self, tmp_path):
        p = tmp_path / "tracks.csv"
        row = "1,1,1,100,car,0.0,0.0,1.0,0.0,0.0,4.5,1.8\n"
        p.write_text(",".join(TRACK_COLUMNS) + "\n" + row + row)
        with pytest.raises(SchemaError, match="duplicate"):
            load_tracks(p)

    def test_non_monotonic_timestamps(self, tmp_path):
        p = tmp_path / "tracks.csv"
        rows = [
            "1,1,1,200,car,0.0,0.0,1.0,0.0,0.0,4.5,1.8",
            "1,1,2,100,car,0.1,0.0,1.0,0.0,0.0,4.5,1.8",
        ]
        p.write_text(",".join(TRACK_COLUMNS) + "\n" + "\n".join(rows) + "\n")
        with pytest.raises(SchemaError, match="monotonic"):
            load_tracks(p)

    @pytest.mark.parametrize("column,value", [
        ("x", "nan"), ("y", "inf"), ("psi_rad", "nan"), ("vx", "-inf"),
    ])
    def test_non_finite_value_names_the_line(self, tmp_path, column, value):
        p = tmp_path / "tracks.csv"
        fields = "1,1,1,100,car,0.0,0.0,1.0,0.0,0.0,4.5,1.8".split(",")
        fields[TRACK_COLUMNS.index(column)] = value
        p.write_text(",".join(TRACK_COLUMNS) + "\n" + ",".join(fields) + "\n")
        with pytest.raises(SchemaError, match=r"tracks\.csv:2: .*non-finite"):
            load_tracks(p)

    @pytest.mark.parametrize("rows", [
        [],
        ["1,2,1,100,pedestrian,5.0,0.0,1.0,0.0,0.0,0.5,0.5",
         "1,3,1,100,bicycle,9.0,0.0,1.0,0.0,0.0,1.5,0.5"],
    ], ids=["header-only", "no-vehicles"])
    def test_file_without_vehicle_rows_rejected(self, tmp_path, rows):
        p = tmp_path / "tracks.csv"
        p.write_text("\n".join([",".join(TRACK_COLUMNS), *rows]) + "\n")
        with pytest.raises(SchemaError, match=r"tracks\.csv: no vehicle rows"):
            load_tracks(p)

    def test_nonvehicle_rows_dropped_and_counted(self, tmp_path):
        p = tmp_path / "tracks.csv"
        rows = [
            "1,1,1,100,car,0.0,0.0,1.0,0.0,0.0,4.5,1.8",
            "1,2,1,100,pedestrian,5.0,0.0,1.0,0.0,0.0,0.5,0.5",
        ]
        p.write_text(",".join(TRACK_COLUMNS) + "\n" + "\n".join(rows) + "\n")
        data = load_tracks(p)
        assert data.dropped_nonvehicle == 1
        assert data.cases[0].frames[0].track_ids == {1}

    def test_frame_of_nonvehicle_rows_alone_kept(self, tmp_path):
        # frame 15 (1500 ms) holds one pedestrian row and no vehicle
        p = tmp_path / "tracks.csv"
        case = make_case(n_frames=45)
        frames = list(case.frames)
        frames[14] = SceneFrame(1500, (PEDESTRIAN,))
        write_case(1, frames, p)
        data = load_tracks(p)
        (loaded,) = data.cases
        assert [fr.timestamp_ms for fr in loaded.frames] == \
            [fr.timestamp_ms for fr in case.frames]
        assert loaded.frames[14].states == ()
        assert data.dropped_nonvehicle == 1
        seed = extract_seed(loaded, 9)
        assert len(seed.future) == 35 and seed.future[4].states == ()

    def test_case_of_nonvehicle_rows_alone_dropped(self, tmp_path):
        p = tmp_path / "tracks.csv"
        write_case(0, [SceneFrame(100, (PEDESTRIAN,))], p)
        with open(p, "a") as fh:
            fh.write("1,1,1,100,car,0.0,0.0,1.0,0.0,0.0,4.5,1.8\n")
        data = load_tracks(p)
        assert [c.case_id for c in data.cases] == [1]
        assert data.dropped_nonvehicle == 1


class TestRoundTrip:
    def test_load_write_load_fixed_point(self, tmp_path):
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        write_case_csv(p1, make_case())
        case = load_tracks(p1).cases[0]
        write_case_csv(p2, case)
        again = load_tracks(p2).cases[0]
        assert len(again.frames) == len(case.frames)
        for fa, fb in zip(case.frames, again.frames):
            assert fa.timestamp_ms == fb.timestamp_ms
            for sa, sb in zip(fa.states, fb.states):
                assert sa == sb  # repr round-trip is lossless

    def test_row_count(self, tmp_path):
        case = make_case(n_tracks=5, n_frames=30)
        p = tmp_path / "log.csv"
        seed = extract_seed(make_case(n_tracks=5, n_frames=40), 9)
        log = ScenarioLog(seed, case.frames)
        write_log(log, p)
        with open(p) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 30 * 5

    def test_velocity_round_trip_precision(self, tmp_path):
        rng = random.Random(7)
        states = tuple(
            ParticipantState(t, "car", rng.uniform(-100, 100), rng.uniform(-100, 100),
                             rng.uniform(-3, 3), rng.uniform(-30, 30),
                             rng.uniform(-30, 30))
            for t in range(1, 6)
        )
        case = Case(1, (SceneFrame(100, states),))
        p = tmp_path / "t.csv"
        write_case_csv(p, case)
        again = load_tracks(p).cases[0]
        for sa, sb in zip(case.frames[0].states, again.frames[0].states):
            assert abs(sa.vx - sb.vx) < 1e-6
            assert abs(sa.vy - sb.vy) < 1e-6


class TestExtractSeed:
    def test_boundary_window(self):
        seed = extract_seed(make_case(), 9)
        assert len(seed.frames) == 10
        assert seed.frames[0].timestamp_ms == 100
        assert seed.current.timestamp_ms == 1000

    def test_partial_track_excluded(self):
        seed = extract_seed(make_case(start_ids={2: 5}), 9)
        assert seed.track_ids == [1]

    def test_insufficient_history(self):
        with pytest.raises(InsufficientHistoryError):
            extract_seed(make_case(), 3)

    @pytest.mark.parametrize("current, history_len", [(-1, 0), (5, 0), (5, -3)])
    def test_history_below_one_rejected(self, current, history_len):
        with pytest.raises(InsufficientHistoryError, match="need"):
            extract_seed(make_case(), current, history_len)

    def test_later_frames_are_the_recorded_future(self):
        case = make_case()
        seed = extract_seed(case, 9)
        assert seed.future == case.frames[10:]
        assert extract_seed(case, 39).future == ()

    def test_future_keeps_every_track(self):
        # the window drops track 2, the future keeps it where it was recorded
        case = make_case(start_ids={2: 5})
        seed = extract_seed(case, 9)
        assert seed.track_ids == [1]
        assert seed.future[0].track_ids == {1, 2}

    def test_future_that_skips_a_frame_rejected(self):
        # no frame at 1300 ms: replay would run one step early from there
        case = make_case(case_id=4)
        gapped = Case(4, case.frames[:12] + case.frames[13:])
        with pytest.raises(ValueError, match="case 4: recorded future frame at "
                                             "1400 ms is not 100 ms after 1200 ms"):
            extract_seed(gapped, 9)
        # a seed cut after the gap is unaffected by it
        assert extract_seed(gapped, 21).frames[0].timestamp_ms == 1400

    def test_empty_intersection(self):
        # track 1 only in early frames, track 2 only in late frames
        early = tuple(SceneFrame(100 * (f + 1), (ParticipantState(
            1, "car", 0.0, 0.0, 0.0, 1.0, 0.0),)) for f in range(5))
        late = tuple(SceneFrame(100 * (f + 6), (ParticipantState(
            2, "car", 9.0, 0.0, 0.0, 1.0, 0.0),)) for f in range(5))
        with pytest.raises(InsufficientHistoryError):
            extract_seed(Case(1, early + late), 9)

    @settings(max_examples=30, deadline=None)
    @given(
        n_tracks=st.integers(1, 4),
        current=st.integers(9, 39),
        start=st.integers(0, 10),
    )
    def test_output_satisfies_seed_invariants(self, n_tracks, current, start):
        case = make_case(n_tracks=n_tracks, start_ids={1: start})
        try:
            seed = extract_seed(case, current)
        except InsufficientHistoryError:
            return
        # SeedScene.__post_init__ enforces the invariants; spot-check anyway
        spans = {fr.track_ids for fr in seed.frames}
        assert len(spans) == 1
        deltas = {b.timestamp_ms - a.timestamp_ms
                  for a, b in zip(seed.frames, seed.frames[1:])}
        assert deltas <= {100}


class TestSynthScene:
    def test_car_following_layout(self, following_scene):
        _, seed = following_scene
        a, b = seed.current.states
        assert b.x - a.x == pytest.approx(20.0)
        assert a.speed == b.speed == pytest.approx(10.0)

    def test_histories_kinematically_consistent(self):
        _, seed = synth_scene("car_following",
                              {"n_vehicles": 3, "gap": 15.0, "speeds": [7.0, 9.0, 11.0]})
        for prev, cur in zip(seed.frames, seed.frames[1:]):
            for sp, sc in zip(prev.states, cur.states):
                assert sc.x - sp.x == pytest.approx(sp.vx * 0.1, abs=1e-9)
                assert sc.y - sp.y == pytest.approx(sp.vy * 0.1, abs=1e-9)

    def test_crossing_conflict_stations(self):
        graph, seed = synth_scene("crossing", {"distance_a": 30.0, "distance_b": 30.0})
        a, b = seed.current.states
        path_a = path_for_pose(graph, a.x, a.y, a.yaw)
        path_b = path_for_pose(graph, b.x, b.y, b.yaw)
        hit = path_intersection(path_a, path_b)
        assert hit is not None
        _, sa, sb = hit
        st_a, _ = path_a.project(a.x, a.y)[:2]
        st_b, _ = path_b.project(b.x, b.y)[:2]
        assert sa - st_a == pytest.approx(30.0)
        assert sb - st_b == pytest.approx(30.0)

    def test_merge_zero_gap_rejected(self):
        with pytest.raises(SynthParamError):
            synth_scene("merge", {"gap": 0.0})

    def test_negative_speed_rejected(self):
        with pytest.raises(SynthParamError):
            synth_scene("car_following", {"speed": -1.0})

    @pytest.mark.parametrize("template, params, key", [
        ("car_following", {"n_vehicles": 2.5}, "n_vehicles"),
        ("car_following", {"n_vehicles": True}, "n_vehicles"),
        ("car_following", {"n_vehicles": None}, "n_vehicles"),
        ("car_following", {"speeds": "12"}, "speeds"),
        ("car_following", {"gaps": [10.0, "5"], "n_vehicles": 3}, "gaps"),
        ("car_following", {"n_vehicles": 10 ** 400}, "n_vehicles"),
        ("merge", {"gap": "15"}, "gap"),
        ("merge", {"speed_main": -1.0}, "speed_main"),
        ("crossing", {"distance_a": float("inf")}, "distance_a"),
        ("crossing", {"vehicle_width": 0}, "vehicle_width"),
        ("crossing", {"gap": 10.0}, "gap"),
        ("car_following", {"n_vehicles": 0}, "n_vehicles"),
        ("car_following", {"n_vehicles": MAX_SYNTH_VEHICLES + 1}, "n_vehicles"),
        ("crossing", {"history_len": 0}, "history_len"),
        ("merge", {"history_len": MAX_STEPS + 1}, "history_len"),
    ])
    def test_bad_parameter_named(self, template, params, key):
        with pytest.raises(SynthParamError,
                           match=f"template '{template}': .*parameter.*'{key}'"):
            synth_scene(template, params)

    def test_integer_parameters_load_as_floats(self):
        as_ints = synth_scene("car_following", {"n_vehicles": 3, "gaps": [20, 15],
                                                "speed": 10, "vehicle_length": 4})
        as_floats = synth_scene("car_following", {
            "n_vehicles": 3, "gaps": [20.0, 15.0], "speed": 10.0, "vehicle_length": 4.0})
        assert as_ints[1].frames == as_floats[1].frames
        assert all(type(v) is float for s in as_ints[1].current.states
                   for v in (s.x, s.vx, s.length))

    def test_sizes_at_their_bounds_accepted(self):
        _, seed = synth_scene("car_following", {
            "n_vehicles": MAX_SYNTH_VEHICLES, "gap": 8.0, "lane_length": 1000.0,
            "history_len": 2})
        assert len(seed.current.states) == MAX_SYNTH_VEHICLES
        _, seed = synth_scene("crossing", {"history_len": MAX_STEPS})
        assert len(seed.frames) == MAX_STEPS

    def test_unknown_template(self):
        with pytest.raises(SynthParamError):
            synth_scene("roundabout", {})

    def test_merge_vehicles_on_their_lanes(self):
        graph, seed = synth_scene("merge", {"gap": 10.0, "distance": 50.0})
        from scenex.map_model import match_to_lane

        main, ramp = seed.current.states
        assert match_to_lane(graph, main.x, main.y, main.yaw)[0] == "main_in"
        assert match_to_lane(graph, ramp.x, ramp.y, ramp.yaw)[0] == "ramp"


def test_seed_scene_rejects_bad_spacing():
    st1 = (ParticipantState(1, "car", 0.0, 0.0, 0.0, 1.0, 0.0),)
    with pytest.raises(ValueError, match="100 ms"):
        SeedScene(None, (SceneFrame(100, st1), SceneFrame(300, st1)))


@pytest.mark.parametrize("future_ts, bad_ts", [
    ((300, 400), 300), ((200, 400), 400), ((200, 200), 200)])
def test_seed_scene_rejects_a_future_out_of_step(future_ts, bad_ts):
    st1 = (ParticipantState(1, "car", 0.0, 0.0, 0.0, 1.0, 0.0),)
    future = tuple(SceneFrame(ts, st1) for ts in future_ts)
    with pytest.raises(ValueError, match=f"case 3: recorded future frame at {bad_ts} ms"):
        SeedScene(None, (SceneFrame(100, st1),), 3, future)


def test_seed_scene_future_may_change_participants():
    s1 = (ParticipantState(1, "car", 0.0, 0.0, 0.0, 1.0, 0.0),)
    s2 = (ParticipantState(2, "car", 5.0, 0.0, 0.0, 1.0, 0.0),)
    seed = SeedScene(None, (SceneFrame(100, s1),), future=(SceneFrame(200, s2),))
    assert seed.track_ids == [1]


def test_synthetic_seed_has_no_future():
    assert synth_scene("car_following", {})[1].future == ()


def test_seed_scene_rejects_varying_participants():
    s1 = (ParticipantState(1, "car", 0.0, 0.0, 0.0, 1.0, 0.0),)
    s2 = (ParticipantState(2, "car", 5.0, 0.0, 0.0, 1.0, 0.0),)
    with pytest.raises(ValueError, match="constant"):
        SeedScene(None, (SceneFrame(100, s1), SceneFrame(200, s2)))
