import csv
import io
import math
import pickle
import random
from dataclasses import replace
from functools import cached_property

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

    # a later row of a frame, a vehicle's or a dropped pedestrian's, that
    # gives the frame another timestamp
    @pytest.mark.parametrize("agent_type", ["car", "pedestrian"])
    def test_frame_with_two_timestamps_rejected(self, tmp_path, agent_type):
        p = tmp_path / "tracks.csv"
        rows = [
            "1,1,1,100,car,0.0,0.0,1.0,0.0,0.0,4.5,1.8",
            f"1,2,1,900,{agent_type},10.0,0.0,1.0,0.0,0.0,4.5,1.8",
        ]
        p.write_text(",".join(TRACK_COLUMNS) + "\n" + "\n".join(rows) + "\n")
        with pytest.raises(SchemaError) as err:
            load_tracks(p)
        assert str(err.value) == (f"{p}:3: case 1 frame 1: timestamp_ms 900, "
                                  "but 100 on an earlier row")

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

    @pytest.mark.parametrize("column,value", [
        ("length", "nan"), ("length", "inf"), ("width", "inf"), ("width", "-inf"),
        ("length", "0.0"), ("width", "-1.8"),
    ])
    def test_vehicle_size_must_be_finite_and_positive(self, tmp_path, column, value):
        p = tmp_path / "tracks.csv"
        fields = "1,1,1,100,car,0.0,0.0,1.0,0.0,0.0,4.5,1.8".split(",")
        fields[TRACK_COLUMNS.index(column)] = value
        p.write_text(",".join(TRACK_COLUMNS) + "\n" + ",".join(fields) + "\n")
        with pytest.raises(SchemaError, match=r"tracks\.csv:2: track 1: length and "
                           "width must be finite and positive"):
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


# a state whose floats are all non-zero, and the names of its float fields
KEY_STATE = ParticipantState(7, "car", 12.5, -3.0, 0.25, 8.0, 0.5, 4.5, 1.8)
FLOAT_FIELDS = ("x", "y", "yaw", "vx", "vy", "length", "width")


class TestStateKey:
    """`ParticipantState.key` is a state's exact content, packed once per
    state object."""

    def test_equal_content_equal_keys(self):
        again = ParticipantState(7, "car", 12.5, -3.0, 0.25, 8.0, 0.5, 4.5, 1.8)
        assert again is not KEY_STATE and again.key == KEY_STATE.key

    @pytest.mark.parametrize("name", FLOAT_FIELDS[:5])
    def test_signed_zero_gives_another_key(self, name):
        plus = replace(KEY_STATE, **{name: 0.0})
        minus = replace(KEY_STATE, **{name: -0.0})
        assert plus == minus  # equal as numbers only
        assert plus.key != minus.key

    @pytest.mark.parametrize("name", FLOAT_FIELDS)
    def test_next_float_gives_another_key(self, name):
        value = getattr(KEY_STATE, name)
        other = replace(KEY_STATE, **{name: math.nextafter(value, math.inf)})
        assert other.key != KEY_STATE.key

    @pytest.mark.parametrize("change", [{"track_id": 8}, {"track_id": 70},
                                        {"agent_type": "truck"}, {"agent_type": "other"}])
    def test_track_id_and_agent_type_give_another_key(self, change):
        assert replace(KEY_STATE, **change).key != KEY_STATE.key

    def test_replaced_state_gets_a_fresh_key(self):
        # replay's held state is the last recorded one with its speed zeroed
        base = ParticipantState(3, "car", 1.0, 2.0, 0.0, 8.0, -0.0)
        base_key = base.key
        held = replace(base, vx=0.0, vy=0.0)
        assert "key" not in vars(held)
        assert held.key == ParticipantState(3, "car", 1.0, 2.0, 0.0, 0.0, 0.0).key
        assert held.key != base_key and base.key is base_key

    @pytest.mark.parametrize("packed_before", [False, True])
    def test_pickle_round_trip_keeps_the_key(self, packed_before):
        state = ParticipantState(4, "truck", -0.0, 1e-300, -math.pi, 0.0, -0.0, 12.0, 2.5)
        expected = ParticipantState(4, "truck", -0.0, 1e-300, -math.pi, 0.0, -0.0,
                                    12.0, 2.5).key
        if packed_before:
            assert state.key == expected
        assert pickle.loads(pickle.dumps(state)).key == expected

    def test_digest_follows_the_keys(self):
        seed = SeedScene(None, make_case(n_frames=2).frames)
        frames = make_case(n_frames=5).frames[2:]
        log = ScenarioLog(seed, frames)
        again = ScenarioLog(seed, tuple(
            SceneFrame(f.timestamp_ms, tuple(replace(s) for s in f.states))
            for f in frames))
        assert again.digest == log.digest
        minus = ScenarioLog(seed, frames[:2] + (SceneFrame(frames[2].timestamp_ms, (
            frames[2].states[0], replace(frames[2].states[1], vy=-0.0))),))
        assert minus.frames == frames and minus.digest != log.digest
        relabelled = ScenarioLog(seed, tuple(SceneFrame(f.timestamp_ms, tuple(
            replace(s, track_id=s.track_id + 10) for s in f.states)) for f in frames))
        assert relabelled.digest != log.digest


def reference_text(case_id, frames):
    """The track CSV of `frames` as one plain `csv.writer` writes it, row by row."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(TRACK_COLUMNS)
    for fr in frames:
        for s in fr.states:
            writer.writerow([case_id, s.track_id, fr.timestamp_ms // 100, fr.timestamp_ms,
                             s.agent_type, s.x, s.y, s.vx, s.vy, s.yaw, s.length, s.width])
    return buf.getvalue()


def written_text(tmp_path, case_id, frames, name="log.csv"):
    path = tmp_path / name
    write_case(case_id, frames, path)
    return path.read_bytes().decode()


class TestRowText:
    """`write_case` renders each state's cells once per state object, and
    writes what a plain `csv.writer` writes, byte for byte."""

    @pytest.mark.parametrize("agent_type", ['big,truck', 'say "car"', '"', "a\nb"])
    def test_agent_type_quoted(self, tmp_path, agent_type):
        frames = (SceneFrame(100, (ParticipantState(1, agent_type, 1.0, 2.0, 0.0, 3.0, 0.0),
                                   ParticipantState(2, "car", 5.0, 2.0, 0.0, 3.0, 0.0))),)
        text = written_text(tmp_path, 3, frames)
        assert text == reference_text(3, frames)
        assert '"' in text.splitlines()[1]

    def test_extreme_floats(self, tmp_path):
        tiny = 5e-324  # the least subnormal
        states = (
            ParticipantState(1, "car", -0.0, 0.0, -0.0, 0.0, -0.0),
            ParticipantState(2, "car", 0.0, -0.0, 0.0, -0.0, 0.0),
            ParticipantState(3, "car", tiny, -tiny, 2.2e-308, 1e308, -1e308, 1e308, tiny),
            ParticipantState(4, "truck", 0.1, 1 / 3, -math.pi, 12345.678, 1e-7, 12.0, 2.5),
        )
        frames = (SceneFrame(100, states), SceneFrame(200, states[::-1]))
        text = written_text(tmp_path, 0, frames)
        assert text == reference_text(0, frames)
        assert ",-0.0," in text and "5e-324" in text and "1e+308" in text

    def test_state_repeated_across_frames_and_logs(self, tmp_path, monkeypatch):
        rendered = []
        original = ParticipantState.__dict__["csv_cells"].func

        def counting(state):
            rendered.append(state)
            return original(state)

        cells = cached_property(counting)
        cells.__set_name__(ParticipantState, "csv_cells")
        monkeypatch.setattr(ParticipantState, "csv_cells", cells)
        held = ParticipantState(1, "car", 1.5, -0.0, 0.25, 8.0, 0.0)
        moving = [ParticipantState(2, "car", 10.0 + k, 0.0, 0.0, 8.0, 0.0) for k in range(3)]
        frames = tuple(SceneFrame(100 * (k + 1), (held, moving[k])) for k in range(3))
        for case_id, name in ((1, "a.csv"), (7, "b.csv")):
            assert written_text(tmp_path, case_id, frames, name) == \
                reference_text(case_id, frames)
        assert len(rendered) == 4
        assert {id(s) for s in rendered} == {id(held)} | {id(s) for s in moving}

    def test_equal_states_that_are_distinct_objects(self, tmp_path):
        first = ParticipantState(1, "car", 1.5, 2.0, 0.25, 8.0, 0.0)
        again = ParticipantState(1, "car", 1.5, 2.0, 0.25, 8.0, 0.0)
        signed = ParticipantState(1, "car", 1.5, 2.0, 0.25, 8.0, -0.0)
        assert first == again == signed  # equal as numbers only
        frames = tuple(SceneFrame(100 * (k + 1), (s,)) for k, s in
                       enumerate((first, again, signed, first)))
        text = written_text(tmp_path, 2, frames)
        assert text == reference_text(2, frames)
        rows = text.splitlines()[1:]
        assert rows[0].split(",")[4:] == rows[1].split(",")[4:] == rows[3].split(",")[4:]
        assert rows[2].split(",")[8] == "-0.0"

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.text(max_size=6), *[st.floats(allow_nan=False,
                                                               allow_infinity=False)] * 5),
                    min_size=1, max_size=4))
    def test_equals_the_reference(self, tmp_path_factory, rows):
        states = tuple(ParticipantState(tid, agent_type, *floats)
                       for tid, (agent_type, *floats) in enumerate(rows, start=1))
        frames = (SceneFrame(100, states), SceneFrame(200, states))
        assert written_text(tmp_path_factory.mktemp("rows"), -4, frames) == \
            reference_text(-4, frames)
