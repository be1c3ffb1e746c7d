import pytest

from perfbench import junction
from scenex.behavior import ModelSpec
from scenex.geometry import Polyline
from scenex.map_model import Lane, MapGraph, load_map
from scenex.scene_io import load_tracks, synth_scene


def lane(lane_id, points, successors=(), width=3.5):
    return Lane(lane_id, Polyline(points), width, tuple(successors))


@pytest.fixture
def straight_map():
    return MapGraph([lane("main", [(0.0, 0.0), (100.0, 0.0)])])


@pytest.fixture
def t_junction_map():
    # A runs east and forks into B (straight on) and C (bend to the north)
    return MapGraph([
        lane("A", [(0.0, 0.0), (50.0, 0.0)], successors=("B", "C")),
        lane("B", [(50.0, 0.0), (150.0, 0.0)]),
        lane("C", [(50.0, 0.0), (60.0, 10.0), (60.0, 100.0)]),
    ])


@pytest.fixture
def double_branch_map():
    return MapGraph([
        lane("A", [(0.0, 0.0), (10.0, 0.0)], successors=("B", "C")),
        lane("B", [(10.0, 0.0), (20.0, 5.0)], successors=("D", "E")),
        lane("C", [(10.0, 0.0), (20.0, -5.0)], successors=("F", "G")),
        lane("D", [(20.0, 5.0), (30.0, 10.0)]),
        lane("E", [(20.0, 5.0), (30.0, 5.0)]),
        lane("F", [(20.0, -5.0), (30.0, -5.0)]),
        lane("G", [(20.0, -5.0), (30.0, -10.0)]),
    ])


@pytest.fixture
def roster6():
    """The six-slot roster; replay stands in for each learned model."""
    return [
        ModelSpec("standard"),
        ModelSpec("risky"),
        ModelSpec("constant_velocity"),
        ModelSpec("emergency_brake"),
        ModelSpec("replay"),
        ModelSpec("replay"),
    ]


@pytest.fixture
def following_scene():
    return synth_scene("car_following", {"n_vehicles": 2, "gap": 20.0, "speed": 10.0})


@pytest.fixture(scope="module")
def junction_scene(tmp_path_factory):
    """The benchmark's seed-3 junction map (20 lanes) and its recorded frames."""
    map_path, tracks_path = junction.write_inputs(
        3, str(tmp_path_factory.mktemp("junction")))
    return load_map(map_path), load_tracks(tracks_path).cases[0].frames


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance-criterion verdicts past output capture."""
    import sys

    lines = []
    for name in ("test_acceptance", "tests.test_acceptance"):
        module = sys.modules.get(name)
        if module is not None:
            lines = getattr(module, "RESULTS", [])
            if lines:
                break
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
