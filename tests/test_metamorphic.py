"""Metamorphic checks of the simulator and the metric engine together.

Each test runs a whole enumeration twice, on a scene and on a transformed
copy of it, and compares the children's fingerprints. The expectations come
from what the transformation means, not from how the code computes:
renaming the vehicles or moving the whole scene must not change how
critical any child is.
"""
import math
from dataclasses import replace

import pytest

from scenex.behavior import ModelSpec
from scenex.geometry import Polyline
from scenex.map_model import Lane, MapGraph
from scenex.metrics import MetricEngine
from scenex.scene_io import SceneFrame, SeedScene, synth_scene
from scenex.simulator import run_enumerated

# the paper's five models, replay standing in for the learned ones
ROSTER = (ModelSpec("standard"), ModelSpec("risky"), ModelSpec("constant_velocity"),
          ModelSpec("emergency_brake"), ModelSpec("replay"))

SCENES = [
    ("car_following", {"n_vehicles": 3}),
    ("merge", {}),
    ("crossing", {}),
]


def fingerprints(graph, seed):
    """Each child's fingerprint under its assignment, as {track id: spec}."""
    batch = run_enumerated(seed, ROSTER)
    assert batch.n_failed == 0
    engine = MetricEngine(graph)
    return [(child.assignment.mapping, engine.aggregate(child.log, child.assignment))
            for child in batch.children]


def exact(vector):
    return {m: (v.worst.hex(), v.mean_of_extrema.hex(), v.defined_frames)
            for m, v in vector.items()}


def moved_seed(seed, graph, move):
    """`seed` on `graph` with every state `s` replaced by `move(s)`."""
    def frame(f):
        return SceneFrame(f.timestamp_ms, tuple(move(s) for s in f.states))

    return SeedScene(graph, tuple(map(frame, seed.frames)), seed.case_id,
                     tuple(map(frame, seed.future)))


@pytest.mark.parametrize("template, params", SCENES, ids=[s[0] for s in SCENES])
def test_relabelling_tracks_keeps_each_fingerprint(template, params):
    graph, seed = synth_scene(template, params)
    ids = seed.track_ids
    # a cyclic permutation: 1 -> 2, ..., n -> 1
    new_id = {tid: ids[(k + 1) % len(ids)] for k, tid in enumerate(ids)}
    relabelled = moved_seed(seed, graph, lambda s: replace(s, track_id=new_id[s.track_id]))
    original = {tuple(m[tid] for tid in ids): exact(v)
                for m, v in fingerprints(graph, seed)}
    again = {tuple(m[new_id[tid]] for tid in ids): exact(v)
             for m, v in fingerprints(graph, relabelled)}
    assert len(original) == len(ROSTER) ** len(ids)
    assert again == original


@pytest.mark.parametrize("template, params", SCENES, ids=[s[0] for s in SCENES])
def test_translating_the_scene_keeps_each_fingerprint(template, params):
    dx, dy = 1000.0, -500.0
    graph, seed = synth_scene(template, params)
    moved = MapGraph([Lane(lane.lane_id,
                           Polyline([(x + dx, y + dy) for x, y in lane.polyline.points]),
                           lane.width, lane.successors)
                      for lane in graph.lanes.values()])
    translated = moved_seed(seed, moved, lambda s: replace(s, x=s.x + dx, y=s.y + dy))
    pairs = list(zip(fingerprints(graph, seed), fingerprints(moved, translated)))
    assert len(pairs) == len(ROSTER) ** len(seed.track_ids)
    # coordinates near 1000 m round differently, so values agree to 1e-9
    # relative; an exact tie, such as crossing's equal arrivals (gap time
    # 0.0), may read a rounding-sized value instead, so 1e-12 absolute too
    def close(a, b):
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)

    for (mapping, vector), (moved_mapping, moved_vector) in pairs:
        assert moved_mapping == mapping
        assert moved_vector.keys() == vector.keys()
        for metric, stats in vector.items():
            other = moved_vector[metric]
            assert other.defined_frames == stats.defined_frames
            assert close(other.worst, stats.worst)
            assert close(other.mean_of_extrema, stats.mean_of_extrema)
