"""Acceptance gate: one test per release criterion.

Each test records a single PASS/FAIL line; conftest echoes them in the
terminal summary so the gate is readable even under pytest's capture. The
enumeration batch is shared between the cardinality and convergence
criteria.
"""
import math
import os
import random
import sys
import time

import numpy as np
import pytest

from scenex.analysis import (
    Threshold,
    convergence_study,
    cumulative,
    kde,
    threshold_fraction,
)
from scenex.behavior import ModelSpec, idm_accel, profile_params
from scenex.cli import EXIT_OK, main
from scenex.map_model import MapGraph
from scenex.metrics import (
    MAX_IS_WORST,
    MetricEngine,
    PairContext,
    metric_inverse_ttc,
    metric_pttc,
    metric_wttc,
)
from scenex.scene_io import (
    Case,
    ParticipantState,
    SceneFrame,
    ScenarioLog,
    SeedScene,
    extract_seed,
    load_tracks,
    synth_scene,
    write_log,
)
from scenex.simulator import Assignment, SimConfig, run_child, run_enumerated

from tests.conftest import lane
from tests.test_cli import TWO_MODEL_ROSTER, read_bytes_tree, write_config
from tests.test_metrics import bisect_root, following_ctx, pttc_gap, wttc_gap

DT = 0.1


RESULTS = []


def report(num, name, passed):
    status = "PASS" if passed else "FAIL"
    line = f"[ACCEPTANCE {num:02d}] {name}: {status}"
    RESULTS.append(line)
    print(line, file=sys.__stdout__, flush=True)


def check(num, name, passed):
    report(num, name, passed)
    assert passed, f"acceptance criterion {num} ({name}) failed"


def state(tid, x, vx, length=4.5, width=1.8):
    return ParticipantState(tid, "car", x, 0.0, 0.0, vx, 0.0, length, width)


def long_road_seed(poses):
    """Seed on a 2000 m straight lane; poses = [(tid, x, speed), ...]."""
    graph = MapGraph([lane("road", [(0.0, 0.0), (2000.0, 0.0)])])
    frames = []
    for k in range(10):
        back = (9 - k) * DT
        frames.append(SceneFrame(100 * (k + 1), tuple(
            state(tid, x - v * back, v) for tid, x, v in poses)))
    return SeedScene(graph, tuple(frames))


@pytest.fixture(scope="module")
def full_enumeration(roster6_module):
    graph, seed = synth_scene("car_following",
                              {"n_vehicles": 5, "gap": 20.0, "speed": 10.0})
    start = time.perf_counter()
    batch = run_enumerated(seed, roster6_module)
    elapsed = time.perf_counter() - start
    engine = MetricEngine(graph)
    distance_worst = np.array([
        engine.aggregate(child.log)["distance"].worst for child in batch.children
    ])
    return batch, elapsed, distance_worst


@pytest.fixture(scope="module")
def roster6_module():
    return [
        ModelSpec("standard"),
        ModelSpec("risky"),
        ModelSpec("constant_velocity"),
        ModelSpec("emergency_brake"),
        ModelSpec("replay"),
        ModelSpec("replay"),
    ]


def test_01_enumeration_cardinality(full_enumeration):
    batch, elapsed, _ = full_enumeration
    per_child = elapsed / len(batch.children)
    ok = (len(batch.children) == 7776
          and batch.n_failed == 0
          and elapsed < 600.0
          and per_child <= 0.05)
    check(1, f"enumeration 7776 runs ({per_child * 1e3:.1f} ms/child)", ok)


def test_02_sample_size_convergence(full_enumeration):
    _, _, samples = full_enumeration
    rows = convergence_study(samples, sizes=(10, 100, 385, 1000), resamples=20)
    means = [r["mean_l1"] for r in rows]
    detail = ", ".join(
        f"n={r['size']}: {r['mean_l1']:.4f}±{r['std_l1']:.4f}" for r in rows)
    ok = all(r["resamples"] >= 20 for r in rows) and all(
        a > b for a, b in zip(means, means[1:]))
    check(2, f"KDE convergence ({detail})", ok)


def idm_reference(p, v, s_net, delta_v):
    """Independent scalar transcription of the acceleration law."""
    accel = p.a_max * (1.0 - (v / p.v0) ** p.delta)
    if not math.isinf(s_net):
        desired = p.s0 + v * p.T + v * delta_v / (2.0 * math.sqrt(p.a_max * p.b))
        desired = max(desired, p.s0)
        accel = accel - p.a_max * (desired / s_net) ** 2
    return max(-9.0, min(accel, p.a_max))


def test_03_idm_correctness():
    rng = random.Random(11)
    worst_err = 0.0
    for _ in range(10_000):
        p = profile_params(rng.choice(["standard", "risky"]),
                           v0=rng.uniform(5.0, 30.0))
        v = rng.uniform(0.0, 35.0)
        s = math.inf if rng.random() < 0.2 else rng.uniform(0.1, 150.0)
        dv = rng.uniform(-20.0, 20.0)
        worst_err = max(worst_err, abs(idm_accel(p, v, s, dv)
                                       - idm_reference(p, v, s, dv)))
    p = profile_params("standard", v0=12.0)
    boundaries = idm_accel(p, 0.0) == p.a_max and idm_accel(p, p.v0) == 0.0

    # platoon equilibrium: a leader at constant 10 m/s, follower aiming
    # for 15 m/s; closed-form s_eq = s*(v_l) / sqrt(1 - (v_l/v0)^delta)
    v_l, v0 = 10.0, 15.0
    params = profile_params("standard", v0=v0)
    s_star = params.s0 + v_l * params.T
    s_eq = s_star / math.sqrt(1.0 - (v_l / v0) ** params.delta)
    seed = long_road_seed([(1, 100.0, 10.0), (2, 150.0, 10.0)])
    assignment = Assignment(
        {1: ModelSpec("standard", params=params), 2: ModelSpec("constant_velocity")},
        ("sampled", 0),
    )
    cfg = SimConfig(horizon_steps=600, replan_interval=1)
    log = run_child(seed, assignment, cfg)
    final = log.frames[-1]
    gap = final.get(2).x - final.get(1).x - 4.5
    ok = worst_err < 1e-9 and boundaries and abs(gap - s_eq) < 0.5
    check(3, f"IDM law (max err {worst_err:.1e}, |gap-s_eq|={abs(gap - s_eq):.3f} m)",
          ok)


def brake_oracle(follower_kind, params, x_f, v_f, x_l, v_l, steps, brake=5.0):
    """Step-by-step trapezoid integration of follower vs braking leader."""
    xs = []
    for _ in range(steps):
        if follower_kind == "idm":
            s_net = max(x_l - x_f - 4.5, 0.01)
            a = idm_reference(params, v_f, s_net, v_f - v_l)
        else:
            a = 0.0
        v_f1 = max(0.0, v_f + a * DT)
        x_f += 0.5 * (v_f + v_f1) * DT
        v_l1 = max(0.0, v_l - brake * DT)
        x_l += 0.5 * (v_l + v_l1) * DT
        v_f, v_l = v_f1, v_l1
        xs.append((x_f, x_l))
    return xs


def test_04_emergency_brake_interaction():
    cfg = SimConfig(horizon_steps=100, replan_interval=1)
    params = profile_params("standard", v0=15.0)
    s_star = params.s0 + 10.0 * params.T
    s_eq = s_star / math.sqrt(1.0 - (10.0 / 15.0) ** params.delta)

    def run(follower_spec, gap_net, kind):
        x_f, x_l = 100.0, 100.0 + gap_net + 4.5
        seed = long_road_seed([(1, x_f, 10.0), (2, x_l, 10.0)])
        assignment = Assignment(
            {1: follower_spec, 2: ModelSpec("emergency_brake")}, ("sampled", 0))
        log = run_child(seed, assignment, cfg)
        oracle = brake_oracle(kind, params, x_f, 10.0, x_l, 10.0, 100)
        dev = max(
            max(abs(fr.get(1).x - ox), abs(fr.get(2).x - ol))
            for fr, (ox, ol) in zip(log.frames, oracle)
        )
        min_d = min(fr.get(2).x - fr.get(1).x for fr in log.frames)
        return dev, min_d, log

    dev_std, min_std, _ = run(ModelSpec("standard", params=params), s_eq, "idm")
    dev_cv, min_cv, log_cv = run(ModelSpec("constant_velocity"), 10.0, "cv")
    hit_step = next(i for i, fr in enumerate(log_cv.frames)
                    if fr.get(2).x - fr.get(1).x <= 4.5)
    ok = (dev_std < 1e-9 and dev_cv < 1e-9
          and min_std > 4.5              # never closer than the half-lengths
          and (hit_step + 1) * DT <= 3.0)  # CV follower collides within 3 s
    check(4, f"emergency brake (std min {min_std:.2f} m, cv hit at "
             f"{(hit_step + 1) * DT:.1f} s)", ok)


def test_05_metric_root_and_aggregation_oracles():
    rng = random.Random(21)
    worst_pttc = worst_wttc = 0.0
    for _ in range(10_000):
        ctx = following_ctx(rng.uniform(0.5, 80.0), 0.0, rng.uniform(0.0, 20.0),
                            v_follower=rng.uniform(0.1, 25.0))
        ctx = PairContext(ctx.a, ctx.b, ctx.s_net, ctx.a.speed - ctx.b.speed)
        t = metric_pttc(ctx, decel=3.0)
        worst_pttc = max(worst_pttc, abs(
            t - bisect_root(lambda u: pttc_gap(ctx, 3.0, u), 0.0, 1000.0)))
        w = metric_wttc(ctx, accel=7.5)
        worst_wttc = max(worst_wttc, abs(
            w - bisect_root(lambda u: wttc_gap(ctx, 7.5, u), 0.0, 100.0)))

    graph, seed = synth_scene("car_following", {"n_vehicles": 3})
    agg_ok = True
    for _ in range(100):
        engine = MetricEngine(graph)
        frames = tuple(
            SceneFrame(100 * (k + 1), tuple(
                ParticipantState(t, "car", rng.uniform(0, 450),
                                 rng.uniform(-1, 1), 0.0,
                                 rng.uniform(0, 15), 0.0, 4.5, 1.8)
                for t in (1, 2, 3)))
            for k in range(8)
        )
        log = ScenarioLog(seed, None, frames)
        vector = engine.aggregate(log)
        per_metric = {}
        for frame in frames:
            vals = {}
            for ctx in engine.pair_contexts(frame):
                for m, v in engine.pair_values(ctx).items():
                    if v is not None:
                        vals.setdefault(m, []).append(v)
            for m, vv in vals.items():
                pick = max(vv) if m in MAX_IS_WORST else min(vv)
                per_metric.setdefault(m, []).append(pick)
        if set(vector) != set(per_metric):
            agg_ok = False
            break
        for m, vv in per_metric.items():
            worst = max(vv) if m in MAX_IS_WORST else min(vv)
            if (vector[m].worst != worst
                    or vector[m].mean_of_extrema != sum(vv) / len(vv)
                    or vector[m].defined_frames != len(vv)):
                agg_ok = False
    ok = worst_pttc < 1e-6 and worst_wttc < 1e-6 and agg_ok
    check(5, f"metric oracles (pttc err {worst_pttc:.1e}, wttc err "
             f"{worst_wttc:.1e}, aggregation exact)", ok)


def test_06_ordering_properties():
    rng = random.Random(31)
    violations = 0
    for _ in range(10_000):
        ctx = following_ctx(rng.uniform(0.5, 80.0), rng.uniform(0.01, 12.0),
                            rng.uniform(0.0, 20.0))
        ttc = 1.0 / metric_inverse_ttc(ctx)
        if metric_pttc(ctx, decel=3.0) > ttc + 1e-12:
            violations += 1
        if metric_wttc(ctx, accel=7.5) > ttc + 1e-12:
            violations += 1
    check(6, f"PTTC/WTTC <= TTC ({violations} violations in 10000 trials)",
          violations == 0)


def test_07_threshold_semantics():
    exact = (
        threshold_fraction([3.0, 4.0, 6.0, 7.0], "distance") == 0.5
        and threshold_fraction([0.1, 0.2, 0.3, 1.0], "wttc") == 0.5
        and threshold_fraction([0.5, 0.7, 1.0], "inv_ttc") == pytest.approx(2 / 3)
        and threshold_fraction([5.0], "distance") == 1.0
    )
    rng = np.random.default_rng(41)
    cdf_ok = True
    for metric, loc in (("distance", 6.0), ("wttc", 0.3), ("inv_ttc", 0.6)):
        values = rng.normal(loc, loc / 2.0, size=2000)
        est = kde(values, bandwidth=0.1)
        curve = cumulative(est)
        thr = Threshold(
            {"distance": 5.0, "wttc": 0.26, "inv_ttc": 1.0 / 1.5}[metric],
            metric != "inv_ttc",
        )
        frac = threshold_fraction(values, metric, thr)
        at = float(np.interp(thr.value, est.grid, curve))
        expected = at if thr.critical_below else 1.0 - at
        if abs(frac - expected) > 0.05:
            cdf_ok = False
    check(7, "threshold counting + CDF cross-check", exact and cdf_ok)


def test_08_determinism(tmp_path):
    cfg, out = write_config(tmp_path, roster=TWO_MODEL_ROSTER, n_runs=20)
    out2 = tmp_path / "out-jobs2"
    ok = main(["simulate", "--config", str(cfg), "--jobs", "1"]) == EXIT_OK
    first = read_bytes_tree(out)
    ok = ok and main(["simulate", "--config", str(cfg), "--jobs", "1"]) == EXIT_OK
    ok = ok and read_bytes_tree(out) == first
    ok = ok and main(["simulate", "--config", str(cfg), "--jobs", "2",
                      "--output-dir", str(out2)]) == EXIT_OK
    second = read_bytes_tree(out2)
    del first["manifest.json"], second["manifest.json"]  # embeds output_dir
    ok = ok and first == second

    a1 = tmp_path / "analysis1"
    a2 = tmp_path / "analysis2"
    for dest in (a1, a2):
        ok = ok and main(["analyze", str(out / "metrics.csv"), "--out", str(dest),
                          "--sizes", "5,10"]) == EXIT_OK
    ok = ok and read_bytes_tree(a1) == read_bytes_tree(a2)
    check(8, "byte-identical reruns, jobs-invariance, analysis CSVs", ok)


def test_09_round_trip_fidelity(tmp_path):
    rng = random.Random(51)
    frames = []
    for k in range(50):
        t = k * DT
        frames.append(SceneFrame(100 * (k + 1), (
            ParticipantState(1, "car", 10.0 * t, 2.0 * math.sin(0.3 * t),
                             0.1 * math.cos(t), 10.0, 0.6 * math.cos(0.3 * t)),
            ParticipantState(2, "car", 40.0 + 8.0 * t, rng.uniform(-0.1, 0.1),
                             0.0, 8.0, 0.0),
        )))
    case = Case(7, tuple(frames))
    seed = extract_seed(case, 9)
    spec = ModelSpec("replay")
    assignment = Assignment({1: spec, 2: spec}, ("sampled", 0))
    log = run_child(seed, assignment, recorded=case.frames)
    dev = max(
        abs(getattr(sim_s, f) - getattr(rec_s, f))
        for sim_fr, rec_fr in zip(log.frames, case.frames[10:40])
        for sim_s, rec_s in zip(sim_fr.states, rec_fr.states)
        for f in ("x", "y", "yaw", "vx", "vy")
    )
    path = tmp_path / "log.csv"
    write_log(log, path)
    reloaded = load_tracks(path).cases[0]
    lossless = reloaded.frames == log.frames
    check(9, f"replay round-trip (max deviation {dev:.1e}, reload lossless)",
          dev < 1e-6 and lossless)


def test_10_kde_normalization(full_enumeration):
    _, _, samples = full_enumeration
    rng = np.random.default_rng(61)
    sample_sets = [
        samples,
        rng.normal(5.0, 2.0, size=385),
        rng.uniform(0.0, 1.0, size=37),
        np.array([0.25]),
    ]
    integrals_ok = all(
        abs(np.trapezoid(est.density, est.grid) - 1.0) <= 0.01
        for est in (kde(v, bandwidth=0.1) for v in sample_sets)
    )
    single = kde([0.25], bandwidth=0.1, grid=np.linspace(-0.25, 0.75, 1001))
    peak_ok = abs(single.density.max()
                  - 1.0 / (0.1 * math.sqrt(2.0 * math.pi))) < 1e-6
    check(10, "KDE integrates to 1 +/- 0.01; single-sample peak 1/(h*sqrt(2*pi))",
          integrals_ok and peak_ok)
