import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scenex.analysis import (
    DEFAULT_THRESHOLDS,
    Threshold,
    convergence_study,
    cumulative,
    ground_truth_overlay,
    kde,
    threshold_fraction,
)
from scenex.metrics import MetricEngine
from scenex.scene_io import extract_seed
from scenex.simulator import SimConfig
from tests import oracles


class TestKde:
    def test_single_sample_peak(self):
        est = kde([2.0], bandwidth=0.1, grid=np.linspace(1.5, 2.5, 501))
        peak = 1.0 / (0.1 * math.sqrt(2.0 * math.pi))
        assert est.density.max() == pytest.approx(peak, rel=1e-9)
        assert est.grid[np.argmax(est.density)] == pytest.approx(2.0)
        assert len(kde([2.0], bandwidth=0.1).grid) == 512

    def test_integrates_to_one(self):
        rng = np.random.default_rng(0)
        est = kde(rng.normal(3.0, 1.0, size=400), bandwidth=0.1)
        assert np.trapezoid(est.density, est.grid) == pytest.approx(1.0, abs=0.01)

    def test_symmetric_samples_symmetric_density(self):
        est = kde([-1.0, 1.0], bandwidth=0.1)
        assert est.density == pytest.approx(est.density[::-1], abs=1e-12)

    def test_translation_equivariance(self):
        values = np.array([0.3, 0.9, 1.4, 2.2])
        a = kde(values, bandwidth=0.1)
        b = kde(values + 10.0, bandwidth=0.1)
        assert b.grid == pytest.approx(a.grid + 10.0)
        assert b.density == pytest.approx(a.density)

    def test_rejects_empty_and_bad_bandwidth(self):
        with pytest.raises(ValueError):
            kde([])
        for bandwidth in (0.0, -0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match="bandwidth"):
                kde([1.0], bandwidth=bandwidth)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_samples(self, bad):
        with pytest.raises(ValueError, match="finite"):
            kde([1.0, bad, 2.0])
        with pytest.raises(ValueError, match="finite"):
            convergence_study([1.0, bad, 2.0], sizes=(2,), resamples=1)


class TestCumulative:
    def test_monotone_and_bounded(self):
        rng = np.random.default_rng(1)
        est = kde(rng.uniform(0, 5, size=100), bandwidth=0.1)
        curve = cumulative(est)
        assert np.all(np.diff(curve) >= 0.0)
        assert curve[0] == 0.0
        assert curve[-1] == pytest.approx(1.0, abs=0.01)

    def test_half_mass_at_single_sample(self):
        est = kde([4.0], bandwidth=0.1)
        curve = cumulative(est)
        at_sample = np.interp(4.0, est.grid, curve)
        assert at_sample == pytest.approx(0.5, abs=0.01)


class TestThresholds:
    def test_registered_defaults(self):
        assert DEFAULT_THRESHOLDS["distance"] == Threshold(5.0, True)
        assert DEFAULT_THRESHOLDS["wttc"] == Threshold(0.26, True)
        assert DEFAULT_THRESHOLDS["inv_ttc"].value == pytest.approx(1.0 / 1.5)
        assert not DEFAULT_THRESHOLDS["inv_ttc"].critical_below

    def test_exact_counting(self):
        assert threshold_fraction([3.0, 4.0, 6.0, 7.0], "distance") == 0.5
        assert threshold_fraction([5.0], "distance") == 1.0  # inclusive
        assert threshold_fraction([0.5, 0.7, 0.9], "inv_ttc") == pytest.approx(2 / 3)

    def test_custom_threshold(self):
        frac = threshold_fraction([1.0, 2.0, 3.0], "pttc", Threshold(1.5, True))
        assert frac == pytest.approx(1 / 3)

    def test_unknown_metric(self):
        with pytest.raises(KeyError):
            threshold_fraction([1.0], "pttc")

    def test_cdf_cross_check(self):
        rng = np.random.default_rng(2)
        values = rng.normal(6.0, 2.0, size=2000)
        est = kde(values, bandwidth=0.1)
        curve = cumulative(est)
        frac = threshold_fraction(values, "distance")
        cdf_at_threshold = np.interp(5.0, est.grid, curve)
        assert frac == pytest.approx(cdf_at_threshold, abs=0.05)


class TestConvergence:
    def test_identity_subset_has_zero_l1(self):
        rng = np.random.default_rng(3)
        values = rng.normal(0.0, 1.0, size=200)
        rows = convergence_study(values, sizes=(200,), resamples=3)
        assert rows[0]["mean_l1"] == pytest.approx(0.0, abs=1e-12)

    def test_l1_shrinks_with_size(self):
        rng = np.random.default_rng(4)
        values = rng.normal(2.0, 1.0, size=2000)
        rows = convergence_study(values, sizes=(10, 100, 1000), resamples=20)
        means = [r["mean_l1"] for r in rows]
        assert means[0] > means[1] > means[2]

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        values = rng.normal(0.0, 1.0, size=300)
        a = convergence_study(values, sizes=(10, 100), resamples=5, seed=9)
        b = convergence_study(values, sizes=(10, 100), resamples=5, seed=9)
        assert a == b

    def test_oversized_subset_rejected(self):
        with pytest.raises(ValueError):
            convergence_study(np.ones(50), sizes=(100,))


class TestGroundTruthOverlay:
    def test_matches_direct_aggregation(self):
        from tests.test_scene_io import make_case
        from scenex.scene_io import ScenarioLog

        case = make_case(n_tracks=2, n_frames=50)
        seed = extract_seed(case, 9)
        engine = MetricEngine(None)
        vector = ground_truth_overlay(seed, SimConfig(), engine)
        direct = engine.aggregate(ScenarioLog(seed, case.frames[10:40]), None)
        assert vector == direct

    def test_short_recording_rejected(self):
        from tests.test_scene_io import make_case

        case = make_case(n_tracks=2, n_frames=20)
        seed = extract_seed(case, 9)
        with pytest.raises(ValueError, match="horizon"):
            ground_truth_overlay(seed, SimConfig(), MetricEngine(None))


# small pools make repeated values, and both zeros, common
FINITE = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
SAMPLES = st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0, 2.5, 1e-300]),
                             FINITE), min_size=1, max_size=60)
BANDWIDTHS = st.one_of(st.just(0.1), st.floats(1e-3, 1e3))


class TestExactAgainstOracle:
    """`kde` and `convergence_study` compute one kernel row per distinct value;
    the oracles compute one per sample. The floats must be the same."""

    @settings(max_examples=200, deadline=None)
    @example(values=[3.0], bandwidth=0.1, grid=None)
    @example(values=[7.25] * 40, bandwidth=0.1, grid=None)
    @example(values=[0.0, -0.0, -0.0, 0.0, 1.0], bandwidth=0.1, grid=None)
    @example(values=[-0.0, 2.0, -0.0], bandwidth=0.5, grid=[-0.0, 0.0, 1.0, 2.0])
    @given(values=SAMPLES, bandwidth=BANDWIDTHS,
           grid=st.one_of(st.none(), st.lists(FINITE, min_size=1, max_size=40)))
    def test_kde_bytes(self, values, bandwidth, grid):
        got = kde(values, bandwidth, grid=grid, metric="m")
        want = oracles.kde(values, bandwidth, grid=grid, metric="m")
        assert got.grid.tobytes() == want.grid.tobytes()
        assert got.density.tobytes() == want.density.tobytes()
        assert (got.metric, got.bandwidth, got.n_samples) == (
            want.metric, want.bandwidth, want.n_samples)

    @settings(max_examples=100, deadline=None)
    @example(values=[4.0], size_shares=[1.0], resamples=3, seed=0, bandwidth=0.1)
    @example(values=[1.5] * 12, size_shares=[0.5, 1.0], resamples=2, seed=1,
             bandwidth=0.1)
    @example(values=[0.0, -0.0] * 5 + [3.0], size_shares=[0.3, 1.0], resamples=4,
             seed=2, bandwidth=0.2)
    @given(values=SAMPLES,
           size_shares=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
           resamples=st.integers(1, 6), seed=st.integers(0, 2 ** 32),
           bandwidth=BANDWIDTHS)
    def test_convergence_rows(self, values, size_shares, resamples, seed, bandwidth):
        # sizes from 1 up to the whole population
        sizes = [max(1, round(share * len(values))) for share in size_shares]
        got = convergence_study(values, sizes, resamples, seed, bandwidth)
        want = oracles.convergence_study(values, sizes, resamples, seed, bandwidth)
        assert repr(got) == repr(want)
