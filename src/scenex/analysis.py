"""Density estimation and criticality analysis over metric tables.

Per-scenario metric values are smoothed with a Gaussian kernel (bandwidth
0.1 by default, applied to raw metric values), accumulated to cumulative
curves, compared against literature thresholds, and resampled for
sample-size convergence studies.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .behavior import ModelSpec
from .errors import ScenexError
from .metrics import MetricEngine
from .simulator import Assignment, SimConfig, recorded_base_index, run_child

DEFAULT_BANDWIDTH = 0.1
DEFAULT_GRID_SIZE = 512
GRID_PAD_BANDWIDTHS = 5.0
DEFAULT_CONVERGENCE_SIZES = (10, 100, 385, 1000)
DEFAULT_RESAMPLES = 20


@dataclass(frozen=True)
class DensityEstimate:
    metric: str
    grid: np.ndarray
    density: np.ndarray
    bandwidth: float
    n_samples: int


def kde(values, bandwidth=DEFAULT_BANDWIDTH, grid=None,
        grid_size=DEFAULT_GRID_SIZE, metric="") -> DensityEstimate:
    """Gaussian kernel density estimate on a uniform grid.

    The default grid spans [min - 5h, max + 5h] with 512 points, which is
    wide enough for the estimate to integrate to 1 within 1 percent.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("kde needs at least one sample")
    if bandwidth <= 0.0:
        raise ValueError("bandwidth must be > 0")
    if grid is None:
        pad = GRID_PAD_BANDWIDTHS * bandwidth
        grid = np.linspace(values.min() - pad, values.max() + pad, grid_size)
    else:
        grid = np.asarray(grid, dtype=float)
    z = (grid[None, :] - values[:, None]) / bandwidth
    density = np.exp(-0.5 * z * z).sum(axis=0)
    density /= values.size * bandwidth * math.sqrt(2.0 * math.pi)
    return DensityEstimate(metric, grid, density, bandwidth, int(values.size))


def cumulative(est: DensityEstimate) -> np.ndarray:
    """Running trapezoidal integral, clamped to [0, 1], non-decreasing."""
    dx = np.diff(est.grid)
    steps = 0.5 * (est.density[1:] + est.density[:-1]) * dx
    curve = np.concatenate([[0.0], np.cumsum(steps)])
    return np.maximum.accumulate(np.clip(curve, 0.0, 1.0))


@dataclass(frozen=True)
class Threshold:
    value: float
    critical_below: bool  # True: values <= threshold are critical


DEFAULT_THRESHOLDS = {
    "distance": Threshold(5.0, True),
    "wttc": Threshold(0.26, True),
    "inv_ttc": Threshold(1.0 / 1.5, False),
    "tq": Threshold(1.2, False),
}


def threshold_fraction(values, metric, threshold: Threshold | None = None) -> float:
    """Fraction of raw samples on the critical side of the threshold."""
    if threshold is None:
        try:
            threshold = DEFAULT_THRESHOLDS[metric]
        except KeyError:
            raise KeyError(f"no registered threshold for metric {metric!r}") from None
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("threshold_fraction needs at least one sample")
    if threshold.critical_below:
        return float(np.mean(values <= threshold.value))
    return float(np.mean(values >= threshold.value))


def convergence_study(full_values, sizes=DEFAULT_CONVERGENCE_SIZES,
                      resamples=DEFAULT_RESAMPLES, seed=0, bandwidth=DEFAULT_BANDWIDTH):
    """L1 distance between subset and full-population densities.

    For each size, `resamples` subsets are drawn without replacement and
    their KDE compared to the full KDE on the full-data grid. Returns one
    row per size: dict(size, mean_l1, std_l1, resamples).
    """
    full_values = np.asarray(full_values, dtype=float)
    rng = np.random.default_rng(seed)
    full = kde(full_values, bandwidth)
    rows = []
    for size in sizes:
        if size > full_values.size:
            raise ValueError(
                f"subset size {size} exceeds the population ({full_values.size})"
            )
        l1 = np.empty(resamples)
        for r in range(resamples):
            subset = rng.choice(full_values, size=size, replace=False)
            sub = kde(subset, bandwidth, grid=full.grid)
            l1[r] = np.trapezoid(np.abs(sub.density - full.density), full.grid)
        rows.append({
            "size": int(size),
            "mean_l1": float(l1.mean()),
            "std_l1": float(l1.std()),
            "resamples": int(resamples),
        })
    return rows


def ground_truth_overlay(seed_scene, recorded, cfg: SimConfig,
                         engine: MetricEngine):
    """Fingerprint of the recorded future, replayed through the simulator.

    Raises ValueError when the recording is shorter than the horizon; absent
    metrics stay absent in the result.
    """
    recorded = tuple(recorded)
    try:
        covered = len(recorded) - 1 - recorded_base_index(recorded, seed_scene)
    except ScenexError:
        covered = -1
    if covered < cfg.horizon_steps:
        raise ValueError("recording does not cover the scenario horizon")
    assignment = Assignment(
        {tid: ModelSpec("replay") for tid in seed_scene.track_ids},
        ("sampled", cfg.rng_seed),
    )
    log = run_child(seed_scene, assignment, cfg, recorded=recorded)
    return engine.aggregate(log)
