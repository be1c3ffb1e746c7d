"""Density estimation and criticality analysis over metric tables.

Per-scenario metric values are smoothed with a Gaussian kernel (bandwidth
0.1 by default, applied to raw metric values), accumulated to cumulative
curves, compared against literature thresholds, and resampled for
sample-size convergence studies.

numpy is imported by the functions that use it, so the simulation commands,
which import this module for the ground-truth overlay, never load it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .behavior import ModelSpec
from .metrics import MetricEngine
from .simulator import Assignment, SimConfig, run_child

if TYPE_CHECKING:
    import numpy as np

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


def kde(values, bandwidth=DEFAULT_BANDWIDTH, grid=None, metric="") -> DensityEstimate:
    """Gaussian kernel density estimate on a uniform grid.

    The default grid spans [min - 5h, max + 5h] with `DEFAULT_GRID_SIZE`
    (512) points, which is wide enough for the estimate to integrate to 1
    within 1 percent. The estimate is exact; its cost grows with the number
    of distinct values.
    """
    import numpy as np
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("kde needs at least one sample")
    if not (math.isfinite(bandwidth) and bandwidth > 0.0):
        raise ValueError(f"bandwidth must be a finite number > 0, got {bandwidth}")
    if not np.isfinite(values).all():
        raise ValueError("kde needs finite samples")
    if grid is None:
        pad = GRID_PAD_BANDWIDTHS * bandwidth
        grid = np.linspace(values.min() - pad, values.max() + pad, DEFAULT_GRID_SIZE)
    else:
        grid = np.asarray(grid, dtype=float)
    rows, inverse = _kernel_rows(values, grid, bandwidth)
    density = _density(rows, inverse, bandwidth)
    return DensityEstimate(metric, grid, density, bandwidth, int(values.size))


def _kernel_rows(values, grid, bandwidth):
    """(rows, inverse): one kernel row exp(-0.5 z^2) on `grid` per distinct
    value, and the row of each sample.

    A row depends only on the value, so `rows[inverse]` is the matrix of one
    row per sample, bit for bit. `np.unique` folds -0.0 into 0.0; their rows
    are equal because z is squared.
    """
    import numpy as np
    distinct, inverse = np.unique(values, return_inverse=True)
    z = (grid[None, :] - distinct[:, None]) / bandwidth
    return np.exp(-0.5 * z * z), inverse


def _density(rows, inverse, bandwidth):
    """The density of the samples whose rows are `rows[inverse]`.

    The rows are summed over the samples in order, and the normaliser keeps
    this grouping: both give the same floats as one row per sample.
    """
    density = rows[inverse].sum(axis=0)
    density /= inverse.size * bandwidth * math.sqrt(2.0 * math.pi)
    return density


def cumulative(est: DensityEstimate) -> np.ndarray:
    """Running trapezoidal integral, clamped to [0, 1], non-decreasing."""
    import numpy as np
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
}


def threshold_fraction(values, metric, threshold: Threshold | None = None) -> float:
    """Fraction of raw samples on the critical side of the threshold."""
    import numpy as np
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
    row per size: dict(size, mean_l1, std_l1, resamples). The population's
    kernel rows are computed once; a subset sums the rows of its samples.
    """
    import numpy as np
    full_values = np.asarray(full_values, dtype=float)
    rng = np.random.default_rng(seed)
    full = kde(full_values, bandwidth)
    kernel_rows, inverse = _kernel_rows(full_values, full.grid, bandwidth)
    rows = []
    for size in sizes:
        if size > full_values.size:
            raise ValueError(
                f"subset size {size} exceeds the population ({full_values.size})"
            )
        l1 = np.empty(resamples)
        for r in range(resamples):
            # the same draws and generator state as choosing from full_values
            picked = rng.choice(full_values.size, size=size, replace=False)
            density = _density(kernel_rows, inverse[picked], bandwidth)
            l1[r] = np.trapezoid(np.abs(density - full.density), full.grid)
        rows.append({
            "size": int(size),
            "mean_l1": float(l1.mean()),
            "std_l1": float(l1.std()),
            "resamples": int(resamples),
        })
    return rows


def ground_truth_overlay(seed_scene, cfg: SimConfig, engine: MetricEngine):
    """Fingerprint of the seed's recorded future, replayed through the
    simulator.

    Raises ValueError when the recorded future is shorter than the horizon;
    absent metrics stay absent in the result.
    """
    if len(seed_scene.future) < cfg.horizon_steps:
        raise ValueError("recording does not cover the scenario horizon")
    assignment = Assignment(
        {tid: ModelSpec("replay") for tid in seed_scene.track_ids},
        ("sampled", cfg.rng_seed),
    )
    log = run_child(seed_scene, assignment, cfg)
    return engine.aggregate(log, assignment)
