"""Partial k-means: cluster one memory-sized partition into weighted centroids.

This is the paper's Step 2 (Section 3.2).  A partition ``P_j`` of a grid
cell — sized so that its points fit in available volatile memory — is
clustered with ``R`` random restarts; the minimum-MSE model is exported as a
set of weighted centroids ``{(c_1j, w_1j), ..., (c_kj, w_kj)}`` where
``w_ij`` counts the points assigned to ``c_ij``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.convergence import ConvergenceCriterion
from repro.core.kernels import KernelChoice, KernelCounters
from repro.core.kmeans import DEFAULT_MAX_ITER
from repro.core.model import WeightedCentroidSet, as_points
from repro.core.restarts import best_of_restarts

__all__ = ["PartialResult", "partial_kmeans"]


@dataclass(frozen=True)
class PartialResult:
    """Output of clustering one partition.

    Attributes:
        summary: the weighted centroid set exported to the merge step.
        mse: MSE of the winning restart *within the partition*.
        iterations: total Lloyd iterations across restarts (cost proxy).
        n_points: number of points in the partition.
        seconds: wall-clock spent clustering the partition.
        counters: kernel instrumentation aggregated across the restarts.
    """

    summary: WeightedCentroidSet
    mse: float
    iterations: int
    n_points: int
    seconds: float
    counters: KernelCounters | None = None


def partial_kmeans(
    partition: np.ndarray,
    k: int,
    restarts: int,
    rng: np.random.Generator,
    source: str = "",
    seeding: str = "random",
    criterion: ConvergenceCriterion | None = None,
    max_iter: int = DEFAULT_MAX_ITER,
    kernel: KernelChoice = None,
    early_abandon: bool = False,
) -> PartialResult:
    """Cluster one partition and summarise it as weighted centroids.

    Args:
        partition: ``(m, d)`` points of one memory-sized chunk.
        k: centroids per partition (the paper uses the cell-level ``k``).
        restarts: random-seed restarts; the min-MSE run is kept.
        rng: random generator for seed selection.
        source: label recorded on the output set (e.g. ``"P3"``).
        seeding: seed strategy for the restarts (paper: ``"random"``).
        criterion: convergence criterion (paper default when ``None``).
        max_iter: per-run iteration cap.
        kernel: assignment backend (see
            :data:`~repro.core.kernels.KernelChoice`) forwarded to every
            restart; exact backends are bit-identical.
        early_abandon: forward the restart early-abandon heuristic.

    Returns:
        A :class:`PartialResult` whose ``summary`` weights sum to ``m``
        (every input point is represented exactly once).
    """
    pts = as_points(partition)
    start = time.perf_counter()
    report = best_of_restarts(
        pts,
        k,
        restarts,
        rng,
        seeding=seeding,
        criterion=criterion,
        max_iter=max_iter,
        kernel=kernel,
        early_abandon=early_abandon,
    )
    elapsed = time.perf_counter() - start
    summary = report.best.to_weighted_set(source=source)
    return PartialResult(
        summary=summary,
        mse=report.best.mse,
        iterations=report.total_iterations,
        n_points=pts.shape[0],
        seconds=elapsed,
        counters=report.counters,
    )
