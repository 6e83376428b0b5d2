"""Merge k-means: combine partitions' weighted centroids into one model.

The paper's Step 3 (Section 3.3).  Given the pooled weighted centroids of
all partitions, a weighted k-means is run with a deliberate, non-random
initialization: the ``k`` centroids with the *largest weights*, because
heavy centroids are "likely to represent significant cluster centroids
already".

Two merge disciplines are implemented:

* **collective** (the paper's choice): pool every partition's centroids
  first, then run one weighted k-means — all partitions get "the same
  statistical chance to contribute".
* **incremental** (the paper's rejected alternative, kept for the ablation
  benchmark): fold partitions in one at a time, re-clustering the running
  summary with each new arrival; earlier partitions are treated
  preferentially, which the paper predicts (and our ablation confirms)
  yields a less faithful representation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.convergence import ConvergenceCriterion
from repro.core.kernels import KernelChoice, KernelCounters
from repro.core.kmeans import DEFAULT_MAX_ITER, lloyd
from repro.core.model import KMeansResult, WeightedCentroidSet
from repro.core.seeding import largest_weight_seeds, random_seeds

__all__ = ["MergeResult", "merge_kmeans", "incremental_merge_kmeans"]


@dataclass(frozen=True)
class MergeResult:
    """Output of the merge step.

    Attributes:
        model: final weighted centroid set for the whole grid cell.
        mse: weighted MSE of the merge clustering *over the input
            centroids* (the paper's ``E_pm`` normalised by weight mass).
        iterations: Lloyd iterations used by the merge k-means.
        seconds: wall-clock spent merging.
        counters: kernel instrumentation aggregated over the merge runs.
    """

    model: WeightedCentroidSet
    mse: float
    iterations: int
    seconds: float
    counters: KernelCounters | None = None


def _merge_once(
    pooled: WeightedCentroidSet,
    k: int,
    criterion: ConvergenceCriterion | None,
    max_iter: int,
    kernel: KernelChoice = None,
) -> KMeansResult:
    """Run one weighted k-means over pooled centroids, seeded by weight."""
    seeds = largest_weight_seeds(pooled.centroids, k, pooled.weights)
    return lloyd(
        pooled.centroids,
        seeds,
        weights=pooled.weights,
        criterion=criterion,
        max_iter=max_iter,
        kernel=kernel,
    )


def merge_kmeans(
    partials: list[WeightedCentroidSet],
    k: int,
    criterion: ConvergenceCriterion | None = None,
    max_iter: int = DEFAULT_MAX_ITER,
    extra_random_restarts: int = 0,
    rng: np.random.Generator | None = None,
    kernel: KernelChoice = None,
) -> MergeResult:
    """Collective merge: pool all partials, weighted k-means once.

    Args:
        partials: one weighted centroid set per partition.
        k: number of centroids in the final model.
        criterion: convergence criterion (paper default when ``None``).
        max_iter: iteration cap for the merge k-means.
        extra_random_restarts: extension beyond the paper — additionally
            run this many randomly-seeded weighted k-means over the pool
            and keep the lowest-error run.  The paper's deterministic
            largest-weight seeding picks near-duplicate heavy centroids
            when many partitions summarise the same clusters (likely with
            10+ overlapping chunks), and a few random restarts repair
            those collapses; 0 reproduces the paper exactly.
        rng: randomness for the extra restarts (fresh default if needed).
        kernel: assignment backend forwarded to every merge k-means run
            (see :data:`~repro.core.kernels.KernelChoice`; exact backends
            are bit-identical, so it is a performance knob only).

    Returns:
        A :class:`MergeResult`; the model's weights sum to the total number
        of original points across all partitions.
    """
    if not partials:
        raise ValueError("merge_kmeans requires at least one partial result")
    if extra_random_restarts < 0:
        raise ValueError("extra_random_restarts must be >= 0")
    start = time.perf_counter()
    pooled = WeightedCentroidSet.concatenate(partials)
    if pooled.k <= k:
        # Fewer pooled centroids than requested clusters: the pooled set is
        # already the best k'-cluster model of itself.
        elapsed = time.perf_counter() - start
        return MergeResult(model=pooled, mse=0.0, iterations=0, seconds=elapsed)
    counters = KernelCounters()
    best = _merge_once(
        pooled, k, criterion, max_iter, kernel=kernel
    )
    iterations = best.iterations
    counters.merge(best.counters)
    if extra_random_restarts:
        generator = rng if rng is not None else np.random.default_rng()
        for __ in range(extra_random_restarts):
            seeds = random_seeds(pooled.centroids, k, generator)
            candidate = lloyd(
                pooled.centroids,
                seeds,
                weights=pooled.weights,
                criterion=criterion,
                max_iter=max_iter,
                kernel=kernel,
            )
            iterations += candidate.iterations
            counters.merge(candidate.counters)
            if candidate.mse < best.mse:
                best = candidate
    elapsed = time.perf_counter() - start
    return MergeResult(
        model=best.to_weighted_set(source="merge"),
        mse=best.mse,
        iterations=iterations,
        seconds=elapsed,
        counters=counters,
    )


def incremental_merge_kmeans(
    partials: list[WeightedCentroidSet],
    k: int,
    criterion: ConvergenceCriterion | None = None,
    max_iter: int = DEFAULT_MAX_ITER,
    kernel: KernelChoice = None,
) -> MergeResult:
    """Incremental merge: fold each partition into a running summary.

    After each arrival the running summary (at most ``k`` weighted
    centroids) is pooled with the new partition's centroids and
    re-clustered.  Earlier partitions therefore participate in every
    subsequent merge — the statistical bias the paper rejects.  Exposed for
    the collective-vs-incremental ablation.
    """
    if not partials:
        raise ValueError("incremental merge requires at least one partial result")
    start = time.perf_counter()
    running = partials[0]
    iterations = 0
    last_mse = 0.0
    counters = KernelCounters()
    for incoming in partials[1:]:
        pooled = WeightedCentroidSet.concatenate([running, incoming])
        if pooled.k <= k:
            running = pooled
            continue
        result = _merge_once(
            pooled, k, criterion, max_iter, kernel=kernel
        )
        iterations += result.iterations
        last_mse = result.mse
        counters.merge(result.counters)
        running = result.to_weighted_set(source="incremental-merge")
    elapsed = time.perf_counter() - start
    return MergeResult(
        model=running,
        mse=last_mse,
        iterations=iterations,
        seconds=elapsed,
        counters=counters,
    )
