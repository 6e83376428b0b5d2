"""Adaptive per-partition k via ECVQ — the paper's Section 3.3 remark.

The open question the paper leaves ("which is the best choice of k
depending on the partition size") is answered the way it suggests: run
ECVQ with a *maximum* k in each partial step, let under-used centroids
starve, and feed the surviving weighted centroids — however many each
partition kept — into the standard collective merge.

:class:`EcvqPartialMergeKMeans` mirrors the
:class:`~repro.core.pipeline.PartialMergeKMeans` API so the two are
drop-in comparable (see the ``ecvq`` ablation benchmark).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.cell import partition_rng, resolve_seed, split_cell
from repro.core.convergence import ConvergenceCriterion
from repro.core.ecvq import EcvqResult, ecvq
from repro.core.kmeans import DEFAULT_MAX_ITER
from repro.core.merge import MergeResult, merge_kmeans
from repro.core.model import ClusterModel, as_points
from repro.core.pipeline import PartialMergeKMeans
from repro.core.quality import mse as evaluate_mse

__all__ = ["EcvqPartialMergeReport", "EcvqPartialMergeKMeans"]


@dataclass(frozen=True)
class EcvqPartialMergeReport:
    """Diagnostics of one ECVQ-partial/merge run.

    Attributes:
        model: final cell model (exactly ``k`` centroids).
        partials: the per-partition ECVQ results.
        merge: the merge-step result.
        effective_ks: the adaptive k each partition settled on.
    """

    model: ClusterModel
    partials: list[EcvqResult]
    merge: MergeResult
    effective_ks: list[int]


class EcvqPartialMergeKMeans:
    """Partial/merge with entropy-constrained partial steps.

    Args:
        k: centroids in the final merged model.
        max_k: ECVQ codebook ceiling per partition (defaults to ``2 * k``).
        lam: rate/distortion trade-off; larger prunes harder.
        n_chunks: partitions when :meth:`fit` receives a flat array.
        criterion: convergence criterion for the merge step.
        max_iter: iteration cap for all stages.
        seed: seed of the cell task's split and partition RNGs
            (:mod:`repro.core.cell`): the chunks are exactly those
            :class:`~repro.core.pipeline.PartialMergeKMeans` makes with
            the same seed, so the two compare on identical partitions.
    """

    def __init__(
        self,
        k: int,
        max_k: int | None = None,
        lam: float = 1.0,
        n_chunks: int = 5,
        criterion: ConvergenceCriterion | None = None,
        max_iter: int = DEFAULT_MAX_ITER,
        seed: int | None = None,
    ) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k
        self.max_k = max_k if max_k is not None else 2 * k
        if self.max_k < k:
            raise ValueError("max_k must be >= k")
        self.lam = lam
        self.n_chunks = n_chunks
        self.criterion = criterion
        self.max_iter = max_iter
        self.seed = resolve_seed(seed)

    def fit(self, points: np.ndarray) -> EcvqPartialMergeReport:
        """Random-split ``points`` and cluster with adaptive partial k."""
        pts = as_points(points)
        chunks = split_cell(
            pts, self.n_chunks, self.seed, PartialMergeKMeans.CELL_ID
        )
        return self.fit_chunks(chunks, evaluate_on=pts)

    def fit_chunks(
        self,
        chunks: list[np.ndarray],
        evaluate_on: np.ndarray | None = None,
    ) -> EcvqPartialMergeReport:
        """Cluster pre-partitioned chunks with ECVQ partial steps."""
        if not chunks:
            raise ValueError("fit_chunks requires at least one chunk")
        start = time.perf_counter()
        partials = [
            ecvq(
                as_points(chunk),
                max_k=self.max_k,
                lam=self.lam,
                rng=partition_rng(self.seed, PartialMergeKMeans.CELL_ID, index),
                max_iter=self.max_iter,
            )
            for index, chunk in enumerate(chunks)
        ]
        merged = merge_kmeans(
            [p.summary for p in partials],
            self.k,
            criterion=self.criterion,
            max_iter=self.max_iter,
        )
        total = time.perf_counter() - start

        if evaluate_on is not None:
            final_mse = evaluate_mse(evaluate_on, merged.model.centroids)
        else:
            final_mse = merged.mse
        model = ClusterModel(
            centroids=merged.model.centroids,
            weights=merged.model.weights,
            mse=final_mse,
            method="ecvq-partial/merge",
            partitions=len(chunks),
            merge_seconds=merged.seconds,
            total_seconds=total,
            extra={
                "lam": self.lam,
                "max_k": self.max_k,
                "effective_ks": [p.effective_k for p in partials],
            },
        )
        return EcvqPartialMergeReport(
            model=model,
            partials=partials,
            merge=merged,
            effective_ks=[p.effective_k for p in partials],
        )
