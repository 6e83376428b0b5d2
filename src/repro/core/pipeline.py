"""High-level partial/merge k-means API.

:class:`PartialMergeKMeans` is the library's front door: it takes a grid
cell's points (as an array or as an already-partitioned stream of chunks),
runs partial k-means over every chunk — serially or on a thread pool, which
models the paper's cloned operators — and merges the weighted centroids
into the final cell model.

For the full stream-engine execution (bounded queues, planner-driven
cloning), see :mod:`repro.stream.kmeans_ops`, which wires the same partial
and merge kernels into dataflow operators.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.core.cell import (
    cell_rng,
    resolve_seed,
    run_partial,
    split_cell,
    split_into_chunks,
)
from repro.core.convergence import ConvergenceCriterion
from repro.core.kmeans import DEFAULT_MAX_ITER
from repro.core.merge import MergeResult, incremental_merge_kmeans, merge_kmeans
from repro.core.model import ClusterModel, as_points
from repro.core.partial import PartialResult
from repro.core.quality import mse as evaluate_mse
from repro.core.spec import ClusterSpec

__all__ = ["PartialMergeKMeans", "PartialMergeReport", "split_into_chunks"]

#: Spawn-key slot of the extra random merge restarts' RNG (next to the
#: split slot of :mod:`repro.core.cell`).
_MERGE_RESTARTS_SLOT = 2**32 - 2


@dataclass(frozen=True)
class PartialMergeReport:
    """Full diagnostics of one partial/merge run.

    Attributes:
        model: the final :class:`ClusterModel` for the cell.
        partials: per-partition results, in completion order.
        merge: the merge-step result.
    """

    model: ClusterModel
    partials: list[PartialResult]
    merge: MergeResult


class PartialMergeKMeans:
    """Partial/merge k-means for one grid cell.

    A fit runs the cell task of :mod:`repro.core.cell` on the cell named
    :attr:`CELL_ID`, so ``PartialMergeKMeans(seed=S).fit(points)`` gives
    bit-identically the model that every stream backend computes for a
    cell of that name with the same seed, spec and partition count.

    Args:
        k: number of centroids in the final model (and per partition).
        restarts: random-seed restarts per partition (the paper's ``R``).
        n_chunks: number of partitions when :meth:`fit` receives a flat
            array; ignored by :meth:`fit_chunks`.
        max_workers: partial-operator clones; ``1`` runs partials serially
            on one "machine" as in the paper's single-host measurements,
            larger values model cloned operators on several machines.
        merge_mode: ``"collective"`` (paper) or ``"incremental"``
            (the rejected alternative, kept for ablations).
        merge_restarts: extra randomly-seeded merge runs beyond the
            paper's deterministic largest-weight seeding; the best run
            wins.  0 (default) reproduces the paper; 2-3 repairs the
            merge collapses seen with many highly-overlapping chunks.
        seeding: restart seed strategy for partial steps.
        criterion: convergence criterion (paper's 1e-9 MSE delta when
            ``None``).
        max_iter: per-run Lloyd iteration cap.
        kernel: Lloyd assignment backend (``"dense"``/``"hamerly"``/
            ``"elkan"``/``"blas"``) used by partial and merge steps
            alike; ``None`` consults ``REPRO_KMEANS_KERNEL``.  Exact
            backends are bit-identical — a performance knob only.
        exact: ``False`` opts into the tolerance-close ``blas`` tier
            (forwarded to :func:`~repro.core.kernels.resolve_kernel`).
        early_abandon: terminate restarts whose projected SSE cannot beat
            the incumbent best (heuristic; default off).
        seed: seed of the cell task's RNG contract; every fit with the
            same seed and input gives the same bits.

    Example:
        >>> import numpy as np
        >>> from repro.core.pipeline import PartialMergeKMeans
        >>> rng = np.random.default_rng(0)
        >>> data = rng.normal(size=(1000, 6))
        >>> algo = PartialMergeKMeans(k=8, restarts=3, n_chunks=5, seed=0)
        >>> model = algo.fit(data).model
        >>> model.k
        8
    """

    #: The cell id a fit runs under (it keys the RNG contract).
    CELL_ID = "cell"

    def __init__(
        self,
        k: int,
        restarts: int = 10,
        n_chunks: int = 5,
        max_workers: int = 1,
        merge_mode: str = "collective",
        merge_restarts: int = 0,
        seeding: str = "random",
        criterion: ConvergenceCriterion | None = None,
        max_iter: int = DEFAULT_MAX_ITER,
        kernel: str | None = None,
        exact: bool | None = None,
        early_abandon: bool = False,
        seed: int | None = None,
    ) -> None:
        if n_chunks < 1:
            raise ValueError(f"n_chunks must be >= 1, got {n_chunks}")
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        if merge_mode not in ("collective", "incremental"):
            raise ValueError(
                f"merge_mode must be 'collective' or 'incremental', got {merge_mode!r}"
            )
        if merge_restarts < 0:
            raise ValueError(f"merge_restarts must be >= 0, got {merge_restarts}")
        self.spec = ClusterSpec(
            k=k,
            restarts=restarts,
            seeding=seeding,
            criterion=criterion,
            max_iter=max_iter,
            kernel=kernel,
            exact=exact,
        )
        self.n_chunks = n_chunks
        self.max_workers = max_workers
        self.merge_mode = merge_mode
        self.merge_restarts = merge_restarts
        self.early_abandon = early_abandon
        self.seed = resolve_seed(seed)

    def fit(self, points: np.ndarray) -> PartialMergeReport:
        """Split ``points`` into ``n_chunks`` random chunks and cluster.

        The random split reproduces the paper's experimental setup; use
        :meth:`fit_chunks` to supply a custom partitioning (e.g. the
        spatial or salami strategies in :mod:`repro.data.partitioning`).
        """
        pts = as_points(points)
        chunks = split_cell(pts, self.n_chunks, self.seed, self.CELL_ID)
        return self.fit_chunks(chunks, evaluate_on=pts)

    def fit_chunks(
        self,
        chunks: Sequence[np.ndarray] | Iterable[np.ndarray],
        evaluate_on: np.ndarray | None = None,
    ) -> PartialMergeReport:
        """Cluster pre-partitioned chunks.

        Args:
            chunks: the data partitions; each must fit in memory (by
                construction of the caller's partitioner).
            evaluate_on: if given, the final model's MSE is computed
                against these raw points (the harness's fair comparison);
                otherwise the weighted merge MSE is reported.

        Returns:
            A :class:`PartialMergeReport`.
        """
        chunk_list = [as_points(c) for c in chunks]
        if not chunk_list:
            raise ValueError("fit_chunks requires at least one chunk")

        start = time.perf_counter()
        partials = self._run_partials(chunk_list)
        merge = self._run_merge(partials)
        total = time.perf_counter() - start

        if evaluate_on is not None:
            final_mse = evaluate_mse(evaluate_on, merge.model.centroids)
        else:
            final_mse = merge.mse

        model = ClusterModel(
            centroids=merge.model.centroids,
            weights=merge.model.weights,
            mse=final_mse,
            method=f"partial/merge[{self.merge_mode}]",
            partitions=len(chunk_list),
            restarts=self.spec.restarts,
            partial_seconds=sum(p.seconds for p in partials),
            merge_seconds=merge.seconds,
            total_seconds=total,
            extra={
                "partial_iterations": [p.iterations for p in partials],
                "merge_iterations": merge.iterations,
                "partial_mses": [p.mse for p in partials],
                "max_workers": self.max_workers,
            },
        )
        return PartialMergeReport(model=model, partials=partials, merge=merge)

    def _run_partials(self, chunks: list[np.ndarray]) -> list[PartialResult]:
        """Run the partial operator on every chunk (serially or cloned)."""

        def run(index: int) -> PartialResult:
            return run_partial(
                self.spec,
                self.seed,
                self.CELL_ID,
                index,
                chunks[index],
                early_abandon=self.early_abandon,
            )

        if self.max_workers == 1 or len(chunks) == 1:
            return [run(index) for index in range(len(chunks))]
        with ThreadPoolExecutor(max_workers=self.max_workers) as pool:
            return list(pool.map(run, range(len(chunks))))

    def _run_merge(self, partials: list[PartialResult]) -> MergeResult:
        """Merge partial summaries per the configured discipline."""
        summaries = [p.summary for p in partials]
        spec = self.spec
        if self.merge_mode == "incremental":
            return incremental_merge_kmeans(
                summaries,
                spec.merge_k,
                criterion=spec.merge_criterion,
                max_iter=spec.merge_max_iter,
                kernel=spec.new_kernel,
            )
        return merge_kmeans(
            summaries,
            spec.merge_k,
            criterion=spec.merge_criterion,
            max_iter=spec.merge_max_iter,
            extra_random_restarts=self.merge_restarts,
            rng=cell_rng(self.seed, self.CELL_ID, _MERGE_RESTARTS_SLOT),
            kernel=spec.new_kernel,
        )
