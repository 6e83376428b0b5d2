"""One clustering configuration shared by every partial/merge driver.

:class:`ClusterSpec` is the frozen, picklable value that every driver —
the in-process pipeline, the stream operators, the process workers, the
shard workers and the serving registry — carries whole.  It is validated
once at construction, so a bad seeding name or a ``blas`` kernel without
the ``exact=False`` waiver fails where the run is configured, not inside
a worker.  The seed is deliberately not part of it: the seed keys the
RNG contract of :mod:`repro.core.cell`, the spec says what to compute.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.convergence import ConvergenceCriterion
from repro.core.kernels import LloydKernel, resolve_kernel
from repro.core.kmeans import DEFAULT_MAX_ITER
from repro.core.seeding import resolve_strategy

__all__ = ["ClusterSpec"]


@dataclass(frozen=True)
class ClusterSpec:
    """What one cell's partial/merge clustering computes.

    Attributes:
        k: centroids per partition (the partial step's ``k``).
        restarts: seed-set restarts per partition (the paper's ``R``).
        seeding: restart seed strategy (``"random"`` in the paper; see
            :func:`repro.core.seeding.resolve_strategy`).
        criterion: partial-step convergence criterion (the paper's 1e-9
            MSE delta when ``None``).
        max_iter: partial-step Lloyd iteration cap.
        merge_k: centroids in the cell model; ``None`` means ``k``.
        merge_criterion: merge-step criterion; ``None`` means
            ``criterion``.
        merge_max_iter: merge-step Lloyd cap; ``None`` means
            ``max_iter``.
        kernel: Lloyd assignment kernel name for every stage; ``None``
            consults ``REPRO_KMEANS_KERNEL``, then ``"dense"``.  Exact
            kernels are bit-identical, so this is a performance knob.
        exact: ``False`` admits the tolerance-close ``blas`` tier;
            ``None`` consults ``REPRO_KMEANS_EXACT`` (exact by default).
    """

    k: int
    restarts: int = 10
    seeding: str = "random"
    criterion: ConvergenceCriterion | None = None
    max_iter: int = DEFAULT_MAX_ITER
    merge_k: int | None = None
    merge_criterion: ConvergenceCriterion | None = None
    merge_max_iter: int | None = None
    kernel: str | None = None
    exact: bool | None = None

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        resolve_strategy(self.seeding)
        resolve_kernel(self.kernel, exact=self.exact)
        if self.merge_k is None:
            object.__setattr__(self, "merge_k", self.k)
        if self.merge_criterion is None:
            object.__setattr__(self, "merge_criterion", self.criterion)
        if self.merge_max_iter is None:
            object.__setattr__(self, "merge_max_iter", self.max_iter)
        if self.merge_k < 1:
            raise ValueError(f"merge_k must be >= 1, got {self.merge_k}")
        if self.merge_max_iter < 1:
            raise ValueError(
                f"merge_max_iter must be >= 1, got {self.merge_max_iter}"
            )

    @classmethod
    def of(cls, spec: "ClusterSpec | None" = None, **fields: Any) -> "ClusterSpec":
        """``spec`` itself, or a new spec built from ``fields``.

        Drivers take either a ready spec or its fields as keywords
        (``MergeKMeansSink(k=4)``); giving both is ambiguous and raises.
        """
        if spec is None:
            return cls(**fields)
        if fields:
            raise TypeError(
                f"pass a ClusterSpec or its fields, not both: {sorted(fields)}"
            )
        return spec

    def new_kernel(self) -> LloydKernel:
        """A fresh kernel instance for one Lloyd run.

        The steps pass this bound method as ``kernel=``: kernel instances
        hold per-run state, so every run resolves its own.
        """
        return resolve_kernel(self.kernel, exact=self.exact)
