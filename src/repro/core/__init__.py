"""Core contribution: the partial/merge k-means algorithm.

Public surface:

* :class:`~repro.core.pipeline.PartialMergeKMeans` — the high-level API.
* :class:`~repro.core.spec.ClusterSpec` and :mod:`~repro.core.cell` —
  the one configuration and the one seeded cell task (split, summarise,
  merge) that every backend and the serving layer run.
* :func:`~repro.core.kmeans.lloyd` — the shared weighted Lloyd kernel.
* :func:`~repro.core.partial.partial_kmeans` / \
  :func:`~repro.core.merge.merge_kmeans` — the two stream-operator kernels.
* :mod:`~repro.core.seeding`, :mod:`~repro.core.convergence`,
  :mod:`~repro.core.quality` — the supporting policies and metrics.
* :func:`~repro.core.ecvq.ecvq` — the paper's future-work extension for
  adaptive per-partition ``k``.
"""

from repro.core.adaptive_k import EcvqPartialMergeKMeans, EcvqPartialMergeReport
from repro.core.cell import merge_cell, split_cell, summarise_partition
from repro.core.checks import (
    ModelValidationError,
    ValidationReport,
    validate_model,
)
from repro.core.convergence import (
    PAPER_MSE_DELTA,
    CentroidShiftCriterion,
    MseDeltaCriterion,
    RelativeMseCriterion,
)
from repro.core.ecvq import EcvqResult, ecvq
from repro.core.incremental import IncrementalClusterer, update_model
from repro.core.model_selection import (
    distortion_curve,
    suggest_k_elbow,
    suggest_k_rate,
)
from repro.core.kmeans import DEFAULT_MAX_ITER, lloyd
from repro.core.merge import MergeResult, incremental_merge_kmeans, merge_kmeans
from repro.core.model import ClusterModel, KMeansResult, WeightedCentroidSet
from repro.core.partial import PartialResult, partial_kmeans
from repro.core.pipeline import (
    PartialMergeKMeans,
    PartialMergeReport,
    split_into_chunks,
)
from repro.core.quality import mse, sse
from repro.core.restarts import RestartReport, best_of_restarts
from repro.core.spec import ClusterSpec

__all__ = [
    "ClusterSpec",
    "split_cell",
    "summarise_partition",
    "merge_cell",
    "PAPER_MSE_DELTA",
    "ModelValidationError",
    "ValidationReport",
    "validate_model",
    "DEFAULT_MAX_ITER",
    "CentroidShiftCriterion",
    "MseDeltaCriterion",
    "RelativeMseCriterion",
    "ClusterModel",
    "KMeansResult",
    "WeightedCentroidSet",
    "EcvqResult",
    "ecvq",
    "EcvqPartialMergeKMeans",
    "EcvqPartialMergeReport",
    "IncrementalClusterer",
    "update_model",
    "distortion_curve",
    "suggest_k_elbow",
    "suggest_k_rate",
    "lloyd",
    "MergeResult",
    "merge_kmeans",
    "incremental_merge_kmeans",
    "PartialResult",
    "partial_kmeans",
    "PartialMergeKMeans",
    "PartialMergeReport",
    "split_into_chunks",
    "RestartReport",
    "best_of_restarts",
    "mse",
    "sse",
]

