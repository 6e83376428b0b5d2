"""The cell task: one seeded path from a cell's points to its model.

Every driver — :class:`~repro.core.pipeline.PartialMergeKMeans`, the
stream operators (threads and processes), the shard workers and the
serving registry — runs a cell through the same three steps:

1. **split** the cell's points into ``p`` random, equal-sized partitions
   (:func:`split_cell`);
2. **summarise** each partition into weighted centroids
   (:func:`summarise_partition`, the paper's partial k-means);
3. **merge** the cell's summaries into its model (:func:`merge_cell`,
   the paper's collective merge).

RNG contract
------------

Randomness is a pure function of ``(seed, cell_id, slot)``: a
:class:`numpy.random.SeedSequence` with entropy ``seed`` and spawn key
``(digest[:4], digest[4:], slot)``, where ``digest`` is the 8-byte
blake2b hash of the cell id.  The split uses slot :data:`SPLIT_SLOT`
(:func:`split_rng`); partition ``j``'s restarts use slot ``j``
(:func:`partition_rng`).  Nothing depends on which thread, process or
shard runs a step, or in which order cells are scanned, so the same seed
gives bit-identical models on every backend and after every journal
replay.  The derivation is the one journals were written with, so
journaled partition summaries stay valid.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass

import numpy as np

from repro.core.merge import MergeResult, merge_kmeans
from repro.core.model import ClusterModel, WeightedCentroidSet, as_points
from repro.core.partial import PartialResult, partial_kmeans
from repro.core.quality import mse as evaluate_mse
from repro.core.spec import ClusterSpec

__all__ = [
    "SPLIT_SLOT",
    "CentroidMessage",
    "resolve_seed",
    "cell_rng",
    "split_rng",
    "partition_rng",
    "cell_points",
    "split_into_chunks",
    "split_cell",
    "run_partial",
    "summarise_partition",
    "merge_summaries",
    "merge_cell",
]

#: Spawn-key slot of a cell's split RNG.  Partition RNGs use the
#: partition index in the same slot; real partition counts never reach
#: 2**32 - 1, so the streams cannot collide.
SPLIT_SLOT = 2**32 - 1


@dataclass(frozen=True)
class CentroidMessage:
    """Weighted centroids of one partition, sent to the merge step.

    ``kernel_counters`` carries the partial step's kernel instrumentation
    as a plain JSON-safe dict (see
    :meth:`repro.core.kernels.KernelCounters.as_dict`) so it survives
    pickling to process-backend workers and journal replay; ``None`` when
    the producing run recorded none (e.g. a partition replayed from a
    journal written before the field existed).
    """

    cell_id: str
    partition: int
    summary: WeightedCentroidSet
    n_partitions: int = 0
    partial_seconds: float = 0.0
    partial_iterations: int = 0
    kernel_counters: dict | None = None


def resolve_seed(seed: int | None) -> int:
    """``seed``, or fresh entropy drawn once when it is ``None``.

    A driver resolves its seed once, so every partition of a run derives
    from the same value even when the caller asked for randomness.
    """
    return int(np.random.SeedSequence(seed).entropy)


def cell_rng(seed: int, cell_id: str, slot: int) -> np.random.Generator:
    """The RNG of ``slot`` in cell ``cell_id`` (see the module docstring)."""
    digest = hashlib.blake2b(cell_id.encode("utf-8"), digest_size=8).digest()
    sequence = np.random.SeedSequence(
        entropy=seed,
        spawn_key=(
            int.from_bytes(digest[:4], "little"),
            int.from_bytes(digest[4:], "little"),
            slot,
        ),
    )
    return np.random.default_rng(sequence)


def split_rng(seed: int, cell_id: str) -> np.random.Generator:
    """The RNG that splits cell ``cell_id`` into partitions."""
    return cell_rng(seed, cell_id, SPLIT_SLOT)


def partition_rng(seed: int, cell_id: str, partition: int) -> np.random.Generator:
    """The RNG of partition ``partition``'s restarts in cell ``cell_id``."""
    return cell_rng(seed, cell_id, partition)


def cell_points(points: np.ndarray) -> np.ndarray:
    """A cell's points as ``(n, d)`` float64, allowing the zero-point cell."""
    arr = np.asarray(points, dtype=np.float64)
    if arr.size == 0:
        dim = arr.shape[1] if arr.ndim == 2 else 1
        return np.zeros((0, max(1, dim)), dtype=np.float64)
    return as_points(arr)


def split_into_chunks(
    points: np.ndarray, n_chunks: int, rng: np.random.Generator
) -> list[np.ndarray]:
    """Randomly distribute points over ``n_chunks`` equal-sized chunks.

    This reproduces the paper's experiment setup: "the data points of a
    complete cell were randomly distributed over 5 or 10 'chunks'".  Chunk
    sizes differ by at most one point.
    """
    pts = as_points(points)
    if n_chunks < 1:
        raise ValueError(f"n_chunks must be >= 1, got {n_chunks}")
    if n_chunks > pts.shape[0]:
        raise ValueError(
            f"cannot split {pts.shape[0]} points into {n_chunks} chunks"
        )
    perm = rng.permutation(pts.shape[0])
    return [pts[idx] for idx in np.array_split(perm, n_chunks)]


def split_cell(
    points: np.ndarray, n_chunks: int, seed: int, cell_id: str
) -> list[np.ndarray]:
    """Step 1: split a cell into ``min(n_chunks, n)`` random partitions."""
    pts = as_points(points)
    return split_into_chunks(
        pts, min(n_chunks, pts.shape[0]), split_rng(seed, cell_id)
    )


def run_partial(
    spec: ClusterSpec,
    seed: int,
    cell_id: str,
    partition: int,
    points: np.ndarray,
    early_abandon: bool = False,
) -> PartialResult:
    """Partial k-means of one partition under the RNG contract."""
    return partial_kmeans(
        points,
        spec.k,
        spec.restarts,
        partition_rng(seed, cell_id, partition),
        source=f"{cell_id}/P{partition}",
        seeding=spec.seeding,
        criterion=spec.criterion,
        max_iter=spec.max_iter,
        kernel=spec.new_kernel,
        early_abandon=early_abandon,
    )


def summarise_partition(
    spec: ClusterSpec,
    seed: int,
    cell_id: str,
    partition: int,
    points: np.ndarray,
    n_partitions: int = 0,
) -> CentroidMessage:
    """Step 2: summarise one partition as a :class:`CentroidMessage`."""
    result = run_partial(spec, seed, cell_id, partition, points)
    return CentroidMessage(
        cell_id=cell_id,
        partition=partition,
        summary=result.summary,
        n_partitions=n_partitions,
        partial_seconds=result.seconds,
        partial_iterations=result.iterations,
        kernel_counters=result.counters.as_dict() if result.counters else None,
    )


def merge_summaries(
    spec: ClusterSpec,
    summaries: list[WeightedCentroidSet],
    k: int | None = None,
) -> MergeResult:
    """Collective merge of ``summaries`` with the spec's merge settings.

    ``k`` overrides ``spec.merge_k`` (folding into a model that has its
    own ``k``).
    """
    return merge_kmeans(
        summaries,
        k if k is not None else spec.merge_k,
        criterion=spec.merge_criterion,
        max_iter=spec.merge_max_iter,
        kernel=spec.new_kernel,
    )


def merge_cell(
    spec: ClusterSpec,
    messages: list[CentroidMessage],
    expected: int = 0,
    method: str = "partial/merge[stream]",
    evaluate_on: np.ndarray | None = None,
) -> tuple[ClusterModel, MergeResult]:
    """Step 3: merge one cell's partition summaries into its model.

    Every model's ``extra`` carries ``merge_iterations`` (int) and
    ``partial_iterations`` (list of int, in partition order).  When
    ``expected`` partitions were due but fewer arrived (a ``degrade``
    drop upstream), it also carries ``incomplete`` (True),
    ``expected_partitions`` (int) and ``missing_partitions`` (sorted
    list of int).  All values are JSON-safe, so the shape survives a
    journal round-trip.

    Args:
        spec: the run's configuration (merge settings).
        messages: the cell's summaries, in any order.
        expected: partitions the cell was split into (0 if unknown).
        method: recorded as the model's ``method``.
        evaluate_on: raw points; when given the model's MSE is measured
            on them, otherwise the weighted merge MSE is reported.

    Returns:
        ``(model, merge_result)``; the merge result carries the merge
        step's kernel counters.
    """
    ordered = sorted(messages, key=lambda m: m.partition)
    start = time.perf_counter()
    merged = merge_summaries(spec, [m.summary for m in ordered])
    total = time.perf_counter() - start
    final_mse = (
        evaluate_mse(evaluate_on, merged.model.centroids)
        if evaluate_on is not None
        else merged.mse
    )
    partial_seconds = sum(m.partial_seconds for m in ordered)
    extra: dict = {
        "merge_iterations": merged.iterations,
        "partial_iterations": [m.partial_iterations for m in ordered],
    }
    if expected and len(ordered) != expected:
        present = {m.partition for m in ordered}
        extra["incomplete"] = True
        extra["expected_partitions"] = int(expected)
        extra["missing_partitions"] = sorted(
            int(p) for p in set(range(expected)) - present
        )
    model = ClusterModel(
        centroids=merged.model.centroids,
        weights=merged.model.weights,
        mse=final_mse,
        method=method,
        partitions=len(ordered),
        partial_seconds=partial_seconds,
        merge_seconds=merged.seconds,
        total_seconds=partial_seconds + total,
        extra=extra,
    )
    return model, merged
