"""Partial/merge k-means as stream operators.

This module wires the :mod:`repro.core` kernels into the stream engine the
way the paper's prototype wired them into Conquest:

* :class:`GridCellChunkSource` — the scan operator; emits each grid cell's
  points as randomly assigned, memory-sized :class:`DataChunk` items.
* :class:`PartialKMeansOperator` — cloneable transform; clusters one chunk
  into a :class:`CentroidMessage` of weighted centroids.
* :class:`MergeKMeansSink` — the consumer; pools each cell's weighted
  centroids and runs the collective merge k-means, finalising a cell as
  soon as its last partition arrives.

:func:`run_partial_merge_stream` assembles the graph, plans it against a
resource envelope (which decides partial clone counts) and executes it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Mapping

import numpy as np

from repro.core.cell import (
    cell_points,
    merge_cell,
    resolve_seed,
    split_cell,
    summarise_partition,
)
from repro.core.convergence import ConvergenceCriterion
from repro.core.kernels import merge_counter_dicts
from repro.core.kmeans import DEFAULT_MAX_ITER
from repro.core.model import ClusterModel
from repro.core.spec import ClusterSpec
from repro.stream.executor import ExecutionResult, Executor
from repro.stream.faults import FaultPlan
from repro.stream.graph import DataflowGraph
from repro.stream.items import CentroidMessage, DataChunk, Watermark
from repro.stream.mp import SHARDS, resolve_backend
from repro.stream.operators import Sink, Source, Transform
from repro.stream.planner import Planner
from repro.stream.scheduler import ResourceManager
from repro.stream.supervision import RetryPolicy, SupervisionPolicy, Supervisor

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (checkpoint uses items)
    from repro.stream.checkpoint import JournalWriter

__all__ = [
    "GridCellChunkSource",
    "PartialKMeansOperator",
    "PartialKMeansSpec",
    "MergeKMeansSink",
    "build_partial_merge_graph",
    "run_partial_merge_stream",
]


class GridCellChunkSource(Source):
    """Scan operator: streams grid cells as random equal-sized chunks.

    Models the paper's scan step: all points of a cell "arrive
    sequentially, and in random order"; the source slices them into the
    number of partitions dictated by the memory budget (or an explicit
    ``n_chunks``).

    Args:
        cells: mapping from cell id to its ``(n, d)`` point array.
        n_chunks: fixed partition count per cell; ``None`` derives it from
            ``resources`` (the adaptive behaviour the paper argues for).
        resources: memory envelope used when ``n_chunks`` is ``None``.
        seed: seed of the split; each cell is split with
            :func:`~repro.core.cell.split_rng`, so a cell's chunks do not
            depend on the other cells or on scan order.
        name: operator name.
    """

    def __init__(
        self,
        cells: Mapping[str, np.ndarray],
        n_chunks: int | None = None,
        resources: ResourceManager | None = None,
        seed: int | None = None,
        name: str = "scan",
    ) -> None:
        super().__init__(name)
        if not cells:
            raise ValueError("cells mapping must not be empty")
        if n_chunks is None and resources is None:
            raise ValueError("provide either n_chunks or resources")
        self._cells = {
            cell: cell_points(points) for cell, points in cells.items()
        }
        self._n_chunks = n_chunks
        self._resources = resources
        self._seed = resolve_seed(seed)

    def generate(self) -> Iterator[DataChunk | Watermark]:
        for cell_id, points in self._cells.items():
            if points.shape[0] == 0:
                # A cell with no points produces no chunks, but it must
                # still appear in the results: announce it with a
                # zero-partition watermark so the merge sink records an
                # empty model instead of the cell silently vanishing.
                yield Watermark(
                    cell_id,
                    n_partitions=0,
                    payload={"dim": int(points.shape[1]), "n_points": 0},
                )
                continue
            if self._n_chunks is not None:
                chunks_wanted = self._n_chunks
            else:
                assert self._resources is not None
                chunks_wanted = self._resources.partitions_for(
                    points.shape[0], points.shape[1]
                )
            chunks = split_cell(points, chunks_wanted, self._seed, cell_id)
            for index, chunk in enumerate(chunks):
                yield DataChunk(
                    cell_id=cell_id,
                    partition=index,
                    points=chunk,
                    n_partitions=len(chunks),
                )


class PartialKMeansOperator(Transform):
    """Cloneable transform running partial k-means on each chunk.

    Each chunk is summarised by :func:`~repro.core.cell.summarise_partition`
    under the ``(seed, cell, partition)`` RNG contract — never from
    processing order — so a partition's weighted centroids depend only on
    the seed and the chunk's points.  That makes parallel plans
    reproducible for a fixed seed *regardless of clone count, backend or
    scheduling*, and it is what lets a journal resume
    (:mod:`repro.stream.checkpoint`) skip completed partitions and still
    produce a bit-identical final model.

    Args:
        spec: the run's :class:`~repro.core.spec.ClusterSpec`; or give
            its fields as keywords (``PartialKMeansOperator(k=5)``).
        seed: base seed of the RNG contract (fresh entropy when ``None``,
            drawn once and shared by every clone).
        name: operator name.
    """

    def __init__(
        self,
        spec: ClusterSpec | None = None,
        seed: int | None = None,
        name: str = "partial",
        **fields: Any,
    ) -> None:
        super().__init__(name)
        self.spec = ClusterSpec.of(spec, **fields)
        self.seed = resolve_seed(seed)

    def clone(self) -> "PartialKMeansOperator":
        return PartialKMeansOperator(self.spec, seed=self.seed, name=self.name)

    def process(
        self, item: DataChunk | Watermark
    ) -> Iterator[CentroidMessage | Watermark]:
        if isinstance(item, Watermark):
            # Control messages pass through untouched; the merge sink
            # correlates them with the per-cell message count, so clone
            # reordering cannot finalise a cell early.
            yield item
            return
        yield summarise_partition(
            self.spec,
            self.seed,
            item.cell_id,
            item.partition,
            item.points,
            n_partitions=item.n_partitions,
        )

    def to_spec(self) -> "PartialKMeansSpec":
        """Picklable recipe for the process backend (rebuilds this clone)."""
        return PartialKMeansSpec(spec=self.spec, seed=self.seed, name=self.name)


@dataclass(frozen=True)
class PartialKMeansSpec:
    """Picklable recipe rebuilding a :class:`PartialKMeansOperator`.

    The process backend ships this recipe to the worker instead of the
    operator itself.  The cluster spec and seed are all a clone needs, so
    a worker-built clone computes the same bits as the in-process
    original — which is why thread- and process-backend runs of the same
    plan are bit-identical.
    """

    spec: ClusterSpec
    seed: int
    name: str

    def build(self) -> PartialKMeansOperator:
        return PartialKMeansOperator(self.spec, seed=self.seed, name=self.name)


class MergeKMeansSink(Sink):
    """Terminal consumer: collective merge k-means per grid cell.

    A cell is finalised eagerly once all of its partitions have arrived
    (count known from the messages); any cells still pending at end of
    stream are finalised in :meth:`result`.

    Cells are merged by :func:`~repro.core.cell.merge_cell`, whose
    ``extra`` contract (``merge_iterations``, ``partial_iterations`` and,
    for a cell finalised with partitions missing, ``incomplete``/
    ``expected_partitions``/``missing_partitions``) every final model
    carries; a declared empty cell carries ``empty_cell`` (True) instead.
    Subclasses (:class:`~repro.stream.coreset.CoresetTreeSink`) share
    this contract.

    Args:
        spec: the run's :class:`~repro.core.spec.ClusterSpec` (its merge
            settings apply); or give its fields as keywords
            (``MergeKMeansSink(k=4)``).
        evaluate_on: optional mapping of cell id to raw points; when given,
            each final model's MSE is recomputed against the raw data so
            results are directly comparable with the serial baseline.
        journal: optional run journal
            (:class:`~repro.stream.checkpoint.JournalWriter`); every
            streamed partition summary is journaled on arrival and every
            finalised cell model on completion, which is what makes a
            killed run resumable.
    """

    def __init__(
        self,
        spec: ClusterSpec | None = None,
        evaluate_on: Mapping[str, np.ndarray] | None = None,
        journal: "JournalWriter | None" = None,
        name: str = "merge",
        **fields: Any,
    ) -> None:
        super().__init__(name)
        self.spec = ClusterSpec.of(spec, **fields)
        self._evaluate_on = dict(evaluate_on or {})
        self._journal = journal
        self._pending: dict[str, list[CentroidMessage]] = {}
        self._expected: dict[str, int] = {}
        self._models: dict[str, ClusterModel] = {}
        #: Cells finalised with partitions missing (a ``degrade`` drop
        #: upstream), in finalisation order; the executor copies this
        #: into the sink's :class:`~repro.stream.metrics.OperatorMetrics`.
        self.incomplete_cells: list[str] = []
        #: Kernel instrumentation aggregated across the run, keyed by
        #: pipeline stage (``"partial"`` counters arrive on the centroid
        #: messages — surviving the process backend for free — and
        #: ``"merge"`` counters come from the sink's own merge runs).
        #: The executor copies this into the sink's ``OperatorMetrics``.
        self.kernel_counters: dict[str, dict] = {}

    def preload(self, messages: Iterable[CentroidMessage]) -> None:
        """Replay journaled partition summaries without re-journaling them.

        Used on resume: completed partitions flow straight into the merge
        state, and cells whose last partition was already journaled are
        finalised immediately.
        """
        for message in messages:
            bucket = self._pending.setdefault(message.cell_id, [])
            bucket.append(message)
            if message.n_partitions:
                self._expected[message.cell_id] = message.n_partitions
        for cell_id in list(self._pending):
            self._maybe_finalize(cell_id)

    def preload_model(self, cell_id: str, model: ClusterModel) -> None:
        """Adopt an already-finalised cell model from the journal."""
        self._models[cell_id] = model

    def consume(self, item: CentroidMessage | Watermark) -> None:
        if isinstance(item, Watermark):
            # A source that could not pre-count partitions announces the
            # final count here.  Finalisation still waits for every
            # partition's message, so watermarks overtaking in-flight
            # chunks (possible with cloned partial operators) are safe.
            self._expected[item.cell_id] = item.n_partitions
            if item.n_partitions == 0:
                # A declared-empty cell: no chunks will ever arrive, so
                # record an explicit empty model for it now.
                model = ClusterModel.empty(
                    int(item.payload.get("dim", 1)),
                    method="partial/merge[stream]",
                    extra={"empty_cell": True},
                )
                self._models[item.cell_id] = model
                if self._journal is not None:
                    self._journal.append_cell(item.cell_id, model)
                return
            self._maybe_finalize(item.cell_id)
            return
        if self._journal is not None:
            self._journal.append_partition(item)
        bucket = self._pending.setdefault(item.cell_id, [])
        bucket.append(item)
        if item.n_partitions:
            self._expected[item.cell_id] = item.n_partitions
        self._maybe_finalize(item.cell_id)

    def _maybe_finalize(self, cell_id: str) -> None:
        expected = self._expected.get(cell_id)
        bucket = self._pending.get(cell_id)
        if expected and bucket and len(bucket) == expected:
            self._finalize(cell_id)

    def result(self) -> dict[str, ClusterModel]:
        for cell_id in list(self._pending):
            self._finalize(cell_id)
        return dict(self._models)

    def _finalize(self, cell_id: str) -> None:
        messages = self._pending.pop(cell_id, [])
        if not messages:
            return
        model, merged = merge_cell(
            self.spec,
            messages,
            expected=self._expected.get(cell_id, 0),
            evaluate_on=self._evaluate_on.get(cell_id),
        )
        for message in messages:
            if message.kernel_counters:
                merge_counter_dicts(
                    self.kernel_counters.setdefault("partial", {}),
                    message.kernel_counters,
                )
        if merged.counters is not None and merged.counters.assign_calls:
            merge_counter_dicts(
                self.kernel_counters.setdefault("merge", {}),
                merged.counters.as_dict(),
            )
        if model.extra.get("incomplete"):
            # Partitions were dropped upstream (degrade policy): the model
            # is still usable, but the loss must be visible in the
            # execution metrics too.
            self.incomplete_cells.append(cell_id)
        self._models[cell_id] = model
        if self._journal is not None:
            self._journal.append_cell(cell_id, model)


def build_partial_merge_graph(
    cells: Mapping[str, np.ndarray],
    spec: ClusterSpec | None = None,
    n_chunks: int | None = None,
    resources: ResourceManager | None = None,
    seed: int | None = None,
    evaluate_against_raw: bool = True,
    **fields: Any,
) -> DataflowGraph:
    """Assemble the scan → partial → merge dataflow for ``cells``.

    ``spec`` is the run's :class:`~repro.core.spec.ClusterSpec`; its
    fields may be given as keywords instead (``k=4, restarts=2``).
    """
    spec = ClusterSpec.of(spec, **fields)
    seed = resolve_seed(seed)
    graph = DataflowGraph()
    source = GridCellChunkSource(
        cells, n_chunks=n_chunks, resources=resources, seed=seed
    )
    partial = PartialKMeansOperator(spec, seed=seed)
    merge = MergeKMeansSink(
        spec, evaluate_on=cells if evaluate_against_raw else None
    )
    graph.add(source, cost_hint=1.0)
    # The paper: partial k-means "is by far the most expensive computation".
    graph.add(partial, cost_hint=16.0)
    graph.add(merge, cost_hint=1.0)
    graph.connect("scan", "partial")
    graph.connect("partial", "merge")
    return graph


def run_partial_merge_stream(
    cells: Mapping[str, np.ndarray],
    k: int,
    restarts: int = 10,
    n_chunks: int | None = None,
    resources: ResourceManager | None = None,
    partial_clones: int | None = None,
    seed: int | None = None,
    criterion: ConvergenceCriterion | None = None,
    max_iter: int = DEFAULT_MAX_ITER,
    fault_plan: FaultPlan | None = None,
    supervision: Mapping[str, SupervisionPolicy] | None = None,
    retry_policy: RetryPolicy | None = None,
    backend: str | None = None,
    workers: int | None = None,
    kernel: str | None = None,
    exact: bool | None = None,
) -> tuple[dict[str, ClusterModel], ExecutionResult]:
    """Cluster every grid cell with the streamed partial/merge pipeline.

    Args:
        cells: mapping from cell id to its points.
        k: centroids per cell.
        restarts: random-seed restarts per partition.
        n_chunks: fixed partitions per cell; ``None`` derives them from
            the memory budget.
        resources: resource envelope for planning (default host envelope).
        partial_clones: pin the number of partial-operator clones (the
            speed-up experiment's knob); ``None`` lets the planner decide.
        seed: RNG seed for chunking and seeding.
        criterion: convergence criterion for all k-means stages.
        max_iter: Lloyd iteration cap for all stages.
        fault_plan: optional seeded chaos engine (testing); targeted
            operators are wrapped with deterministic fault injection.
        supervision: per-logical-operator failure policies (e.g.
            ``{"partial": SupervisionPolicy.restart(1)}``); unlisted
            operators fail fast.
        retry_policy: default per-item retry policy for all transforms.
        backend: run partial-k-means clones on ``"threads"`` or
            ``"processes"`` (worker processes fed over shared memory);
            ``None`` defers to the ``REPRO_STREAM_BACKEND`` environment
            variable, then ``"threads"``.  ``"shards"`` routes the whole
            run to the fault-tolerant shard-per-cell runtime
            (:func:`repro.stream.shard.run_sharded`) instead of the
            plan-based engine.  Every backend runs the cell task of
            :mod:`repro.core.cell`, so results are bit-identical across
            backends for a fixed seed.
        workers: shorthand for ``partial_clones`` aimed at the process
            backend (one worker process per clone); ignored when
            ``partial_clones`` is given explicitly.
        kernel: Lloyd assignment backend for the partial and merge stages
            (``"dense"``/``"hamerly"``/``"elkan"``/``"blas"``); ``None``
            consults the ``REPRO_KMEANS_KERNEL`` environment variable.
            Exact kernels are bit-identical, so the flag never changes
            results — counters in the execution metrics show what it
            saved.
        exact: ``False`` opts into the tolerance-close ``blas`` tier,
            which waives bit-identity for speed (see
            :func:`repro.core.kernels.blas_mse_tolerance`).

    Returns:
        ``(models, execution_result)`` where ``models`` maps cell id to
        its final :class:`ClusterModel`.
    """
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if partial_clones is None and workers is not None:
        partial_clones = workers
    envelope = resources if resources is not None else ResourceManager()
    spec = ClusterSpec(
        k=k,
        restarts=restarts,
        criterion=criterion,
        max_iter=max_iter,
        kernel=kernel,
        exact=exact,
    )
    if resolve_backend(backend) == SHARDS:
        # Lazy import: shard pulls in multiprocessing.connection and is
        # only needed on this path.
        from repro.stream.shard import ShardConfig, ShardCoordinator

        shard_config = ShardConfig(n_workers=partial_clones or 2)
        if retry_policy is not None:
            shard_config = replace(shard_config, reassign_policy=retry_policy)
        coordinator = ShardCoordinator(
            cells,
            spec,
            n_chunks=n_chunks,
            resources=envelope,
            seed=seed,
            config=shard_config,
            fault_plan=fault_plan,
        )
        models = coordinator.run()
        metrics = coordinator.metrics
        return models, ExecutionResult(value=models, metrics=metrics)
    graph = build_partial_merge_graph(
        cells, spec, n_chunks=n_chunks, resources=envelope, seed=seed
    )
    for name, policy in (supervision or {}).items():
        graph.set_supervision(name, policy)
    overrides = {"partial": partial_clones} if partial_clones else None
    plan = Planner(envelope).plan(
        graph, clone_overrides=overrides, fault_plan=fault_plan, backend=backend
    )
    supervisor = Supervisor(retry_policy=retry_policy)
    outcome = Executor(supervisor=supervisor).run(plan)
    return outcome.value, outcome
