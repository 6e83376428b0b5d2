"""Tests for the partial/merge k-means stream operators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.quality import mse as evaluate_mse
from repro.stream.items import DataChunk
from repro.stream.kmeans_ops import (
    GridCellChunkSource,
    MergeKMeansSink,
    PartialKMeansOperator,
    run_partial_merge_stream,
)
from repro.stream.scheduler import ResourceManager


@pytest.fixture
def cells(blobs_6d) -> dict[str, np.ndarray]:
    return {"cellA": blobs_6d, "cellB": blobs_6d[:300] + 2.0}


class TestGridCellChunkSource:
    def test_emits_all_points_once(self, cells):
        source = GridCellChunkSource(cells, n_chunks=4, seed=0)
        chunks = list(source.generate())
        for cell_id, points in cells.items():
            emitted = sum(
                c.n_points for c in chunks if c.cell_id == cell_id
            )
            assert emitted == points.shape[0]

    def test_partition_metadata(self, cells):
        source = GridCellChunkSource(cells, n_chunks=3, seed=0)
        chunks = [c for c in source.generate() if c.cell_id == "cellA"]
        assert sorted(c.partition for c in chunks) == [0, 1, 2]
        assert all(c.n_partitions == 3 for c in chunks)

    def test_memory_budget_derives_chunks(self, cells):
        resources = ResourceManager(memory_budget_bytes=64 * 1024)
        source = GridCellChunkSource(cells, resources=resources, seed=0)
        chunks = list(source.generate())
        cap = resources.max_points_per_partition(6)
        assert all(c.n_points <= cap for c in chunks)

    def test_requires_chunking_policy(self, cells):
        with pytest.raises(ValueError, match="n_chunks or resources"):
            GridCellChunkSource(cells)

    def test_rejects_empty_cells(self):
        with pytest.raises(ValueError, match="must not be empty"):
            GridCellChunkSource({}, n_chunks=2)

    def test_zero_point_cell_yields_empty_watermark(self, cells):
        from repro.stream.items import Watermark

        cells = dict(cells, hole=np.zeros((0, 6)))
        source = GridCellChunkSource(cells, n_chunks=3, seed=0)
        items = list(source.generate())
        marks = [i for i in items if isinstance(i, Watermark)]
        assert [m.cell_id for m in marks] == ["hole"]
        assert marks[0].n_partitions == 0
        assert marks[0].payload == {"dim": 6, "n_points": 0}
        assert not any(
            isinstance(i, DataChunk) and i.cell_id == "hole" for i in items
        )


class TestPartialKMeansOperator:
    def test_process_yields_centroid_message(self, blobs_6d):
        operator = PartialKMeansOperator(
            k=5, restarts=2, seed=0
        )
        chunk = DataChunk(
            cell_id="c", partition=1, points=blobs_6d[:200], n_partitions=3
        )
        (message,) = list(operator.process(chunk))
        assert message.cell_id == "c"
        assert message.partition == 1
        assert message.n_partitions == 3
        assert message.summary.total_weight == pytest.approx(200)

    def test_clones_are_independent(self, blobs_6d):
        operator = PartialKMeansOperator(
            k=5, restarts=1, seed=0
        )
        clone = operator.clone()
        assert clone is not operator
        assert clone.name == operator.name
        chunk = DataChunk(cell_id="c", partition=0, points=blobs_6d[:100])
        (a,) = list(operator.process(chunk))
        (b,) = list(clone.process(chunk))
        # Both valid summaries; they used different seed streams.
        assert a.summary.total_weight == b.summary.total_weight


class TestMergeKMeansSink:
    def test_eager_finalization_per_cell(self, blobs_6d):
        operator = PartialKMeansOperator(
            k=4, restarts=1, seed=1
        )
        sink = MergeKMeansSink(k=4)
        for partition in range(3):
            chunk = DataChunk(
                cell_id="only",
                partition=partition,
                points=blobs_6d[partition * 100 : (partition + 1) * 100],
                n_partitions=3,
            )
            for message in operator.process(chunk):
                sink.consume(message)
        # All three partitions arrived: the cell must already be final.
        assert "only" in sink.result()

    def test_result_flushes_incomplete_cells(self, blobs_6d):
        operator = PartialKMeansOperator(
            k=4, restarts=1, seed=1
        )
        sink = MergeKMeansSink(k=4)
        chunk = DataChunk(
            cell_id="partial-cell",
            partition=0,
            points=blobs_6d[:100],
            n_partitions=0,  # unknown total: only result() can finalise
        )
        for message in operator.process(chunk):
            sink.consume(message)
        models = sink.result()
        assert "partial-cell" in models

    def test_zero_partition_watermark_records_empty_model(self):
        from repro.stream.items import Watermark

        sink = MergeKMeansSink(k=4)
        sink.consume(
            Watermark(cell_id="hole", n_partitions=0, payload={"dim": 6})
        )
        models = sink.result()
        assert models["hole"].centroids.shape == (0, 6)
        assert models["hole"].weights.shape == (0,)
        assert models["hole"].extra["empty_cell"] is True
        assert sink.incomplete_cells == []

    def test_short_finalisation_records_missing_partitions(self, blobs_6d):
        operator = PartialKMeansOperator(
            k=4, restarts=1, seed=6
        )
        sink = MergeKMeansSink(k=4)
        for partition in (0, 2):  # partition 1 was lost upstream
            chunk = DataChunk(
                cell_id="lossy",
                partition=partition,
                points=blobs_6d[partition * 100 : (partition + 1) * 100],
                n_partitions=3,
            )
            for message in operator.process(chunk):
                sink.consume(message)
        models = sink.result()
        model = models["lossy"]
        assert model.partitions == 2
        assert model.extra["expected_partitions"] == 3
        assert model.extra["missing_partitions"] == [1]
        assert sink.incomplete_cells == ["lossy"]


class TestRunPartialMergeStream:
    def test_end_to_end_models(self, cells):
        models, outcome = run_partial_merge_stream(
            cells, k=5, restarts=2, n_chunks=3, seed=0
        )
        assert set(models) == set(cells)
        for cell_id, model in models.items():
            assert model.k <= 5
            assert model.weights.sum() == pytest.approx(
                cells[cell_id].shape[0]
            )
            assert model.mse == pytest.approx(
                evaluate_mse(cells[cell_id], model.centroids)
            )
        assert outcome.metrics.wall_seconds > 0

    def test_quality_comparable_to_direct_pipeline(self, cells):
        from repro.core.pipeline import PartialMergeKMeans

        models, __ = run_partial_merge_stream(
            cells, k=5, restarts=3, n_chunks=3, seed=0
        )
        direct = PartialMergeKMeans(k=5, restarts=3, n_chunks=3, seed=0).fit(
            cells["cellA"]
        )
        assert models["cellA"].mse <= direct.model.mse * 3 + 1.0

    def test_clone_override_changes_plan_not_results_shape(self, cells):
        models_1, outcome_1 = run_partial_merge_stream(
            cells, k=5, restarts=1, n_chunks=4, partial_clones=1, seed=0
        )
        models_3, outcome_3 = run_partial_merge_stream(
            cells, k=5, restarts=1, n_chunks=4, partial_clones=3, seed=0
        )
        partial_ops_1 = [
            op for op in outcome_1.metrics.operators if "partial" in op.name
        ]
        partial_ops_3 = [
            op for op in outcome_3.metrics.operators if "partial" in op.name
        ]
        assert len(partial_ops_1) == 1
        assert len(partial_ops_3) == 3
        assert set(models_1) == set(models_3)

    def test_zero_point_cell_end_to_end(self, cells):
        cells = dict(cells, hole=np.zeros((0, 6)))
        models, outcome = run_partial_merge_stream(
            cells, k=5, restarts=1, n_chunks=3, seed=0
        )
        assert set(models) == set(cells)
        assert models["hole"].k == 0
        assert models["hole"].extra["empty_cell"] is True
        assert outcome.metrics.incomplete_cells == []

    def test_degrade_surfaces_incomplete_cells_in_metrics(self, cells):
        from repro.stream.faults import FaultPlan, FaultSpec
        from repro.stream.supervision import SupervisionPolicy

        fault_plan = FaultPlan(
            [FaultSpec(target="partial", kind="crash", at_index=2)]
        )
        models, outcome = run_partial_merge_stream(
            cells,
            k=5,
            restarts=1,
            n_chunks=4,
            seed=0,
            partial_clones=1,
            fault_plan=fault_plan,
            supervision={"partial": SupervisionPolicy.degrade()},
        )
        incomplete = outcome.metrics.incomplete_cells
        assert incomplete  # the injected crash dropped a chunk
        for cell_id in incomplete:
            assert models[cell_id].extra["missing_partitions"]
        assert any("incomplete" in line for line in outcome.metrics.summary_lines())

    def test_memory_driven_chunking(self, cells):
        resources = ResourceManager(
            memory_budget_bytes=32 * 1024, worker_slots=2
        )
        models, __ = run_partial_merge_stream(
            cells, k=5, restarts=1, resources=resources, seed=0
        )
        cap = resources.max_points_per_partition(6)
        expected = resources.partitions_for(cells["cellA"].shape[0], 6)
        assert models["cellA"].partitions == min(
            expected, cells["cellA"].shape[0]
        )
        assert cap * models["cellA"].partitions >= cells["cellA"].shape[0]


class TestWatermarkFinalization:
    def test_watermark_announces_count_after_the_fact(self, blobs_6d):
        """A source that cannot pre-count partitions finalises via a
        trailing watermark."""
        from repro.stream.items import Watermark

        operator = PartialKMeansOperator(
            k=4, restarts=1, seed=2
        )
        sink = MergeKMeansSink(k=4)
        for partition in range(3):
            chunk = DataChunk(
                cell_id="late",
                partition=partition,
                points=blobs_6d[partition * 100 : (partition + 1) * 100],
                n_partitions=0,  # unknown at emission time
            )
            for message in operator.process(chunk):
                sink.consume(message)
        assert sink._models == {}  # nothing finalised yet
        sink.consume(Watermark(cell_id="late", n_partitions=3))
        assert "late" in sink._models

    def test_early_watermark_waits_for_stragglers(self, blobs_6d):
        """A watermark overtaking in-flight chunks must not finalise."""
        from repro.stream.items import Watermark

        operator = PartialKMeansOperator(
            k=4, restarts=1, seed=3
        )
        sink = MergeKMeansSink(k=4)
        sink.consume(Watermark(cell_id="cell", n_partitions=2))
        assert sink._models == {}
        messages = []
        for partition in range(2):
            chunk = DataChunk(
                cell_id="cell",
                partition=partition,
                points=blobs_6d[partition * 100 : (partition + 1) * 100],
                n_partitions=0,
            )
            messages.extend(operator.process(chunk))
        sink.consume(messages[0])
        assert sink._models == {}
        sink.consume(messages[1])
        assert "cell" in sink._models

    def test_partial_operator_passes_watermarks_through(self):
        from repro.stream.items import Watermark

        operator = PartialKMeansOperator(
            k=4, restarts=1, seed=4
        )
        mark = Watermark(cell_id="x", n_partitions=5)
        assert list(operator.process(mark)) == [mark]
