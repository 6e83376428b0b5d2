"""Tests for the disk-backed bucket-file scan operator."""

from __future__ import annotations

import struct
import zlib

import numpy as np
import pytest

from repro.data.generator import generate_cell_points
from repro.data.gridcell import GridCell, GridCellId
from repro.data.gridio import GridBucketFormatError, write_bucket_dir
from repro.stream.errors import ExecutionError
from repro.stream.file_source import (
    QUARANTINE,
    QUARANTINE_DIRNAME,
    BucketFileSource,
)
from repro.stream.executor import Executor
from repro.stream.graph import DataflowGraph
from repro.stream.kmeans_ops import MergeKMeansSink, PartialKMeansOperator
from repro.stream.planner import Planner
from repro.stream.scheduler import ResourceManager


@pytest.fixture
def bucket_dir(tmp_path):
    cells = [
        GridCell(GridCellId(10, 20), generate_cell_points(800, seed=1)),
        GridCell(GridCellId(11, 20), generate_cell_points(300, seed=2)),
    ]
    write_bucket_dir(tmp_path, cells)
    return tmp_path, cells


class TestBucketFileSource:
    def test_emits_every_point_once(self, bucket_dir):
        directory, cells = bucket_dir
        source = BucketFileSource(directory, n_chunks=4)
        chunks = list(source.generate())
        for cell in cells:
            emitted = sum(
                c.n_points for c in chunks if c.cell_id == cell.cell_id.key
            )
            assert emitted == cell.n_points

    def test_fixed_chunk_count(self, bucket_dir):
        directory, __ = bucket_dir
        source = BucketFileSource(directory, n_chunks=4)
        by_cell: dict[str, list] = {}
        for chunk in source.generate():
            by_cell.setdefault(chunk.cell_id, []).append(chunk)
        for chunks in by_cell.values():
            assert len(chunks) == 4
            assert all(c.n_partitions == 4 for c in chunks)

    def test_memory_budget_bounds_chunks(self, bucket_dir):
        directory, __ = bucket_dir
        resources = ResourceManager(memory_budget_bytes=16 * 1024)
        source = BucketFileSource(directory, resources=resources)
        cap = resources.max_points_per_partition(6)
        for chunk in source.generate():
            assert chunk.n_points <= cap

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no .gbk"):
            BucketFileSource(tmp_path)

    def test_bad_n_chunks_rejected(self, bucket_dir):
        directory, __ = bucket_dir
        with pytest.raises(ValueError, match="n_chunks"):
            BucketFileSource(directory, n_chunks=0)

    def test_full_pipeline_from_disk(self, bucket_dir):
        """Files on disk -> scan -> partial -> merge, end to end."""
        directory, cells = bucket_dir
        graph = DataflowGraph()
        graph.add(BucketFileSource(directory, n_chunks=3))
        graph.add(
            PartialKMeansOperator(
                k=6, restarts=2, seed=0
            ),
            cost_hint=16.0,
        )
        graph.add(MergeKMeansSink(k=6))
        graph.connect("scan-files", "partial")
        graph.connect("partial", "merge")

        plan = Planner(ResourceManager(worker_slots=3)).plan(graph)
        outcome = Executor().run(plan)
        models = outcome.value
        assert set(models) == {c.cell_id.key for c in cells}
        for cell in cells:
            model = models[cell.cell_id.key]
            assert model.weights.sum() == pytest.approx(cell.n_points)


def corrupt_header(path):
    """Overwrite the bucket's magic, keeping the file otherwise intact."""
    blob = bytearray(path.read_bytes())
    blob[:4] = b"XXXX"
    path.write_bytes(bytes(blob))


def corrupt_payload(path):
    """Flip one payload byte so only the end-of-stream CRC catches it."""
    blob = bytearray(path.read_bytes())
    blob[-5] ^= 0xFF
    path.write_bytes(bytes(blob))


def write_zero_point_bucket(path):
    """Hand-craft a header declaring zero points (writers refuse this)."""
    header = struct.pack("<4siiQII", b"GBK1", 1, 2, 0, 6, zlib.crc32(b""))
    path.write_bytes(header)


class TestCorruptionPolicies:
    def test_unknown_policy_rejected(self, bucket_dir):
        with pytest.raises(ValueError, match="policy"):
            BucketFileSource(bucket_dir[0], n_chunks=2, on_corrupt="ignore")

    def test_fail_policy_aborts_on_corrupt_header(self, bucket_dir):
        directory, __ = bucket_dir
        corrupt_header(sorted(directory.glob("*.gbk"))[0])
        source = BucketFileSource(directory, n_chunks=2)
        with pytest.raises(GridBucketFormatError, match="magic"):
            list(source.generate())

    def test_quarantine_moves_file_and_continues(self, bucket_dir):
        directory, cells = bucket_dir
        bad = sorted(directory.glob("*.gbk"))[0]
        bad_name = bad.name
        corrupt_header(bad)
        source = BucketFileSource(
            directory, n_chunks=2, on_corrupt=QUARANTINE
        )
        chunks = list(source.generate())
        # The other bucket is fully emitted.
        good = [c for c in cells if f"{c.cell_id.key}.gbk" != bad_name]
        assert sum(c.n_points for c in chunks) == sum(
            c.n_points for c in good
        )
        # The bad file moved into quarantine/ and the loss is recorded.
        assert not bad.exists()
        assert (directory / QUARANTINE_DIRNAME / bad_name).exists()
        assert len(source.quarantined) == 1
        assert source.quarantined[0].startswith(bad_name)

    def test_quarantine_uniquifies_same_basename(self, tmp_path):
        """Same-basename corrupt buckets must not clobber each other."""
        cells = [GridCell(GridCellId(10, 20), generate_cell_points(100, seed=1))]
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        dir_c = tmp_path / "c"
        for directory in (dir_a, dir_b, dir_c):
            write_bucket_dir(directory, cells)
            corrupt_header(directory / "lat10lon20.gbk")
        quarantine = tmp_path / "shared-quarantine"
        for directory in (dir_a, dir_b, dir_c):
            source = BucketFileSource(
                directory,
                n_chunks=2,
                on_corrupt=QUARANTINE,
                quarantine_dir=quarantine,
            )
            assert list(source.generate()) == []
            assert len(source.quarantined) == 1
        moved = sorted(p.name for p in quarantine.glob("*.gbk"))
        assert moved == [
            "lat10lon20.1.gbk",
            "lat10lon20.2.gbk",
            "lat10lon20.gbk",
        ]

    def test_quarantine_mid_stream_corruption(self, bucket_dir):
        directory, cells = bucket_dir
        bad = sorted(directory.glob("*.gbk"))[0]
        corrupt_payload(bad)
        source = BucketFileSource(
            directory, n_chunks=2, on_corrupt=QUARANTINE
        )
        chunks = list(source.generate())
        # The header was fine, so its chunks were emitted before the
        # end-of-stream CRC fired; the file is quarantined regardless.
        assert not bad.exists()
        assert len(source.quarantined) == 1
        assert chunks  # the clean bucket still came through

    def test_zero_point_bucket_is_a_format_error(self, tmp_path):
        write_zero_point_bucket(tmp_path / "empty.gbk")
        source = BucketFileSource(tmp_path, n_chunks=2)
        with pytest.raises(GridBucketFormatError, match="empty bucket"):
            list(source.generate())

    def test_zero_point_bucket_quarantined(self, bucket_dir):
        directory, cells = bucket_dir
        write_zero_point_bucket(directory / "aaa-empty.gbk")
        source = BucketFileSource(
            directory, n_chunks=2, on_corrupt=QUARANTINE
        )
        chunks = list(source.generate())
        assert sum(c.n_points for c in chunks) == sum(
            c.n_points for c in cells
        )
        assert source.quarantined[0].startswith("aaa-empty.gbk")

    def test_mixed_directory_end_to_end_under_both_policies(self, tmp_path):
        directory = tmp_path / "buckets"
        cells = [
            GridCell(GridCellId(10, 20), generate_cell_points(300, seed=1)),
            GridCell(GridCellId(11, 20), generate_cell_points(200, seed=2)),
        ]
        write_bucket_dir(directory, cells)
        corrupt_header(directory / "lat10lon20.gbk")

        def build(on_corrupt):
            graph = DataflowGraph()
            graph.add(
                BucketFileSource(directory, n_chunks=2, on_corrupt=on_corrupt)
            )
            graph.add(
                PartialKMeansOperator(
                    k=4, restarts=1, seed=0
                ),
                cost_hint=16.0,
            )
            graph.add(MergeKMeansSink(k=4))
            graph.connect("scan-files", "partial")
            graph.connect("partial", "merge")
            return Planner(ResourceManager(worker_slots=2)).plan(graph)

        # fail-fast: the plan aborts on the corrupt bucket.
        with pytest.raises(ExecutionError):
            Executor().run(build("fail"))

        # quarantine: the plan completes with the surviving cell, and the
        # loss shows up in the execution metrics.
        outcome = Executor().run(build(QUARANTINE))
        assert set(outcome.value) == {"lat11lon20"}
        assert outcome.metrics.total_quarantined == 1
        assert outcome.metrics.quarantined_files[0].startswith(
            "lat10lon20.gbk"
        )

    def test_skip_cells_reads_header_only(self, bucket_dir):
        directory, cells = bucket_dir
        skip = cells[0].cell_id.key
        source = BucketFileSource(directory, n_chunks=2, skip_cells={skip})
        chunks = list(source.generate())
        assert skip not in {c.cell_id for c in chunks}

    def test_skip_partitions_suppresses_reemission(self, bucket_dir):
        directory, cells = bucket_dir
        key = cells[0].cell_id.key
        source = BucketFileSource(
            directory, n_chunks=4, skip_partitions={(key, 0), (key, 2)}
        )
        partitions = sorted(
            c.partition for c in source.generate() if c.cell_id == key
        )
        assert partitions == [1, 3]
        # n_partitions stays at the full count so the merge sink still
        # knows how many to expect (journal replay supplies the rest).
        full = [c for c in source.generate() if c.cell_id == key]
        assert all(c.n_partitions == 4 for c in full)
