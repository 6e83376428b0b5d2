"""The cell task's ``(seed, cell, partition)`` RNG contract across backends.

Every driver runs :mod:`repro.core.cell`, so one seed must give the same
bits whether a cell runs on threads, worker processes, shards, the
in-process :class:`PartialMergeKMeans` or the serving registry.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.pipeline import PartialMergeKMeans
from repro.data.gridcell import GridCell, GridCellId
from repro.data.gridio import write_bucket_file
from repro.serve import ModelRegistry
from repro.stream.checkpoint import JOURNAL_FILENAME, read_journal
from repro.stream.items import DataChunk
from repro.stream.kmeans_ops import PartialKMeansOperator
from repro.stream.query import Query
from repro.stream.shard import ShardConfig
from tests.conftest import make_blobs

SEED = 11
K = 3
RESTARTS = 2


def _cells() -> dict[str, np.ndarray]:
    centers = np.random.default_rng(2).normal(scale=8.0, size=(3, 4))
    return {
        PartialMergeKMeans.CELL_ID: make_blobs(60, centers, seed=1),
        GridCellId(lat=1, lon=2).key: make_blobs(40, centers, seed=2),
        # Fewer points than p * k for p = 5: partitions hold 1-2 points.
        GridCellId(lat=3, lon=4).key: make_blobs(3, centers[:2], seed=3),
    }


def _query(cells, p):
    return (
        Query.scan_cells(cells)
        .partition(p)
        .cluster(k=K, restarts=RESTARTS)
        .merge()
        .with_seed(SEED)
    )


def _assert_same_bits(a, b):
    assert a.centroids.tobytes() == b.centroids.tobytes()
    assert a.weights.tobytes() == b.weights.tobytes()


@pytest.mark.parametrize("p", [1, 5])
def test_backends_and_pipeline_give_identical_models(p):
    cells = _cells()
    threads = _query(cells, p).with_backend("threads", workers=2).execute()
    processes = _query(cells, p).with_backend("processes", workers=2).execute()
    config = ShardConfig(heartbeat_timeout=5.0)
    shards = _query(cells, p).with_shards(2, config).execute()
    for cell_id in cells:
        reference = threads.models[cell_id]
        _assert_same_bits(reference, processes.models[cell_id])
        _assert_same_bits(reference, shards.models[cell_id])
    fit = PartialMergeKMeans(k=K, restarts=RESTARTS, n_chunks=p, seed=SEED).fit(
        cells[PartialMergeKMeans.CELL_ID]
    )
    _assert_same_bits(threads.models[PartialMergeKMeans.CELL_ID], fit.model)


def test_registry_warm_start_serves_the_checkpointed_models(tmp_path):
    buckets = tmp_path / "buckets"
    buckets.mkdir()
    for key, points in _cells().items():
        if key.startswith("lat"):
            cell = GridCell(GridCellId.from_key(key), points)
            write_bucket_file(buckets / f"{key}.gbk", cell)
    run_dir = tmp_path / "run"
    result = (
        Query.scan_buckets(str(buckets))
        .partition(5)
        .cluster(k=K, restarts=RESTARTS)
        .merge()
        .with_seed(SEED)
        .checkpoint(run_dir, fsync=False)
        .execute()
    )
    with ModelRegistry(run_dir, k=K, seed=SEED, fsync=False) as registry:
        for cell_id, model in result.models.items():
            _assert_same_bits(model, registry.summary(cell_id).model)
            answer = registry.assign(cell_id, model.centroids)
            assert answer.centroids.tobytes() == model.centroids.tobytes()


def test_registry_ingest_journals_the_stream_partial_summary(tmp_path):
    cell_id = GridCellId(lat=1, lon=2).key
    points = _cells()[cell_id]
    chunks = [points[:50], points[50:]]
    with ModelRegistry(
        tmp_path / "run", k=K, seed=SEED, restarts=RESTARTS, fsync=False
    ) as registry:
        for chunk in chunks:
            registry.ingest(cell_id, chunk)
    journaled = read_journal(tmp_path / "run" / JOURNAL_FILENAME).partitions[cell_id]
    operator = PartialKMeansOperator(k=K, restarts=RESTARTS, seed=SEED)
    for partition, chunk in enumerate(chunks):
        (expected,) = operator.process(DataChunk(cell_id, partition, chunk))
        summary = journaled[partition].summary
        assert summary.centroids.tobytes() == expected.summary.centroids.tobytes()
        assert summary.weights.tobytes() == expected.summary.weights.tobytes()
