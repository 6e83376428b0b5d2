"""Tests for tracing, model selection, and outlier handling."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.baselines.serial import SerialKMeans
from repro.compression.outliers import compress_with_outliers, split_outliers
from repro.core.model_selection import (
    distortion_curve,
    suggest_k_elbow,
    suggest_k_rate,
)
from repro.stream.distributed import DistributedSimulation, paper_testbed
from repro.stream.tracing import dump_metrics_json, metrics_to_dict, render_gantt


class TestTracing:
    def _metrics(self, blobs_6d):
        from repro.stream.kmeans_ops import run_partial_merge_stream

        __, outcome = run_partial_merge_stream(
            {"c": blobs_6d}, k=4, restarts=1, n_chunks=3, seed=0, max_iter=30
        )
        return outcome.metrics

    def test_metrics_to_dict_roundtrips_json(self, blobs_6d):
        metrics = self._metrics(blobs_6d)
        payload = metrics_to_dict(metrics)
        text = json.dumps(payload)
        restored = json.loads(text)
        assert restored["wall_seconds"] > 0
        names = {op["name"] for op in restored["operators"]}
        assert any("partial" in name for name in names)
        assert "q->merge" in restored["queues"]

    def test_metrics_to_dict_exports_every_record_field(self):
        from dataclasses import fields

        from repro.stream.metrics import (
            CheckpointStats,
            ExecutionMetrics,
            OperatorMetrics,
            RecoveryEvent,
            ShardWorkerStats,
            StallEvent,
            WorkerProcessStats,
        )
        from repro.stream.queues import QueueStats

        records = {
            "workers": WorkerProcessStats(name="w"),
            "shards": ShardWorkerStats(name="s"),
            "recoveries": RecoveryEvent("s", "dead-pid", 1, 0, 2, 0.5),
            "operators": OperatorMetrics(name="partial#0"),
            "stalls": StallEvent(1.0, ("partial",), {}, {}, {}),
        }
        metrics = ExecutionMetrics(
            workers=[records["workers"]],
            shards=[records["shards"]],
            recoveries=[records["recoveries"]],
            operators=[records["operators"]],
            stalls=[records["stalls"]],
            queues={"q->merge": QueueStats(puts=3)},
            checkpoint=CheckpointStats(journal_path="j.rjl"),
        )
        payload = json.loads(json.dumps(metrics_to_dict(metrics)))
        exported = {key: payload[key][0] for key in records}
        exported["queues"] = payload["queues"]["q->merge"]
        exported["checkpoint"] = payload["checkpoint"]
        records["queues"] = metrics.queues["q->merge"]
        records["checkpoint"] = metrics.checkpoint
        for key, record in records.items():
            missing = {f.name for f in fields(record)} - set(exported[key])
            assert not missing, (key, missing)
        # Computed properties stay exported next to the fields.
        assert {"wall_seconds", "utilization"} <= set(exported["operators"])

    def test_dump_metrics_json(self, tmp_path, blobs_6d):
        metrics = self._metrics(blobs_6d)
        path = dump_metrics_json(metrics, tmp_path / "trace.json")
        loaded = json.loads(path.read_text())
        assert loaded["queues"]["q->partial"]["puts"] == 3

    def test_render_gantt(self):
        sim = DistributedSimulation(paper_testbed(3))
        report = sim.simulate_partial_merge(
            n_points=10_000, dim=6, k=20, n_chunks=6,
            restarts=3, partial_iterations=10.0,
        )
        chart = render_gantt(report)
        assert "Gantt" in chart
        assert "pc0" in chart and "pc2" in chart
        assert "#" in chart  # compute marks
        assert "M" in chart  # the merge

    def test_render_gantt_validation(self):
        sim = DistributedSimulation(paper_testbed(1))
        report = sim.simulate_partial_merge(
            n_points=100, dim=2, k=4, n_chunks=2,
            restarts=1, partial_iterations=5.0,
        )
        with pytest.raises(ValueError, match="width"):
            render_gantt(report, width=5)


class TestModelSelection:
    def test_distortion_curve_decreasing(self, blobs_2d):
        curve = distortion_curve(
            blobs_2d, ks=(1, 2, 4, 8), restarts=3,
            rng=np.random.default_rng(0), max_iter=50,
        )
        mses = [m for __, m in curve]
        assert mses == sorted(mses, reverse=True)

    def test_elbow_finds_true_k(self, blobs_2d):
        """4 well-separated blobs: the elbow must land at k=4."""
        curve = distortion_curve(
            blobs_2d, ks=(1, 2, 3, 4, 6, 8, 12), restarts=4,
            rng=np.random.default_rng(1), max_iter=60,
        )
        assert suggest_k_elbow(curve) == 4

    def test_rate_threshold(self, blobs_2d):
        curve = distortion_curve(
            blobs_2d, ks=(1, 2, 4, 8, 16), restarts=3,
            rng=np.random.default_rng(2), max_iter=60,
        )
        chosen = suggest_k_rate(curve, min_improvement=0.2)
        assert chosen == 4  # past the true 4 the curve flattens

    def test_subsampling(self, rng):
        points = rng.normal(size=(5_000, 3))
        curve = distortion_curve(
            points, ks=(2, 4), restarts=1, rng=rng,
            sample_size=500, max_iter=20,
        )
        assert len(curve) == 2

    def test_validation(self, blobs_2d, rng):
        with pytest.raises(ValueError, match="non-empty"):
            distortion_curve(blobs_2d, ks=(), rng=rng)
        with pytest.raises(ValueError, match="increasing"):
            distortion_curve(blobs_2d, ks=(4, 2), rng=rng)
        with pytest.raises(ValueError, match="at least 3"):
            suggest_k_elbow([(1, 2.0), (2, 1.0)])
        with pytest.raises(ValueError, match="min_improvement"):
            suggest_k_rate([(1, 2.0), (2, 1.0)], min_improvement=2.0)


class TestOutliers:
    @pytest.fixture
    def contaminated(self, blobs_2d, rng):
        spikes = rng.uniform(50, 60, size=(8, 2))
        return np.vstack([blobs_2d, spikes])

    def test_split_catches_spikes(self, contaminated, blobs_2d):
        model = SerialKMeans(k=4, restarts=3, seed=0).fit(blobs_2d)
        split = split_outliers(contaminated, model.centroids, quantile=0.97)
        # All 8 spikes must be in the tail.
        assert (split.outliers > 40).all(axis=1).sum() == 8

    def test_split_conserves_points(self, contaminated, blobs_2d):
        model = SerialKMeans(k=4, restarts=3, seed=0).fit(blobs_2d)
        split = split_outliers(contaminated, model.centroids, quantile=0.95)
        total = split.body.shape[0] + split.outliers.shape[0]
        assert total == contaminated.shape[0]
        assert 0.0 < split.outlier_fraction < 0.1

    def test_validation(self, blobs_2d):
        model = SerialKMeans(k=4, restarts=2, seed=0).fit(blobs_2d)
        with pytest.raises(ValueError, match="quantile"):
            split_outliers(blobs_2d, model.centroids, quantile=1.5)

    def test_compress_with_outliers_counts(self, contaminated, blobs_2d):
        model = SerialKMeans(k=4, restarts=3, seed=0).fit(blobs_2d)
        compressed = compress_with_outliers(
            contaminated, model, quantile=0.97
        )
        assert compressed.total_count == pytest.approx(contaminated.shape[0])
        # Query covering everything counts everything.
        lo = contaminated.min(axis=0) - 1
        hi = contaminated.max(axis=0) + 1
        assert compressed.estimate_count(lo, hi) == pytest.approx(
            contaminated.shape[0], rel=1e-9
        )

    def test_outliers_do_not_stretch_buckets(self, contaminated, blobs_2d):
        """With the tail split off, bucket boxes stay tight around the
        blobs instead of reaching toward the spikes."""
        model = SerialKMeans(k=4, restarts=3, seed=0).fit(blobs_2d)
        compressed = compress_with_outliers(
            contaminated, model, quantile=0.97
        )
        for bucket in compressed.histogram.buckets:
            assert (bucket.upper < 20).all()

    def test_tail_queries_answered_exactly(self, contaminated, blobs_2d):
        model = SerialKMeans(k=4, restarts=3, seed=0).fit(blobs_2d)
        compressed = compress_with_outliers(
            contaminated, model, quantile=0.97
        )
        count = compressed.estimate_count(
            np.array([45.0, 45.0]), np.array([65.0, 65.0])
        )
        assert count == pytest.approx(8.0)
