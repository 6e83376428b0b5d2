"""Batch workloads: one query from inputs to every cell's model.

* ``table2_cell`` -- one 50k-point cell, ``partition(10)``, threads.
* ``month_buckets`` -- 128 bucket files, ``partition(5)``, the processes
  backend with 2 workers and an fsync'd checkpoint journal.
* ``month_shards`` -- the same month on ``with_shards(2)``, run in a
  child process under a deadline (see :func:`_run_sharded`).

All three cluster with k=40 and R=10 restarts, as ``repro-kmeans
query`` does by default.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from hostenv import cpu_seconds
from spans import Tracer, traced

from repro.stream import Query

K = 40
RESTARTS = 10
WORKERS = 2
CHUNKS = {"table2_cell": 10, "month_buckets": 5, "month_shards": 5}

#: A model whose MSE on its cell's points is above this share of the
#: one-centroid MSE fails the check.  The valid models measured stay under
#: 0.07 (the worst, a Table 2 cell, reads 0.06); centroids collapsed onto
#: the cell mean read 1.
QUALITY_SHARE = 0.25

#: A shard run that has not returned after this many times the run's
#: ``--seconds`` is stopped: its cells count as failed operations.
SHARD_DEADLINE_FACTOR = 1.0


def make_query(workload: str, source, seed: int, run_dir: Path) -> Query:
    if workload == "table2_cell":
        query = Query.scan_cells(source)
    else:
        query = Query.scan_buckets(str(source))
    query = (
        query.partition(CHUNKS[workload])
        .cluster(k=K, restarts=RESTARTS)
        .merge()
        .with_seed(seed)
    )
    if workload == "month_buckets":
        query = query.with_backend("processes", workers=WORKERS).checkpoint(run_dir)
    elif workload == "month_shards":
        query = query.with_shards(WORKERS)
    return query


@dataclass
class Rep:
    """One execution of a batch query."""

    wall_s: float
    cpu_s: float
    #: Cell key -> model; ``None`` when the run was stopped at its deadline.
    models: dict | None
    #: Per-layer numbers read from the counters the result carries.
    layers: dict = field(default_factory=dict)
    #: Span totals and the wall-time attribution of a traced execution.
    trace: dict | None = None


def layer_counters(metrics) -> dict:
    """Per-layer numbers from ``ExecutionMetrics`` (all backends)."""
    out: dict[str, float] = {}
    stages = metrics.kernel_counters.values()
    computed = sum(c.get("distance_evals_computed", 0) for c in stages)
    skipped = sum(c.get("distance_evals_skipped", 0) for c in stages)
    out["core.kernels.assign_calls"] = sum(c.get("assign_calls", 0) for c in stages)
    out["core.kernels.assign_s"] = sum(c.get("assign_seconds", 0.0) for c in stages)
    out["core.kernels.dist_evals"] = computed
    out["core.kernels.dist_evals_skipped"] = skipped
    total = computed + skipped
    out["core.kernels.skip_ratio"] = skipped / total if total else 0.0

    queues = metrics.queues
    if "q->partial" in queues:
        out["stream.queues.partial_in.producer_block_s"] = queues[
            "q->partial"
        ].producer_block_seconds
    if "q->merge" in queues:
        out["stream.queues.merge_in.consumer_block_s"] = queues[
            "q->merge"
        ].consumer_block_seconds
    if queues:
        out["stream.queues.high_water"] = max(
            q.high_water_mark for q in queues.values()
        )

    wall = metrics.wall_seconds
    clones = sum(
        1 for op in metrics.operators if op.name.split("#")[0] == "partial"
    )
    partial_busy = metrics.busy_seconds_for("partial")
    if wall > 0 and clones:
        out["stream.executor.partial.busy_share"] = partial_busy / (clones * wall)
        merge_busy = metrics.busy_seconds_for("merge")
        out["stream.executor.merge.busy_share"] = merge_busy / wall
    out["data.gridio.scan_busy_s"] = metrics.busy_seconds_for("scan")

    if metrics.workers:
        out["stream.mp.spawn_s"] = sum(w.spawn_seconds for w in metrics.workers)
        out["stream.mp.worker_busy_s"] = metrics.worker_busy_seconds
        out["stream.mp.transport_s"] = partial_busy - metrics.worker_busy_seconds
        out["stream.mp.shm_mb"] = metrics.shm_bytes / 1e6
    if metrics.checkpoint is not None:
        out["stream.checkpoint.bytes"] = metrics.checkpoint.journal_bytes
    if metrics.shards:
        done = [s.cells_completed for s in metrics.shards]
        out["stream.shard.cells_completed"] = sum(done)
        out["stream.shard.heartbeats"] = sum(s.heartbeats for s in metrics.shards)
        mean = sum(done) / len(done)
        out["stream.shard.worker_cell_skew"] = max(done) / mean if mean else 0.0
    return out


def _trace_payload(tracer: Tracer, began: float, ended: float) -> dict:
    shares, uncovered = tracer.attribute(began, ended)
    payload = tracer.merge_children()
    payload["attributed"] = shares
    payload["uncovered_s"] = uncovered
    payload["wall_s"] = ended - began
    return payload


def execute(
    workload: str,
    source,
    seed: int,
    run_dir: Path,
    deadline_s: float,
    trace_dir: Path | None = None,
) -> Rep:
    """Run the workload's query once; trace it when ``trace_dir`` is given."""
    if workload == "month_shards":
        return _run_sharded(source, seed, run_dir, deadline_s, trace_dir)
    tracer = Tracer(str(trace_dir)) if trace_dir is not None else None
    cpu_before = cpu_seconds()
    with traced(tracer) if tracer else nullcontext():
        query = make_query(workload, source, seed, run_dir)
        began = time.perf_counter()
        result = query.execute()
        ended = time.perf_counter()
    return Rep(
        wall_s=ended - began,
        cpu_s=cpu_seconds() - cpu_before,
        models=result.models,
        layers=layer_counters(result.execution.metrics),
        trace=_trace_payload(tracer, began, ended) if tracer else None,
    )


# -- the shard run, under a deadline ------------------------------------------


def _shard_child(conn, source, seed, run_dir, trace_dir) -> None:
    # Own process group, so the parent can stop the shard workers with us.
    os.setsid()
    tracer = Tracer(str(trace_dir)) if trace_dir is not None else None
    with traced(tracer) if tracer else nullcontext():
        query = make_query("month_shards", source, seed, run_dir)
        began = time.perf_counter()
        conn.send(("started", began))
        result = query.execute()
        ended = time.perf_counter()
    conn.send(
        (
            "done",
            ended - began,
            result.models,
            layer_counters(result.execution.metrics),
            _trace_payload(tracer, began, ended) if tracer else None,
        )
    )
    conn.close()


def _stop_group(process) -> None:
    """SIGKILL the child's process group and reap every member.

    The benchmark is a child subreaper (see ``run.py``): once the
    coordinator is reaped, its shard workers are re-parented to this
    process and can be waited for here.
    """
    pgid = process.pid
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.join()
    while True:
        try:
            os.waitpid(-pgid, 0)
        except ChildProcessError:
            return


def _run_sharded(source, seed, run_dir, deadline_s, trace_dir) -> Rep:
    ctx = multiprocessing.get_context("fork")
    receiver, sender = ctx.Pipe(duplex=False)
    cpu_before = cpu_seconds()
    process = ctx.Process(
        target=_shard_child, args=(sender, source, seed, run_dir, trace_dir)
    )
    process.start()
    sender.close()
    try:
        if not receiver.poll(60.0):
            raise RuntimeError("shard run did not start within 60 s")
        _, began = receiver.recv()
        remaining = deadline_s - (time.perf_counter() - began)
        if receiver.poll(max(0.0, remaining)):
            _, wall, models, layers, trace = receiver.recv()
            process.join()
            return Rep(wall, cpu_seconds() - cpu_before, models, layers, trace)
        wall = time.perf_counter() - began
    finally:
        receiver.close()
        if process.is_alive():
            _stop_group(process)
    return Rep(wall, cpu_seconds() - cpu_before, None)


# -- output checks --------------------------------------------------------------


def cell_mse(points: np.ndarray, centroids: np.ndarray, block: int = 8192) -> float:
    """Mean squared distance of ``points`` to their nearest centroid."""
    c_sq = (centroids * centroids).sum(axis=1)
    total = 0.0
    for lo in range(0, points.shape[0], block):
        x = points[lo : lo + block]
        d = (x * x).sum(axis=1)[:, None] - 2.0 * x @ centroids.T + c_sq[None, :]
        total += float(np.maximum(d.min(axis=1), 0.0).sum())
    return total / points.shape[0]


def fallback_mse(points: np.ndarray) -> float:
    """The MSE charged to a cell without a valid model: one centroid at its mean."""
    return cell_mse(points, points.mean(axis=0, keepdims=True))


@dataclass
class Check:
    failed: int = 0
    wrong: int = 0
    mse: list[float] = field(default_factory=list)


def check_models(models: dict | None, cells: dict, fallback: dict, k: int = K) -> Check:
    """Check every cell's model; failed cells are charged their fallback MSE.

    A cell fails when its model is missing (``wrong`` stays 0) or when the
    model is present but not valid (``wrong`` counts it too): it must have
    ``min(k, n)`` centroids, finite values, weights summing to ``n`` and an
    MSE at most :data:`QUALITY_SHARE` of the cell's one-centroid MSE.
    """
    check = Check()
    models = models or {}
    check.wrong += len(set(models) - set(cells))
    for key, points in sorted(cells.items()):
        n, dim = points.shape
        model = models.get(key)
        if model is None:
            check.failed += 1
            check.mse.append(fallback[key])
            continue
        centroids = np.asarray(model.centroids)
        weights = np.asarray(model.weights)
        valid = (
            centroids.shape == (min(k, n), dim)
            and bool(np.isfinite(centroids).all())
            and bool(np.isfinite(weights).all())
            and abs(float(weights.sum()) - n) <= 1e-6 * n
        )
        mse = cell_mse(points, centroids) if valid else fallback[key]
        if not valid or mse > QUALITY_SHARE * fallback[key]:
            check.failed += 1
            check.wrong += 1
            check.mse.append(fallback[key])
            continue
        check.mse.append(mse)
    return check
