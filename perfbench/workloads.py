"""One function per workload kind: set up, measure, check, report."""

from __future__ import annotations

import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import batch
import inputs
import serving
from hostenv import cpu_seconds, nproc, peak_rss_mb
from spans import LAYERS, Tracer, traced

from repro.serve import ClusterServer, ModelRegistry

#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 5

#: A generator that sends later than this at p99 makes the run invalid:
#: it would be measuring itself, not the server.  Invalid runs are marked
#: on the notes line; ``correct`` is about the program's outputs only.
LATE_LIMIT_MS = 10.0


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)


def run(
    workload: str, seed: int, seconds: float, trace: bool, work: Path, import_s: float
) -> Result:
    if workload == "serve_mixed":
        return run_serve(seed, seconds, trace, work, import_s)
    return run_batch(workload, seed, seconds, trace, work, import_s)


def _ms(seconds_values, q: float) -> float:
    return float(np.percentile(np.asarray(seconds_values), q)) * 1e3


def _fresh(directory: Path) -> Path:
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    return directory


def _span_layers(payload: dict | None) -> dict:
    """Per-layer metrics from a traced execution's span totals."""
    out: dict[str, float] = {}
    if not payload:
        return out
    calls, inclusive, counts = payload["calls"], payload["inclusive"], payload["counts"]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = payload["attributed"].get(layer, 0.0)
    for layer in ("core.seeding", "core.restarts", "core.partial", "core.merge"):
        out[f"{layer}.calls"] = calls.get(layer, 0)
        out[f"{layer}.s"] = inclusive.get(layer, 0.0)
    for name in (
        "core.kmeans.iterations",
        "core.restarts.runs",
        "core.restarts.abandoned",
        "core.merge.iterations",
        "data.gridio.files",
        "data.gridio.bytes",
        "stream.checkpoint.appends",
        "serve.registry.assign_s",
    ):
        out[name] = counts.get(name, 0)
    out["stream.checkpoint.append_s"] = inclusive.get("stream.checkpoint", 0.0)
    out["trace.wall_s"] = payload["wall_s"]
    out["trace.uncovered_s"] = payload["uncovered_s"]
    return out


# -- batch workloads ------------------------------------------------------------


def _setup_batch(workload: str, seed: int, work: Path):
    cells, source = None, None
    times = []
    for _ in range(SETUP_REPEATS):
        began = time.perf_counter()
        if workload == "table2_cell":
            cells = inputs.table2_cell(seed)
            source = cells.points
        else:
            cells = inputs.month(seed)
            shutil.rmtree(work / "buckets", ignore_errors=True)
            source = cells.write_buckets(work / "buckets")
        times.append(time.perf_counter() - began)
    return cells, source, times


def run_batch(
    workload: str, seed: int, seconds: float, trace: bool, work: Path, import_s: float
) -> Result:
    cells, source, setup_times = _setup_batch(workload, seed, work)
    fallback = {key: batch.fallback_mse(points) for key, points in cells.points.items()}
    deadline = batch.SHARD_DEADLINE_FACTOR * seconds
    n_cells = len(cells.points)

    def execute(index: int, trace_dir: Path | None = None) -> batch.Rep:
        return batch.execute(
            workload, source, seed, work / f"run{index}", deadline, trace_dir
        )

    reps: list[batch.Rep] = []
    if trace:
        reps = [execute(0), execute(1, trace_dir=_fresh(work / "trace"))]
    else:
        began = time.perf_counter()
        while True:
            reps.append(execute(len(reps)))
            if reps[-1].models is None or time.perf_counter() - began >= seconds:
                break

    # The operations of a batch workload are its cells, once per execution.
    checked = [batch.check_models(rep.models, cells.points, fallback) for rep in reps]
    failed = sum(c.failed for c in checked)
    attempted = n_cells * len(checked)
    walls = [rep.wall_s for rep in reps]
    wall = statistics.median(walls)
    model_mse = statistics.median(float(np.mean(c.mse)) for c in checked)
    notes = [
        f"cells={n_cells} points={cells.total_points} setup_s={setup_times}",
        f"walls_s={[round(w, 3) for w in walls]} "
        f"cpus_s={[round(rep.cpu_s, 3) for rep in reps]} "
        f"cells_failed={[c.failed for c in checked]} "
        f"timed_out={[rep.models is None for rep in reps]} "
        f"error_rate={failed / attempted:.4f} model_mse={model_mse:.6f}",
    ]
    result = Result(
        correct=sum(c.wrong for c in checked) == 0,
        attempted=attempted,
        failed=failed,
        notes=notes,
    )
    if not trace:
        result.metrics = {
            "setup_s": import_s + statistics.median(setup_times),
            "wall_s": wall,
            "peak_rss_mb": peak_rss_mb(),
        }
        return result

    untraced, traced_rep = reps
    cpu = traced_rep.cpu_s
    layers = dict(traced_rep.layers)
    layers.update(_span_layers(traced_rep.trace))
    layers.update(
        {
            "model_mse": model_mse,
            "error_rate": failed / attempted,
            "trace.wall_s": traced_rep.wall_s,
            "trace.untraced_wall_s": untraced.wall_s,
            "trace.overhead_s": traced_rep.wall_s - untraced.wall_s,
            "stream.shard.unfinished_cells": (
                checked[-1].failed if workload == "month_shards" else 0
            ),
            "core.kernels.assign_share": (
                layers.get("core.kernels.assign_s", 0.0) / cpu if cpu else 0.0
            ),
            "proc.cpu_s": cpu,
            "proc.parallel_efficiency": cpu / (traced_rep.wall_s * nproc()),
        }
    )
    if traced_rep.trace is None:
        layers["trace.uncovered_s"] = traced_rep.wall_s
    result.layers = layers
    return result


# -- serve_mixed -------------------------------------------------------------------


def _start_server(seed: int, work: Path):
    cells = inputs.serve_month(seed)
    run_dir = serving.build_journal(cells, seed, work)
    registry = ModelRegistry(run_dir, k=serving.K, seed=seed)
    server = ClusterServer(registry).start()
    return cells, registry, server


def run_serve(
    seed: int, seconds: float, trace: bool, work: Path, import_s: float
) -> Result:
    setup_times = []
    for index in range(SETUP_REPEATS):
        began = time.perf_counter()
        cells, registry, server = _start_server(seed, _fresh(work / f"serve{index}"))
        setup_times.append(time.perf_counter() - began)
        if index < SETUP_REPEATS - 1:
            server.close()
    rng = np.random.default_rng([seed, 11])

    def phase(name: str, rate: float, duration: float) -> tuple:
        return (name, rate, serving.make_requests(cells, rng, int(rate * duration)))

    tracer = Tracer()
    try:
        if trace:
            # At 200 requests/s a 20 s run already has 1,760 assigns and 220
            # ingests: more than ten samples beyond assign p99 and ingest p95.
            nominal = phase("nominal", serving.NOMINAL_RPS, 0.55 * seconds)
            ladder = [
                phase(f"rung{int(rate)}", rate, 0.15 * seconds)
                for rate in serving.LADDER_RPS
            ]
            runs = [serving.drive(server, [nominal] + ladder)]
            cpu_before = cpu_seconds()
            with traced(tracer):
                runs.append(serving.drive(server, [nominal]))
            cpu = cpu_seconds() - cpu_before
        else:
            nominal = phase("nominal", serving.NOMINAL_RPS, 0.9 * seconds)
            runs = [serving.drive(server, [nominal])]
        ingested = [chunk for r in runs for chunk in r.ingested]
        mse_values, bad_models = serving.model_mse(registry, cells, ingested)
    finally:
        server.close()

    attempted = sum(len(r.results["ok"]) for r in runs)
    failed = sum(int((~r.results["ok"]).sum()) for r in runs)
    wrong = sum(r.wrong for r in runs) + bad_models
    first = runs[0]
    late = first.results["sent"] - first.results["due"]
    late_p99 = _ms(late[first.results["phase"] == 0], 99)
    valid = late_p99 <= LATE_LIMIT_MS
    assign, _ = serving.latencies(first, 0, "assign")
    ingest, _ = serving.latencies(first, 0, "ingest")
    client = {
        "model_mse": float(np.mean(mse_values)),
        "error_rate": failed / attempted,
        "assign_p50_ms": _ms(assign, 50),
        "assign_p99_ms": _ms(assign, 99),
        "ingest_p50_ms": _ms(ingest, 50),
        "ingest_p95_ms": _ms(ingest, 95),
    }
    notes = [
        f"cells={len(cells.points)} points={cells.total_points} "
        f"setup_s={setup_times} late_p99_ms={late_p99:.3f} valid={valid} "
        f"error_rate={failed / attempted:.4f}",
        " ".join(f"{key}={value:.6f}" for key, value in client.items())
        + f" samples_assign={len(assign)} samples_ingest={len(ingest)}",
    ]
    result = Result(
        correct=wrong == 0, attempted=attempted, failed=failed, notes=notes
    )
    if not trace:
        result.metrics = {
            "setup_s": import_s + statistics.median(setup_times),
            # Set by the schedule unless the server falls behind it.
            "wall_s": serving.drain_seconds(first, 0),
            "peak_rss_mb": peak_rss_mb(),
        }
        return result

    rungs = [serving.rung_passes(first, index) for index in range(1, len(first.phases))]
    passing = [achieved for ok, achieved in rungs if ok]
    rates = [rate for _, rate, _ in first.phases[1:]]
    notes.append(f"ladder={[(r, ok, round(a, 1)) for r, (ok, a) in zip(rates, rungs)]}")

    traced_run = runs[1]
    mask = traced_run.results["phase"] == 0
    began = float(traced_run.results["due"][mask].min())
    ended = began + serving.drain_seconds(traced_run, 0)
    shares, uncovered = tracer.attribute(began, ended)
    totals = tracer.totals()
    layers = _span_layers(
        dict(totals, attributed=shares, uncovered_s=uncovered, wall_s=ended - began)
    )
    layers.update(client)
    endpoints = first.marks["nominal"]["endpoints"]
    server_assign = endpoints.get("assign", {})
    server_p50_ms = server_assign.get("p50_seconds", 0.0) * 1e3
    assign_batches = max(1, server_assign.get("batches", 0))
    kernel_s = totals["inclusive"].get("core.kernels", 0.0)
    layers.update(
        {
            "core.kernels.assign_calls": totals["calls"].get("core.kernels", 0),
            "core.kernels.assign_s": kernel_s,
            "core.kernels.assign_share": kernel_s / cpu if cpu else 0.0,
            "stream.checkpoint.bytes": registry.journal_path.stat().st_size,
            "serve.batching.assign_batch_mean": (
                server_assign.get("requests", 0) / assign_batches
            ),
            "serve.batching.batches": sum(e["batches"] for e in endpoints.values()),
            "serve.registry.ingest_partial_s": traced_run.ingest_partial_s,
            "serve.registry.ingest_fold_s": traced_run.ingest_fold_s,
            "serve.registry.warm_start_s": registry.recovery_seconds,
            "serve.server.assign_p50_ms": server_p50_ms,
            "serve.server.assign_p99_ms": server_assign.get("p99_seconds", 0.0) * 1e3,
            "serve.server.client_minus_server_p50_ms": _ms(assign, 50) - server_p50_ms,
            "loadgen.late_p99_ms": late_p99,
            "loadgen.sent": len(first.results["sent"]),
            "loadgen.outstanding_max": serving.outstanding_max(first),
            "proc.cpu_s": cpu,
            "proc.parallel_efficiency": cpu / (ended - began) / nproc(),
            "sustained_rps": passing[-1] if passing else rungs[0][1],
            "trace.untraced_wall_s": serving.drain_seconds(first, 0),
            "trace.overhead_s": (
                serving.drain_seconds(traced_run, 0) - serving.drain_seconds(first, 0)
            ),
        }
    )
    result.layers = layers
    return result
