"""Serving: the ``serve_mixed`` workload.

``serve_mixed`` warm-starts a :class:`ModelRegistry` (fsync on) from the
journal an 8-cell batch query wrote, puts a :class:`ClusterServer` with
default batching in front of it, and drives ``ClusterServer.submit`` from
an open-loop generator in a separate process (``loadgen.py``) over one
connection.  A bridge thread in this process turns messages into
``submit`` calls and replies when each future resolves.

Phases: a nominal phase at :data:`NOMINAL_RPS` (the latency metrics),
followed in a traced run by the rate ladder :data:`LADDER_RPS`
(``sustained_rps``).
"""

from __future__ import annotations

import functools
import multiprocessing
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import loadgen
from batch import QUALITY_SHARE, cell_mse, fallback_mse

from repro.serve import ClusterServer, ModelRegistry
from repro.stream import Query

K = 40
RESTARTS = 10
CHUNKS = 5

#: Request mix: ~80% reads (assign), ~10% writes (ingest), rest queries.
MIX = (("assign", 0.80), ("ingest", 0.10), ("summary", 0.05), ("window", 0.05))
#: Request shapes of ``repro.serve.loadgen.LoadGenerator``'s defaults (the
#: serving ledger and the CI serving smoke use them): 16 points per assign,
#: 64 per ingested chunk, each coordinate drawn from N(0, 1), and windows
#: over the last 2 chunks.
ASSIGN_POINTS = 16
INGEST_POINTS = 64
WINDOW_CHUNKS = 2

#: Well below saturation (the server answers about 1,000 requests/s on
#: two CPUs); the latency metrics are read from this phase.
NOMINAL_RPS = 200.0
#: The rate ladder for ``sustained_rps`` (see :func:`rung_passes`).  The
#: rungs are a factor of 4 apart: with a factor of 2, the 400 and 800
#: rungs passed or failed from run to run on a 2-CPU host.
LADDER_RPS = (100.0, 400.0, 1600.0)
LATENCY_LIMIT_S = 0.050
RUNG_WINDOWS = 4
BACKLOG_SHARE = 0.9


def build_journal(cells, seed: int, workdir: Path) -> Path:
    """Write bucket files and run the batch query that journals the month."""
    buckets = cells.write_buckets(workdir / "buckets")
    run_dir = workdir / "run"
    (
        Query.scan_buckets(str(buckets))
        .partition(CHUNKS)
        .cluster(k=K, restarts=RESTARTS)
        .merge()
        .with_seed(seed)
        .checkpoint(run_dir)
        .execute()
    )
    return run_dir


def make_requests(cells, rng: np.random.Generator, count: int) -> list[tuple]:
    """``count`` requests in the proportions of :data:`MIX` over the cells."""
    keys = sorted(cells.points)
    dim = next(iter(cells.points.values())).shape[1]
    # Exact shares, shuffled: every phase has its full tail sample counts.
    counts = [round(share * count) for _, share in MIX]
    counts[0] += count - sum(counts)
    ops = np.repeat([op for op, _ in MIX], counts)
    rng.shuffle(ops)
    requests = []
    for op in ops:
        cell = keys[int(rng.integers(len(keys)))]
        if op in ("assign", "ingest"):
            size = ASSIGN_POINTS if op == "assign" else INGEST_POINTS
            payload = {"points": rng.normal(size=(size, dim))}
        elif op == "window":
            payload = {"last_n": WINDOW_CHUNKS}
        else:
            payload = {}
        requests.append((str(op), cell, payload))
    return requests


def _valid(op: str, payload: dict, answer) -> bool:
    if op == "assign":
        n = payload["points"].shape[0]
        return answer.assignments.shape == (n,) and bool(
            np.isfinite(answer.sq_dists).all()
        )
    if op == "ingest":
        return answer.n_points == payload["points"].shape[0]
    return answer is not None


class Bridge:
    """Reads the generator's messages and submits them to the server."""

    def __init__(self, conn, server: ClusterServer) -> None:
        self.conn = conn
        self.server = server
        self.marks: dict[str, dict] = {}
        self.results: dict | None = None
        self.wrong = 0
        self.ingested: list[tuple[str, np.ndarray]] = []
        self.ingest_partial_s = 0.0
        self.ingest_fold_s = 0.0
        self._send_lock = threading.Lock()
        self._state_lock = threading.Lock()
        self.thread = threading.Thread(
            target=self._run, name="bench-bridge", daemon=True
        )

    def _send(self, message) -> None:
        with self._send_lock:
            self.conn.send(message)

    def _run(self) -> None:
        while True:
            message = self.conn.recv()
            kind = message[0]
            if kind == "req":
                _, rid, op, cell, payload = message
                future = self.server.submit(op, cell, **payload)
                future.add_done_callback(
                    functools.partial(self._done, rid, op, cell, payload)
                )
            elif kind == "mark":
                self.marks[message[1]] = self.server.metrics.snapshot()
            elif kind == "results":
                self.results = message[1]
            elif kind == "stop":
                self._send(("stop",))
                return

    def _done(self, rid, op, cell, payload, future) -> None:
        good = future.exception() is None
        if good:
            answer = future.result()
            if not _valid(op, payload, answer):
                good = False
                with self._state_lock:
                    self.wrong += 1
            elif op == "ingest":
                with self._state_lock:
                    self.ingested.append((cell, payload["points"]))
                    self.ingest_partial_s += answer.partial_seconds
                    self.ingest_fold_s += answer.fold_seconds
        self._send(("rep", rid, good))


@dataclass
class ServeRun:
    phases: list[tuple[str, float, list]]
    results: dict
    marks: dict
    wrong: int
    ingested: list
    ingest_partial_s: float
    ingest_fold_s: float


def drive(server: ClusterServer, phases: list[tuple[str, float, list]]) -> ServeRun:
    """Run ``phases`` from a generator process against ``server``."""
    ctx = multiprocessing.get_context("spawn")
    ours, theirs = ctx.Pipe(duplex=True)
    process = ctx.Process(target=loadgen.run, args=(theirs,), name="bench-loadgen")
    process.start()
    theirs.close()
    bridge = Bridge(ours, server)
    try:
        bridge.thread.start()
        ours.send(phases)
        sending = sum(len(requests) / rate for _, rate, requests in phases)
        budget = sending + len(phases) * (loadgen.DRAIN_SECONDS + 1) + 60
        bridge.thread.join(budget)
        if bridge.thread.is_alive():
            raise RuntimeError("load generator did not finish")
        process.join(30.0)
    finally:
        if process.is_alive():
            process.kill()
            process.join()
        ours.close()
    return ServeRun(
        phases=phases,
        results=bridge.results,
        marks=bridge.marks,
        wrong=bridge.wrong,
        ingested=bridge.ingested,
        ingest_partial_s=bridge.ingest_partial_s,
        ingest_fold_s=bridge.ingest_fold_s,
    )


# -- reading a run ----------------------------------------------------------------


def latencies(
    run: ServeRun, phase: int, op: str | None = None
) -> tuple[np.ndarray, int]:
    """Due-to-reply latencies of one phase (failed ones at the drain limit)."""
    r = run.results
    ops = np.array([o for _, _, reqs in run.phases for o, _, _ in reqs])
    mask = r["phase"] == phase
    if op is not None:
        mask &= ops == op
    latency = r["received"][mask] - r["due"][mask]
    failed = ~r["ok"][mask] | np.isnan(latency)
    latency = np.where(failed, loadgen.DRAIN_SECONDS, latency)
    return latency, int(failed.sum())


def rung_passes(run: ServeRun, phase: int) -> tuple[bool, float]:
    """Whether a ladder rung met the limit; and its answered requests/s.

    The rung passes when every request was answered, the backlog did not
    grow (answered requests/s, from the first request due to the last
    reply, stayed within :data:`BACKLOG_SHARE` of the offered rate) and
    the median over :data:`RUNG_WINDOWS` windows of the windows' assign
    p99 is under :data:`LATENCY_LIMIT_S`, so one host stall does not
    decide the rung.
    """
    r = run.results
    mask = r["phase"] == phase
    ops = np.array([o for _, _, reqs in run.phases for o, _, _ in reqs])[mask]
    every, failed = latencies(run, phase)
    windows = np.array_split(np.arange(len(every)), RUNG_WINDOWS)
    p99s = [np.percentile(every[w][ops[w] == "assign"], 99) for w in windows]
    achieved = np.isfinite(r["received"][mask]).sum() / drain_seconds(run, phase)
    ok = bool(
        failed == 0
        and achieved >= BACKLOG_SHARE * run.phases[phase][1]
        and np.median(p99s) <= LATENCY_LIMIT_S
    )
    return ok, float(achieved)


def drain_seconds(run: ServeRun, phase: int) -> float:
    """A phase from its first request due to its last reply."""
    r = run.results
    mask = r["phase"] == phase
    return float(np.nanmax(r["received"][mask]) - r["due"][mask].min())


def outstanding_max(run: ServeRun) -> int:
    r = run.results
    sent = r["sent"]
    received = np.where(np.isnan(r["received"]), np.inf, r["received"])
    times = np.concatenate([sent, received])
    steps = np.concatenate([np.ones_like(sent), -np.ones_like(received)])
    order = np.lexsort((steps, times))
    return int(np.cumsum(steps[order]).max())


def model_mse(registry: ModelRegistry, cells, ingested) -> tuple[list[float], int]:
    """Per-cell MSE of the served models over raw plus ingested points.

    Also checks each model as the batch workloads do (finite values,
    weights adding up to those points, MSE at most ``QUALITY_SHARE`` of
    the one-centroid MSE); returns the number of cells that fail.
    """
    extra: dict[str, list[np.ndarray]] = {}
    for cell, points in ingested:
        extra.setdefault(cell, []).append(points)
    values, bad = [], 0
    for cell, raw in sorted(cells.points.items()):
        points = np.vstack([raw] + extra.get(cell, []))
        model = registry.summary(cell).model
        weights = np.asarray(model.weights)
        mse = cell_mse(points, np.asarray(model.centroids))
        if not (
            np.isfinite(model.centroids).all()
            and abs(float(weights.sum()) - points.shape[0]) <= 1e-6 * points.shape[0]
            and mse <= QUALITY_SHARE * fallback_mse(points)
        ):
            bad += 1
        values.append(mse)
    return values, bad
