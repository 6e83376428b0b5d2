"""End-to-end benchmark of partial/merge k-means.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload table2_cell --seed 1 --seconds 20 --trace 0

Workloads: ``table2_cell``, ``month_buckets``, ``month_shards`` and
``serve_mixed`` (see ``perfbench/README.md``).  With ``--trace 0`` the
last line of standard output is a JSON object with the end-to-end
metrics; with ``--trace 1`` it carries the per-layer metrics of a traced
run instead.  Earlier lines describe the host and the run.

The program under test is imported from ``src/`` next to this directory;
without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("table2_cell", "month_buckets", "month_shards", "serve_mixed")

#: Each of these silently changes the default kernel or backend, so a
#: result measured under one would not be comparable; refuse to run.
FORBIDDEN_ENV = ("REPRO_KMEANS_KERNEL", "REPRO_KMEANS_EXACT", "REPRO_STREAM_BACKEND")

#: (name, unit, better, bound) -- mirrored by BENCHMARK.json.  Only
#: metrics that every workload reports and whose seed-to-seed spread on a
#: 2-CPU host stays inside the bound are gated; model quality, error rate
#: and the serving latencies and rate are per-layer metrics (README.md).
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.25),
)

#: (name, unit, better) of every per-layer metric of a traced run.
PER_LAYER = (
    ("model_mse", "dist2", "lower"),
    ("error_rate", "ratio", "lower"),
    ("assign_p50_ms", "ms", "lower"),
    ("assign_p99_ms", "ms", "lower"),
    ("ingest_p50_ms", "ms", "lower"),
    ("ingest_p95_ms", "ms", "lower"),
    ("sustained_rps", "1/s", "higher"),
    ("core.kernels.assign_calls", "count", "lower"),
    ("core.kernels.assign_s", "s", "lower"),
    ("core.kernels.dist_evals", "count", "lower"),
    ("core.kernels.dist_evals_skipped", "count", "higher"),
    ("core.kernels.skip_ratio", "ratio", "higher"),
    ("core.kernels.assign_share", "ratio", "lower"),
    ("core.kernels.self_s", "s", "lower"),
    ("core.kmeans.iterations", "count", "lower"),
    ("core.kmeans.self_s", "s", "lower"),
    ("core.seeding.calls", "count", "lower"),
    ("core.seeding.s", "s", "lower"),
    ("core.seeding.self_s", "s", "lower"),
    ("core.restarts.calls", "count", "lower"),
    ("core.restarts.s", "s", "lower"),
    ("core.restarts.runs", "count", "lower"),
    ("core.restarts.abandoned", "count", "higher"),
    ("core.restarts.self_s", "s", "lower"),
    ("core.partial.calls", "count", "lower"),
    ("core.partial.s", "s", "lower"),
    ("core.partial.self_s", "s", "lower"),
    ("core.merge.calls", "count", "lower"),
    ("core.merge.s", "s", "lower"),
    ("core.merge.iterations", "count", "lower"),
    ("core.merge.self_s", "s", "lower"),
    ("data.gridio.files", "count", "lower"),
    ("data.gridio.bytes", "B", "lower"),
    ("data.gridio.scan_busy_s", "s", "lower"),
    ("data.gridio.self_s", "s", "lower"),
    ("stream.queues.partial_in.producer_block_s", "s", "lower"),
    ("stream.queues.merge_in.consumer_block_s", "s", "lower"),
    ("stream.queues.high_water", "count", "lower"),
    ("stream.executor.partial.busy_share", "ratio", "higher"),
    ("stream.executor.merge.busy_share", "ratio", "lower"),
    ("stream.mp.spawn_s", "s", "lower"),
    ("stream.mp.worker_busy_s", "s", "lower"),
    ("stream.mp.transport_s", "s", "lower"),
    ("stream.mp.shm_mb", "MB", "lower"),
    ("stream.mp.self_s", "s", "lower"),
    ("stream.checkpoint.appends", "count", "lower"),
    ("stream.checkpoint.append_s", "s", "lower"),
    ("stream.checkpoint.bytes", "B", "lower"),
    ("stream.checkpoint.self_s", "s", "lower"),
    ("stream.shard.cells_completed", "count", "higher"),
    ("stream.shard.unfinished_cells", "count", "lower"),
    ("stream.shard.worker_cell_skew", "ratio", "lower"),
    ("stream.shard.heartbeats", "count", "lower"),
    ("stream.shard.self_s", "s", "lower"),
    ("serve.batching.assign_batch_mean", "count", "higher"),
    ("serve.batching.batches", "count", "lower"),
    ("serve.registry.assign_s", "s", "lower"),
    ("serve.registry.ingest_partial_s", "s", "lower"),
    ("serve.registry.ingest_fold_s", "s", "lower"),
    ("serve.registry.warm_start_s", "s", "lower"),
    ("serve.registry.self_s", "s", "lower"),
    ("serve.server.assign_p50_ms", "ms", "lower"),
    ("serve.server.assign_p99_ms", "ms", "lower"),
    ("serve.server.client_minus_server_p50_ms", "ms", "lower"),
    ("loadgen.late_p99_ms", "ms", "lower"),
    ("loadgen.sent", "count", "lower"),
    ("loadgen.outstanding_max", "count", "lower"),
    ("proc.cpu_s", "s", "lower"),
    ("proc.parallel_efficiency", "ratio", "higher"),
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.uncovered_s", "s", "lower"),
    ("host.calib_ms", "ms", "lower"),
    ("host.calib_spread", "ratio", "lower"),
)


def _become_subreaper() -> None:
    """Adopt orphaned descendants (the shard workers of a stopped run)."""
    PR_SET_CHILD_SUBREAPER = 36
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")


#: Seconds to wait, at the end of a run, for every child process to end.
REAP_SECONDS = 30.0


def stop_children() -> None:
    """Stop every process this run started and wait until each has ended.

    Shared memory and the ``spawn`` start method start multiprocessing's
    resource tracker, which otherwise outlives this process until it reads
    end-of-file on its pipe: close the pipe and reap it.  Then reap every
    other child, orphaned descendants adopted as a subreaper included.
    Raises ``RuntimeError`` if a child is still running after
    :data:`REAP_SECONDS`.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()
    deadline = time.monotonic() + REAP_SECONDS
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            if time.monotonic() > deadline:
                raise RuntimeError("a child process is still running")
            time.sleep(0.01)


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


#: Imports of the program and the benchmark's modules, timed in fresh
#: interpreters for ``setup_s`` (one import is a noisy sample).
IMPORTS = "import repro.serve, repro.stream, batch, serving"
IMPORT_REPEATS = 5


def _import_program() -> float:
    """Import the program; returns the median seconds of a cold import.

    Nothing that imports NumPy may run before this, so this process's own
    import is cold too and counts as the first sample.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise ImportError(f"no program sources under {src}")
    sys.path.insert(0, str(src))
    began = time.perf_counter()
    import repro.serve  # noqa: F401
    import repro.stream  # noqa: F401

    import batch  # noqa: F401
    import serving  # noqa: F401

    samples = [time.perf_counter() - began]
    timed = (
        f"import sys, time; sys.path[:0] = [{str(src)!r}, {str(HERE)!r}]; "
        f"began = time.perf_counter(); {IMPORTS}; "
        "print(time.perf_counter() - began)"
    )
    for _ in range(IMPORT_REPEATS - 1):
        done = subprocess.run(
            [sys.executable, "-c", timed], capture_output=True, text=True, check=True
        )
        samples.append(float(done.stdout))
    return statistics.median(samples)


def result_line(result, trace: bool, host: dict) -> dict:
    """The last output line: every end-to-end (or per-layer) metric."""
    if trace:
        values = dict(result.layers)
        values["host.calib_ms"] = host["calib_ms"]
        values["host.calib_spread"] = host["calib_spread"]
        table = [(name, unit) for name, unit, _ in PER_LAYER]
    else:
        values = result.metrics
        table = [(name, unit) for name, unit, _, _ in END_TO_END]
    return {
        "correct": bool(result.correct),
        "attempted": int(result.attempted),
        "failed": int(result.failed),
        "metrics": {
            name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in table
        },
    }


def main(argv: list[str]) -> int:
    args = _parse(argv)
    forbidden = [
        f"{name}={os.environ[name]}" for name in FORBIDDEN_ENV if name in os.environ
    ]
    if forbidden:
        print(
            "refusing to run: these variables change the default kernel or "
            f"backend: {', '.join(forbidden)}",
            file=sys.stderr,
        )
        return 2
    try:
        import_s = _import_program()
    except ImportError as error:
        print(f"cannot import the program: {error}", file=sys.stderr)
        return 2
    _become_subreaper()

    import workloads
    from hostenv import calibrate, facts, steadiness

    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    os.environ["TMPDIR"] = str(work)
    tempfile.tempdir = str(work)
    try:
        before = calibrate()
        result = workloads.run(
            args.workload, args.seed, args.seconds, bool(args.trace), work, import_s
        )
        host = steadiness(before, calibrate())
    finally:
        stop_children()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass

    header = {"host": facts(), "steadiness": host}
    print(json.dumps(dict(header, workload=args.workload, seed=args.seed)))
    for line in result.notes:
        print(line)
    print(json.dumps(result_line(result, bool(args.trace), host)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
