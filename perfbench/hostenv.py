"""Host facts recorded with every result, and the environment guard."""

from __future__ import annotations

import os
import platform
import resource
import statistics
import time

import numpy as np

#: Recorded (not refused): thread-pool sizes and the worker start method.
RECORDED_ENV = (
    "REPRO_MP_CONTEXT",
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
)


def nproc() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> str:
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older NumPy has no dict mode; record that we could not tell
        return "unknown"


def facts() -> dict:
    import scipy

    from repro.stream.mp import default_mp_context

    return {
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "mp_start_method": default_mp_context(),
        "env": {name: os.environ.get(name) for name in RECORDED_ENV},
    }


def calibrate(repeats: int = 5) -> list[float]:
    """Seconds per repeat of a fixed NumPy distance computation.

    Taken before and after the measured phase; the spread between the
    repeats shows how steady the host was during the run.
    """
    rng = np.random.default_rng(0)
    points = rng.normal(size=(4_000, 6))
    centroids = rng.normal(size=(40, 6))
    seconds = []
    for _ in range(repeats + 1):
        began = time.perf_counter()
        for _ in range(10):
            d = (
                (points * points).sum(1)[:, None]
                - 2.0 * points @ centroids.T
                + (centroids * centroids).sum(1)[None, :]
            )
            d.argmin(axis=1)
        seconds.append(time.perf_counter() - began)
    return seconds[1:]  # the first repeat warms caches


def steadiness(before: list[float], after: list[float]) -> dict:
    both = before + after
    median = statistics.median(both)
    return {
        "calib_ms": median * 1e3,
        "calib_spread": (max(both) - min(both)) / median,
        "calib_drift": statistics.median(after) / statistics.median(before) - 1.0,
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def cpu_seconds() -> float:
    """User + system CPU of this process and its waited-for children."""
    times = os.times()
    return times.user + times.system + times.children_user + times.children_system
