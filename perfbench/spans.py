"""Spans around calls into each layer's public functions.

The traced run wraps the functions listed in :data:`LAYERS` from the
benchmark's side -- the program itself is not modified.  Each wrapped
call records a span on its thread.  Two views come out of the spans:

* per layer: calls, inclusive seconds (outermost call of that layer on a
  thread only, so recursion is not counted twice) and counts taken from
  each call's arguments and result;
* self seconds, an attribution of the traced window's wall time: at every
  instant each thread is charged to its innermost open span, and when
  several threads are inside spans the instant is shared equally between
  them.  The self seconds of all layers plus ``uncovered_s`` (no thread
  inside any span) add up to the window exactly.

Worker processes forked while the wrappers are installed add their calls,
inclusive seconds and counts through files (see :class:`Tracer`); only
the benchmark process's own threads are attributed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

def _file_counts(args, result, seconds) -> dict:
    return {"files": 1, "bytes": os.path.getsize(args[0])}


#: Layer name -> (module, attribute path, counter) of each wrapped public
#: function.  A counter maps ``(args, result, seconds)`` of one call to
#: counts that are summed per layer.  Bucket headers are not counted as
#: file reads: ``files``/``bytes`` are the files whose points were read.
LAYERS: dict[str, list[tuple]] = {
    "core.kernels": [
        ("repro.core.kernels", "DenseKernel.assign", None),
        ("repro.core.kernels", "HamerlyKernel.assign", None),
        ("repro.core.kernels", "ElkanKernel.assign", None),
        ("repro.core.kernels", "BlasKernel.assign", None),
        ("repro.core.quality", "assign_to_nearest", None),
    ],
    "core.kmeans": [
        ("repro.core.kmeans", "lloyd", lambda a, r, s: {"iterations": r.iterations}),
    ],
    "core.seeding": [
        ("repro.core.seeding", "random_seeds", None),
        ("repro.core.seeding", "distinct_random_seeds", None),
        ("repro.core.seeding", "largest_weight_seeds", None),
        ("repro.core.seeding", "kmeans_plus_plus_seeds", None),
        ("repro.core.seeding", "kmeans_parallel_seeds", None),
    ],
    "core.restarts": [
        (
            "repro.core.restarts",
            "best_of_restarts",
            lambda a, r, s: {
                "runs": len(r.iteration_counts),
                "abandoned": r.abandoned_runs,
            },
        ),
    ],
    "core.partial": [("repro.core.partial", "partial_kmeans", None)],
    "core.merge": [
        (
            "repro.core.merge",
            "merge_kmeans",
            lambda a, r, s: {"iterations": r.iterations},
        ),
    ],
    "data.gridio": [
        ("repro.data.gridio", "read_bucket_header", None),
        ("repro.data.gridio", "read_bucket_file", _file_counts),
        ("repro.data.gridio", "stream_bucket_points", _file_counts),
    ],
    "stream.checkpoint": [
        (
            "repro.stream.checkpoint",
            "JournalWriter.append",
            lambda a, r, s: {"appends": 1},
        ),
    ],
    "stream.mp": [
        ("repro.stream.mp", "start_worker", None),
        ("repro.stream.mp", "WorkerHandle.submit", None),
    ],
    "stream.shard": [("repro.stream.shard", "ShardCoordinator.run", None)],
    "serve.registry": [
        (
            "repro.serve.registry",
            "ModelRegistry.assign",
            lambda a, r, s: {"assign_s": s},
        ),
        ("repro.serve.registry", "ModelRegistry.ingest", None),
        ("repro.serve.registry", "ModelRegistry._warm_start", None),
    ],
}


class Tracer:
    """Per-thread span stacks and step timelines for one traced window.

    In a forked worker process the tracer starts from zero, keeps no
    timelines and writes its totals to ``flush_dir/<pid>.json`` every
    :data:`FLUSH_SECONDS` and when the worker exits, so the parent can
    add worker-side layer time with :meth:`merge_children`.
    """

    FLUSH_SECONDS = 0.25

    def __init__(self, flush_dir: str | None = None) -> None:
        self.flush_dir = flush_dir
        self._pid = os.getpid()
        self._child = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._last_flush = 0.0
        self._reset()

    def _reset(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.inclusive: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        #: thread ident -> [(time, innermost layer or None)], in time order.
        self.timelines: dict[int, list[tuple[float, str | None]]] = {}

    def _thread_state(self):
        if os.getpid() != self._pid:
            self._become_child()
        state = getattr(self._local, "state", None)
        if state is None:
            # Worker processes keep no timeline: only the parent attributes.
            timeline = None if self._child else []
            state = self._local.state = ([], timeline, defaultdict(int))
            if timeline is not None:
                with self._lock:
                    self.timelines[threading.get_ident()] = timeline
        return state

    def _become_child(self) -> None:
        # Forked: the copied totals belong to the parent.
        import multiprocessing.util

        self._pid = os.getpid()
        self._child = True
        self._lock = threading.Lock()
        self._local = threading.local()
        self._reset()
        if self.flush_dir is not None:
            multiprocessing.util.Finalize(None, self.flush, exitpriority=100)

    def enter(self, layer: str) -> tuple[str, float]:
        stack, timeline, depth = self._thread_state()
        frame = (layer, time.perf_counter())
        stack.append(frame)
        depth[layer] += 1
        if timeline is not None:
            timeline.append((frame[1], layer))
        return frame

    def exit(self, frame: tuple[str, float]) -> float:
        """Close ``frame``; returns its duration."""
        now = time.perf_counter()
        stack, timeline, depth = self._thread_state()
        stack.pop()
        layer, began = frame
        duration = now - began
        depth[layer] -= 1
        with self._lock:
            self.calls[layer] += 1
            if depth[layer] == 0:
                self.inclusive[layer] += duration
        if timeline is not None:
            timeline.append((now, stack[-1][0] if stack else None))
        if self._child and now - self._last_flush > self.FLUSH_SECONDS:
            self._last_flush = now
            self.flush()
        return duration

    def count(self, layer: str, counts: dict) -> None:
        with self._lock:
            for key, value in counts.items():
                self.counts[f"{layer}.{key}"] += value

    @contextmanager
    def span(self, layer: str):
        frame = self.enter(layer)
        try:
            yield
        finally:
            self.exit(frame)

    def totals(self) -> dict:
        with self._lock:
            return {
                "calls": dict(self.calls),
                "inclusive": dict(self.inclusive),
                "counts": dict(self.counts),
            }

    def flush(self) -> None:
        """Write this process's totals for the parent (child processes)."""
        if self.flush_dir is None:
            return
        target = os.path.join(self.flush_dir, f"{os.getpid()}.json")
        with open(target + ".tmp", "w", encoding="utf-8") as handle:
            json.dump(self.totals(), handle)
        os.replace(target + ".tmp", target)

    def merge_children(self) -> dict:
        """Totals of this process plus every flushed child process."""
        merged = self.totals()
        if self.flush_dir is None:
            return merged
        for name in sorted(os.listdir(self.flush_dir)):
            if not name.endswith(".json"):
                continue
            with open(os.path.join(self.flush_dir, name), encoding="utf-8") as handle:
                child = json.load(handle)
            for section, values in child.items():
                for key, value in values.items():
                    merged[section][key] = merged[section].get(key, 0) + value
        return merged

    def attribute(self, start: float, end: float) -> tuple[dict[str, float], float]:
        """Share ``[start, end]`` between layers; returns (per layer, uncovered)."""
        events: list[tuple[float, int, str | None]] = []
        with self._lock:
            timelines = {tid: list(tl) for tid, tl in self.timelines.items()}
        for tid, timeline in timelines.items():
            events.extend((t, tid, layer) for t, layer in timeline)
        events.sort(key=lambda event: event[0])
        current: dict[int, str | None] = {}
        shares: dict[str, float] = defaultdict(float)
        uncovered = 0.0
        previous = start
        for t, tid, layer in events + [(end, -1, None)]:
            t = min(max(t, start), end)
            span = t - previous
            if span > 0:
                active = [lay for lay in current.values() if lay is not None]
                if active:
                    for lay in active:
                        shares[lay] += span / len(active)
                else:
                    uncovered += span
            previous = t
            if tid != -1:
                current[tid] = layer
        return dict(shares), uncovered


def _resolve(module_name: str, path: str):
    module = importlib.import_module(module_name)
    owner, _, attribute = path.rpartition(".")
    holder = getattr(module, owner) if owner else module
    return holder, attribute, holder.__dict__[attribute]


def _wrapper(tracer: Tracer, layer: str, fn, counter):
    if inspect.isgeneratorfunction(fn):

        @functools.wraps(fn)
        def generator_wrapper(*args, **kwargs):
            if counter is not None:
                with tracer.span(layer):
                    tracer.count(layer, counter(args, None, 0.0))
            iterator = fn(*args, **kwargs)
            while True:
                with tracer.span(layer):
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                yield item

        return generator_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = tracer.enter(layer)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.exit(frame)
            raise
        seconds = tracer.exit(frame)
        if counter is not None:
            tracer.count(layer, counter(args, result, seconds))
        return result

    return wrapper


@contextmanager
def traced(tracer: Tracer):
    """Install a wrapper on every function in :data:`LAYERS`.

    Module-level functions are also replaced wherever another ``repro``
    module imported them by name, so ``from x import f`` call sites are
    traced too.  Everything is restored on exit.
    """
    # Import every package first: a module imported while the wrappers
    # are installed would keep a wrapper after they are removed.
    for package in ("repro.core", "repro.data", "repro.stream", "repro.serve"):
        importlib.import_module(package)
    restore: list[tuple[object, str, object]] = []
    try:
        for layer, targets in LAYERS.items():
            for module_name, path, counter in targets:
                holder, attribute, original = _resolve(module_name, path)
                wrapped = _wrapper(tracer, layer, original, counter)
                restore.append((holder, attribute, original))
                setattr(holder, attribute, wrapped)
                if holder is sys.modules[module_name]:
                    for name, module in list(sys.modules.items()):
                        if not name.startswith("repro") or module is holder:
                            continue
                        for key, value in list(vars(module).items()):
                            if value is original:
                                restore.append((module, key, original))
                                setattr(module, key, wrapped)
        yield tracer
    finally:
        for holder, attribute, original in reversed(restore):
            setattr(holder, attribute, original)
