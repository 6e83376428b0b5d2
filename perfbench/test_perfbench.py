"""Self-tests of the benchmark at tiny sizes.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import batch  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import LAYERS  # noqa: E402

from repro.stream import Query  # noqa: E402

HOST = {"calib_ms": 1.0, "calib_spread": 0.1}


@pytest.fixture(autouse=True)
def tiny(monkeypatch, tmp_path):
    """Shrink every workload and keep scratch files in ``tmp_path``."""
    table2, month = inputs.table2_cell, inputs.month
    monkeypatch.setattr(inputs, "table2_cell", lambda seed: table2(seed, 3_000))
    monkeypatch.setattr(inputs, "month", lambda seed: month(seed, 6, 300))
    monkeypatch.setattr(
        inputs, "serve_month", lambda seed: month(seed, 3, inputs.SERVE_MEDIAN)
    )
    monkeypatch.setattr(workloads, "SETUP_REPEATS", 1)
    monkeypatch.setattr("tempfile.tempdir", str(tmp_path))
    run._become_subreaper()


def _run(workload: str, trace: bool, tmp_path: Path) -> dict:
    work = tmp_path / workload
    work.mkdir()
    result = workloads.run(workload, 3, 2.0, trace, work, import_s=0.5)
    return run.result_line(result, trace, HOST)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(workload, trace, tmp_path):
    line = _run(workload, trace, tmp_path)
    expected = (
        {name: unit for name, unit, _ in run.PER_LAYER}
        if trace
        else {name: unit for name, unit, _, _ in run.END_TO_END}
    )
    assert {name: m["unit"] for name, m in line["metrics"].items()} == expected
    assert all(math.isfinite(m["value"]) for m in line["metrics"].values())
    assert line["correct"] is True
    assert line["attempted"] >= 1 and line["failed"] == 0
    if not trace:
        assert all(m["value"] > 0 for m in line["metrics"].values())


def test_threads_and_processes_return_identical_models(tmp_path):
    cells = inputs.month(5)
    buckets = cells.write_buckets(tmp_path / "buckets")

    def models(backend: str) -> dict:
        built = (
            Query.scan_buckets(str(buckets))
            .partition(batch.CHUNKS["month_buckets"])
            .cluster(k=batch.K, restarts=batch.RESTARTS)
            .merge()
            .with_seed(5)
            .with_backend(backend, workers=2)
        )
        return built.execute().models

    threads, processes = models("threads"), models("processes")
    assert sorted(threads) == sorted(processes) == sorted(cells.points)
    for key in threads:
        assert np.array_equal(threads[key].centroids, processes[key].centroids)
        assert np.array_equal(threads[key].weights, processes[key].weights)


@pytest.mark.parametrize("workload", ["table2_cell", "month_buckets", "serve_mixed"])
def test_traced_self_times_and_uncovered_add_up_to_wall(workload, tmp_path):
    metrics = _run(workload, True, tmp_path)["metrics"]
    attributed = sum(metrics[f"{layer}.self_s"]["value"] for layer in LAYERS)
    wall = metrics["trace.wall_s"]["value"]
    uncovered = metrics["trace.uncovered_s"]["value"]
    assert attributed + uncovered == pytest.approx(wall, rel=1e-6)
    assert attributed > 0


class Model:
    def __init__(self, centroids, weights):
        self.centroids, self.weights = centroids, weights


def _clustered(rng, n: int) -> np.ndarray:
    centres = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0], [10.0, 10.0]])
    return centres[np.arange(n) % 4] + rng.normal(scale=0.1, size=(n, 2))


def test_check_models_counts_missing_and_invalid_cells():
    rng = np.random.default_rng(0)
    cells = {"a": _clustered(rng, 48), "b": _clustered(rng, 32)}
    fallback = {key: batch.fallback_mse(points) for key, points in cells.items()}

    good = Model(cells["a"][:4], np.full(4, 12.0))
    bad = Model(np.full((4, 2), np.nan), np.full(4, 8.0))
    check = batch.check_models({"a": good, "b": bad}, cells, fallback, k=4)
    assert (check.failed, check.wrong) == (1, 1)
    check = batch.check_models(None, cells, fallback, k=4)
    assert (check.failed, check.wrong) == (2, 0)
    assert check.mse == [fallback["a"], fallback["b"]]


def test_check_models_fails_a_model_collapsed_onto_the_cell_mean():
    rng = np.random.default_rng(1)
    points = _clustered(rng, 48)
    fallback = {"a": batch.fallback_mse(points)}
    mean = np.repeat(points.mean(axis=0, keepdims=True), 4, axis=0)
    collapsed = Model(mean, np.full(4, 12.0))
    check = batch.check_models({"a": collapsed}, {"a": points}, fallback, k=4)
    assert (check.failed, check.wrong) == (1, 1)
    good = Model(points[:4], np.full(4, 12.0))
    assert batch.check_models({"a": good}, {"a": points}, fallback, k=4).failed == 0


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]
    ] == list(run.END_TO_END)
    per_layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert per_layer == list(run.PER_LAYER)
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])


ARGS = ["--workload", "table2_cell", "--seed", "1", "--seconds", "1"]


def test_refuses_to_run_when_a_default_changing_variable_is_set(tmp_path):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *ARGS],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
        env={"PATH": os.environ.get("PATH", ""), "REPRO_STREAM_BACKEND": "processes"},
    )
    assert done.returncode == 2
    assert done.stdout == "" and "REPRO_STREAM_BACKEND" in done.stderr


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(
        HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", *ARGS],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_stop_children_ends_the_resource_tracker_and_reaps_every_child(tmp_path):
    script = f"""
import os, subprocess, sys
sys.path.insert(0, {str(HERE)!r})
from multiprocessing import resource_tracker, shared_memory
import run

segment = shared_memory.SharedMemory(create=True, size=64)
segment.close()
segment.unlink()
assert resource_tracker._resource_tracker._pid is not None
subprocess.Popen([sys.executable, "-c", "import time; time.sleep(0.2)"])
run.stop_children()
try:
    os.waitpid(-1, 0)
except ChildProcessError:
    print("no children")
"""
    done = subprocess.run(
        [sys.executable, "-c", script],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "no children"
