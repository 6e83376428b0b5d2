"""Execution traces: JSON export and ASCII Gantt rendering.

Two consumers:

* engineers debugging a plan — dump an
  :class:`~repro.stream.metrics.ExecutionMetrics` to JSON and diff runs,
* the distributed simulator — render a
  :class:`~repro.stream.distributed.SimReport` schedule as a Gantt chart
  so placement and idle gaps are visible in a terminal.
"""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path

from repro.stream.distributed import SimReport
from repro.stream.metrics import ExecutionMetrics, ServingMetrics

__all__ = [
    "metrics_to_dict",
    "dump_metrics_json",
    "serving_to_dict",
    "dump_serving_json",
    "render_gantt",
]


def _record(record, **derived) -> dict:
    """Every dataclass field of ``record`` as a JSON-safe value.

    Built from :func:`dataclasses.fields`, so a counter added to a
    metrics record is exported without touching this module; ``derived``
    adds computed properties.
    """
    payload = {}
    for spec in fields(record):
        value = getattr(record, spec.name)
        if isinstance(value, (list, tuple)):
            value = list(value)
        elif isinstance(value, dict):
            value = dict(value)
        payload[spec.name] = value
    payload.update(derived)
    return payload


def metrics_to_dict(metrics: ExecutionMetrics) -> dict:
    """Convert execution metrics to a JSON-safe dictionary."""
    payload = {
        "wall_seconds": metrics.wall_seconds,
        "backend": metrics.backend,
        "workers": [_record(worker) for worker in metrics.workers],
        "shards": [_record(shard) for shard in metrics.shards],
        "recoveries": [_record(event) for event in metrics.recoveries],
        "operators": [
            _record(op, wall_seconds=op.wall_seconds, utilization=op.utilization)
            for op in metrics.operators
        ],
        "kernel_counters": metrics.kernel_counters,
        "tree_stats": metrics.tree_stats,
        "resilience": {
            "total_retries": metrics.total_retries,
            "total_restarts": metrics.total_restarts,
            "total_degraded": metrics.total_degraded,
            "lost_partitions": metrics.lost_partitions,
            "injected_faults": metrics.injected_faults,
            "quarantined_files": metrics.quarantined_files,
            "incomplete_cells": metrics.incomplete_cells,
            "total_reassignments": metrics.total_reassignments,
            "total_replayed_records": metrics.total_replayed_records,
        },
        "queues": {name: _record(stats) for name, stats in metrics.queues.items()},
        "stalls": [_record(stall) for stall in metrics.stalls],
    }
    if metrics.checkpoint is not None:
        payload["checkpoint"] = _record(metrics.checkpoint)
    return payload


def dump_metrics_json(metrics: ExecutionMetrics, path: str | Path) -> Path:
    """Write execution metrics as pretty-printed JSON."""
    target = Path(path)
    target.write_text(json.dumps(metrics_to_dict(metrics), indent=2))
    return target


def serving_to_dict(
    metrics: ServingMetrics, registry_stats: dict | None = None
) -> dict:
    """Convert serving metrics (plus optional registry counters) to JSON.

    The payload mirrors :func:`metrics_to_dict`'s role for batch runs:
    one diffable document per serving session, with per-endpoint
    latency percentiles, QPS and ingest update lag.
    """
    payload = metrics.snapshot()
    if registry_stats is not None:
        payload["registry"] = dict(registry_stats)
    return payload


def dump_serving_json(
    metrics: ServingMetrics,
    path: str | Path,
    registry_stats: dict | None = None,
) -> Path:
    """Write serving metrics as pretty-printed JSON."""
    target = Path(path)
    target.write_text(
        json.dumps(serving_to_dict(metrics, registry_stats), indent=2)
    )
    return target


_KIND_MARKS = {"partial": "#", "merge": "M", "transfer": "-", "broadcast": "B"}


def render_gantt(report: SimReport, width: int = 72) -> str:
    """ASCII Gantt chart of a simulated schedule.

    One row per machine; time flows left to right across ``width``
    columns.  Marks: ``#`` compute, ``M`` merge, ``-`` transfer,
    ``B`` broadcast; later events overwrite earlier ones per column.
    """
    if width < 10:
        raise ValueError(f"width must be >= 10, got {width}")
    if not report.events:
        return "(empty schedule)"
    span = max(report.makespan_seconds, 1e-9)
    machines = sorted({event.machine for event in report.events})
    rows = {machine: [" "] * width for machine in machines}

    for event in sorted(report.events, key=lambda e: e.start):
        row = rows[event.machine]
        start_col = int(event.start / span * (width - 1))
        end_col = max(start_col + 1, int(event.end / span * (width - 1)))
        mark = _KIND_MARKS.get(event.kind, "?")
        for col in range(start_col, min(end_col, width)):
            row[col] = mark

    name_width = max(len(machine) for machine in machines)
    lines = [
        f"Gantt — makespan {report.makespan_seconds:.3f}s "
        f"({report.network_bytes / 1e6:.1f} MB on the network)"
    ]
    for machine in machines:
        lines.append(f"{machine:>{name_width}} |{''.join(rows[machine])}|")
    lines.append(
        " " * name_width
        + "  0"
        + " " * (width - 8)
        + f"{report.makespan_seconds:.2f}s"
    )
    lines.append(
        " " * name_width + "  legend: # partial  M merge  - transfer  B broadcast"
    )
    return "\n".join(lines)
