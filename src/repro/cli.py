"""Command-line interface: regenerate experiments from a terminal.

Subcommands:

* ``table2``  — run the grid and print the paper's Table 2.
* ``figures`` — run the grid and print Figures 6, 7 and 8 as ASCII charts.
* ``speedup`` — run the partial-clone speed-up experiment.
* ``convergence`` — measure iterations-to-converge vs N (Section 3.2).
* ``generate`` — write synthetic grid-bucket files to a directory.
* ``swath`` — simulate a satellite, write granules, bin into buckets.
* ``cluster`` — cluster one grid-bucket file with serial and
  partial/merge k-means and compare.
* ``compress`` — cluster + compress every bucket in a directory into
  ``.mvh`` histograms and report fidelity.
* ``serve`` — keep a run's models hot in memory and answer
  assign/summary/prefix/window queries over a newline-JSON protocol on
  stdin/stdout, or drive the built-in load generator.

Example::

    repro-kmeans table2 --config quick
    repro-kmeans generate --out /tmp/buckets --cells 4 --points 5000
    repro-kmeans cluster /tmp/buckets/lat10lon20.gbk --k 20 --chunks 5
    repro-kmeans compress /tmp/buckets --out /tmp/mvh --k 20
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.baselines.serial import SerialKMeans
from repro.core.kernels import available_kernels
from repro.core.pipeline import PartialMergeKMeans
from repro.core.quality import mse as evaluate_mse
from repro.data.generator import generate_cell_points
from repro.data.gridcell import GridCell, GridCellId
from repro.data.gridio import read_bucket_file, write_bucket_dir
from repro.experiments.configs import paper_config, quick_config, smoke_config
from repro.experiments.figures import figure6, figure7, figure8, render_figure
from repro.experiments.harness import run_grid
from repro.experiments.speedup import render_speedup, run_speedup_experiment
from repro.experiments.tables import render_table2

__all__ = ["main"]

_CONFIGS = {
    "paper": paper_config,
    "quick": quick_config,
    "smoke": smoke_config,
}


def _add_config_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--config",
        choices=sorted(_CONFIGS),
        default="quick",
        help="experiment grid to run (default: quick)",
    )


def _cmd_table2(args: argparse.Namespace) -> int:
    results = run_grid(
        _CONFIGS[args.config](),
        max_workers=args.workers,
        progress=lambda line: print(f"  {line}", file=sys.stderr),
    )
    print(render_table2(results))
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    results = run_grid(
        _CONFIGS[args.config](),
        max_workers=args.workers,
        progress=lambda line: print(f"  {line}", file=sys.stderr),
    )
    for figure in (figure6(results), figure7(results), figure8(results)):
        print(render_figure(figure))
        print()
    return 0


def _cmd_speedup(args: argparse.Namespace) -> int:
    points = run_speedup_experiment(
        n_points=args.points,
        k=args.k,
        n_chunks=args.chunks,
        clone_counts=tuple(args.clones),
        backend=args.backend,
    )
    print(render_speedup(points))
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    cells = []
    for index in range(args.cells):
        cell_id = GridCellId(
            lat=int(rng.integers(-60, 60)), lon=int(rng.integers(-180, 180))
        )
        points = generate_cell_points(args.points, seed=args.seed + index)
        cells.append(GridCell(cell_id=cell_id, points=points))
    paths = write_bucket_dir(args.out, cells)
    for path in paths:
        print(path)
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    if args.checkpoint_dir:
        # Checkpointed clustering routes through the stream engine, which
        # owns the run journal; the plain path below stays in-core.
        from repro.stream.query import Query

        result = (
            Query.scan_buckets(args.bucket)
            .partition(args.chunks)
            .cluster(k=args.k, restarts=args.restarts)
            .merge()
            .with_kernel(args.kernel, exact=False if args.no_exact else None)
            .with_seed(args.seed)
            .checkpoint(args.checkpoint_dir, resume=args.resume)
            .execute()
        )
        for cell_key, model in sorted(result.models.items()):
            print(
                f"{cell_key}: partial/merge mse={model.mse:12.2f} "
                f"t={model.total_seconds:.3f}s"
            )
        checkpoint = result.execution.metrics.checkpoint
        if checkpoint is not None:
            print(
                f"journal: {checkpoint.journal_path} "
                f"(replayed={checkpoint.partitions_replayed} "
                f"recomputed={checkpoint.partitions_recomputed})"
            )
        return 0

    cell = read_bucket_file(args.bucket)
    print(f"cell {cell.cell_id.key}: {cell.n_points} points, dim {cell.dim}")

    serial = SerialKMeans(
        args.k,
        restarts=args.restarts,
        kernel=args.kernel,
        exact=False if args.no_exact else None,
        seed=args.seed,
    ).fit(cell.points)
    serial_mse = evaluate_mse(cell.points, serial.centroids)
    print(f"serial        mse={serial_mse:12.2f}  t={serial.total_seconds:.3f}s")

    report = PartialMergeKMeans(
        k=args.k,
        restarts=args.restarts,
        n_chunks=args.chunks,
        kernel=args.kernel,
        exact=False if args.no_exact else None,
        seed=args.seed,
    ).fit(cell.points)
    model = report.model
    print(
        f"partial/merge mse={model.mse:12.2f}  t={model.total_seconds:.3f}s "
        f"(partial {model.partial_seconds:.3f}s + merge {model.merge_seconds:.3f}s)"
    )
    return 0


def _cmd_ksens(args: argparse.Namespace) -> int:
    from repro.experiments.sensitivity import (
        render_k_sensitivity,
        run_k_sensitivity,
    )

    points = run_k_sensitivity(
        ks=tuple(args.ks),
        n_points=args.points,
        restarts=args.restarts,
        n_chunks=args.chunks,
    )
    print(render_k_sensitivity(points))
    return 0


def _cmd_noise(args: argparse.Namespace) -> int:
    from repro.experiments.noise_study import (
        render_noise_study,
        run_noise_study,
    )

    points = run_noise_study(
        epsilons=tuple(args.epsilons),
        n_points=args.points,
        k=args.k,
        restarts=args.restarts,
    )
    print(render_noise_study(points))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import generate_report

    generate_report(
        _CONFIGS[args.config](),
        args.out,
        include_speedup=not args.no_speedup,
        include_convergence=not args.no_convergence,
        progress=lambda line: print(f"  {line}", file=sys.stderr),
    )
    print(args.out)
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.stream.query import Query
    from repro.stream.scheduler import ResourceManager

    query = Query.scan_buckets(args.buckets)
    if args.memory_budget:
        query = query.partition_by_memory().with_resources(
            ResourceManager(memory_budget_bytes=args.memory_budget)
        )
    else:
        query = query.partition(args.chunks)
    query = query.cluster(k=args.k, restarts=args.restarts).merge()
    if args.kernel != "dense" or args.no_exact:
        query = query.with_kernel(
            args.kernel, exact=False if args.no_exact else None
        )
    if args.clones:
        query = query.with_partial_clones(args.clones)
    if args.shards:
        query = query.with_shards(args.shards)
    elif args.backend != "threads" or args.workers:
        query = query.with_backend(
            args.backend, workers=args.workers or None
        )
    if args.seed is not None:
        query = query.with_seed(args.seed)
    if args.on_corrupt != "fail":
        query = query.on_corrupt(args.on_corrupt)
    if args.stall_timeout:
        query = query.with_watchdog(args.stall_timeout)
    if args.checkpoint_dir:
        query = query.checkpoint(args.checkpoint_dir, resume=args.resume)
    if args.prefix_query_every:
        query = query.with_prefix_queries(
            every=args.prefix_query_every, window=args.window or None
        )

    query.explain()
    if args.explain_only:
        return 0
    result = query.execute()
    print()
    for cell_key, model in sorted(result.models.items()):
        print(
            f"{cell_key}: k={model.k} partitions={model.partitions} "
            f"mass={model.weights.sum():.0f} t={model.total_seconds:.3f}s"
        )
    if result.prefix_queries:
        print()
        for pq in result.prefix_queries:
            span = (
                f"last {pq.partitions}"
                if pq.start
                else f"first {pq.partitions}"
            )
            print(
                f"prefix[{pq.cell_id}@{pq.upto}]: {span} chunk(s) "
                f"k={pq.model.k} mass={pq.model.total_weight:.0f} "
                f"nodes={pq.nodes_reused} "
                f"t={pq.seconds * 1e3:.2f}ms"
                + (" (cached)" if pq.cached else "")
            )
    print()
    print("\n".join(result.execution.metrics.summary_lines()))
    if args.trace_json:
        from repro.stream.tracing import dump_metrics_json

        print(f"trace: {dump_metrics_json(result.execution.metrics, args.trace_json)}")
    return 0


def _cmd_convergence(args: argparse.Namespace) -> int:
    from repro.experiments.convergence_study import (
        render_convergence_study,
        run_convergence_study,
    )

    study = run_convergence_study(
        sizes=tuple(args.sizes),
        k=args.k,
        restarts=args.restarts,
        n_chunks=args.chunks,
    )
    print(render_convergence_study(study, k=args.k, restarts=args.restarts))
    return 0


def _cmd_swath(args: argparse.Namespace) -> int:
    from repro.data.gridio import write_bucket_dir
    from repro.data.swath import SwathSimulator
    from repro.data.swathio import bin_granules_into_buckets, write_granules

    simulator = SwathSimulator(
        footprints_per_orbit=args.footprints,
        samples_per_footprint=args.samples,
        seed=args.seed,
    )
    granules = write_granules(
        args.granules, simulator.fly(args.orbits), stripes_per_granule=2
    )
    print(f"wrote {len(granules)} granules under {args.granules}")

    buckets = bin_granules_into_buckets(args.granules)
    rng = np.random.default_rng(args.seed)
    populated = [
        bucket.freeze(rng)
        for bucket in buckets.values()
        if bucket.n_points >= args.min_points
    ]
    paths = write_bucket_dir(args.buckets, populated)
    print(
        f"binned {len(buckets)} cells; wrote {len(paths)} buckets with "
        f">= {args.min_points} points under {args.buckets}"
    )
    return 0


def _cmd_compress(args: argparse.Namespace) -> int:
    from repro.compression.global_summary import GlobalSummary
    from repro.compression.histogram import MultivariateHistogram
    from repro.compression.serialization import write_summary_dir
    from repro.data.gridio import scan_bucket_dir

    summary: GlobalSummary | None = None
    for cell in scan_bucket_dir(args.buckets):
        if summary is None:
            summary = GlobalSummary(dim=cell.dim)
        report = PartialMergeKMeans(
            k=args.k,
            restarts=args.restarts,
            n_chunks=args.chunks,
            seed=args.seed,
        ).fit(cell.points)
        histogram = MultivariateHistogram.from_model(
            cell.points, report.model
        )
        summary.add_cell(cell.cell_id, histogram)
        print(
            f"{cell.cell_id.key}: {cell.n_points} pts -> "
            f"{len(histogram.buckets)} buckets, mse={report.model.mse:.2f}"
        )
    if summary is None:
        print(f"no buckets found under {args.buckets}", file=sys.stderr)
        return 1
    write_summary_dir(args.out, summary)
    print(
        f"\nsummary: {len(summary)} cells, "
        f"{summary.total_count():.0f} points, "
        f"compression ratio {summary.compression_ratio():.1f}x -> {args.out}"
    )
    return 0


def _serve_payload(result) -> object:
    """JSON-safe payload for one protocol response."""
    if hasattr(result, "to_payload"):
        return result.to_payload()
    # PrefixQuery (prefix/window answers) has no to_payload; flatten the
    # deterministic clustering plus the cache diagnostics.
    if hasattr(result, "model") and hasattr(result, "nodes_reused"):
        return {
            "cell": result.cell_id,
            "start": result.start,
            "upto": result.upto,
            "k": result.model.k,
            "centroids": result.model.centroids.tolist(),
            "weights": result.model.weights.tolist(),
            "nodes_reused": result.nodes_reused,
            "cached": result.cached,
            "seconds": result.seconds,
        }
    return result


def _cmd_serve(args: argparse.Namespace) -> int:
    import json

    from repro.serve import ClusterServer, LoadGenerator, ModelRegistry

    registry = ModelRegistry(
        args.run_dir,
        k=args.k,
        seed=args.seed,
        restarts=args.restarts,
        kernel=None if args.kernel == "dense" else args.kernel,
        exact=False if args.no_exact else None,
        ttl_seconds=args.ttl or None,
        fsync=not args.no_fsync,
    )
    stats = registry.stats()
    print(
        f"warm start: {stats['resident_cells']} cell(s), "
        f"{stats['partitions']} partition(s) "
        f"(adopted={stats['cells_adopted']} "
        f"replayed={stats['partitions_replayed']} "
        f"nodes={stats['nodes_preloaded']}) "
        f"in {stats['recovery_seconds']:.3f}s",
        file=sys.stderr,
    )
    with ClusterServer(
        registry,
        max_batch=args.max_batch,
        max_delay_seconds=args.batch_delay,
        query_workers=args.query_workers,
    ) as server:
        if args.load_duration:
            cells = server.cells()
            if not cells:
                print("error: journal has no cells to serve", file=sys.stderr)
                return 2
            generator = LoadGenerator(
                server, cells, seed=args.load_seed
            )
            report = generator.run(
                args.load_duration, concurrency=args.load_concurrency
            )
            print("\n".join(report.summary_lines()))
            if args.bench_json:
                payload = server.metrics.snapshot()
                payload["registry"] = registry.stats()
                payload["load"] = report.to_payload()
                from pathlib import Path

                Path(args.bench_json).write_text(
                    json.dumps(payload, indent=2)
                )
                print(f"bench: {args.bench_json}")
            return 0

        # Protocol mode: one JSON request per stdin line, one JSON
        # response per stdout line.  JSON floats round-trip float64
        # exactly, so responses preserve model bits — the warm-restart
        # test compares them byte for byte across a SIGKILL.
        print(json.dumps({"ready": True, "cells": server.cells()}), flush=True)
        for line in sys.stdin:
            line = line.strip()
            if not line:
                continue
            request = json.loads(line)
            if request.get("op") == "shutdown":
                print(json.dumps({"ok": True, "bye": True}), flush=True)
                break
            req_id = request.pop("id", None)
            op = request.pop("op", None)
            cell = request.pop("cell", None)
            try:
                result = server.submit(op, cell, **request).result()
                response = {
                    "id": req_id,
                    "ok": True,
                    "result": _serve_payload(result),
                }
            except Exception as exc:
                response = {"id": req_id, "ok": False, "error": str(exc)}
            print(json.dumps(response), flush=True)
        print(
            "\n".join(server.metrics.summary_lines()), file=sys.stderr
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-kmeans",
        description="Partial/merge k-means reproduction toolkit (ICDE 2004)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table2", help="regenerate the paper's Table 2")
    _add_config_argument(p_table)
    p_table.add_argument("--workers", type=int, default=1)
    p_table.set_defaults(fn=_cmd_table2)

    p_figures = sub.add_parser("figures", help="regenerate Figures 6-8")
    _add_config_argument(p_figures)
    p_figures.add_argument("--workers", type=int, default=1)
    p_figures.set_defaults(fn=_cmd_figures)

    p_speedup = sub.add_parser("speedup", help="partial-clone speed-up test")
    p_speedup.add_argument("--points", type=int, default=20_000)
    p_speedup.add_argument("--k", type=int, default=40)
    p_speedup.add_argument("--chunks", type=int, default=10)
    p_speedup.add_argument("--clones", type=int, nargs="+", default=[1, 2, 4])
    p_speedup.add_argument(
        "--backend",
        choices=["threads", "processes"],
        default=None,
        help="clone execution backend (default: engine default)",
    )
    p_speedup.set_defaults(fn=_cmd_speedup)

    p_generate = sub.add_parser("generate", help="write synthetic bucket files")
    p_generate.add_argument("--out", required=True)
    p_generate.add_argument("--cells", type=int, default=4)
    p_generate.add_argument("--points", type=int, default=5_000)
    p_generate.add_argument("--seed", type=int, default=0)
    p_generate.set_defaults(fn=_cmd_generate)

    p_ksens = sub.add_parser(
        "ksens", help="k-sensitivity sweep (serial vs partial/merge)"
    )
    p_ksens.add_argument("--ks", type=int, nargs="+", default=[10, 20, 40, 80])
    p_ksens.add_argument("--points", type=int, default=10_000)
    p_ksens.add_argument("--restarts", type=int, default=3)
    p_ksens.add_argument("--chunks", type=int, default=10)
    p_ksens.set_defaults(fn=_cmd_ksens)

    p_noise = sub.add_parser(
        "noise", help="contamination robustness study"
    )
    p_noise.add_argument(
        "--epsilons", type=float, nargs="+", default=[0.0, 0.01, 0.05]
    )
    p_noise.add_argument("--points", type=int, default=8_000)
    p_noise.add_argument("--k", type=int, default=40)
    p_noise.add_argument("--restarts", type=int, default=3)
    p_noise.set_defaults(fn=_cmd_noise)

    p_report = sub.add_parser(
        "report", help="regenerate the full evaluation as one markdown file"
    )
    _add_config_argument(p_report)
    p_report.add_argument("--out", default="REPORT.md")
    p_report.add_argument("--no-speedup", action="store_true")
    p_report.add_argument("--no-convergence", action="store_true")
    p_report.set_defaults(fn=_cmd_report)

    p_query = sub.add_parser(
        "query", help="run a clustering query over bucket files"
    )
    p_query.add_argument("buckets")
    p_query.add_argument("--k", type=int, default=40)
    p_query.add_argument("--chunks", type=int, default=5)
    p_query.add_argument(
        "--memory-budget",
        type=int,
        default=0,
        help="derive chunking from this many bytes instead of --chunks",
    )
    p_query.add_argument("--restarts", type=int, default=10)
    p_query.add_argument("--clones", type=int, default=0)
    p_query.add_argument(
        "--backend",
        choices=["threads", "processes"],
        default="threads",
        help="run partial-k-means clones on threads (default) or in "
        "worker processes fed over shared memory",
    )
    p_query.add_argument(
        "--workers",
        type=int,
        default=0,
        help="worker processes for --backend processes (0 lets the "
        "planner decide; equivalent to --clones)",
    )
    p_query.add_argument(
        "--shards",
        type=int,
        default=0,
        help="run on the fault-tolerant shard-per-cell runtime with this "
        "many worker processes (overrides --backend/--workers; cells are "
        "partitioned across workers, worker loss is survived with "
        "bit-identical recovery)",
    )
    p_query.add_argument("--seed", type=int, default=None)
    p_query.add_argument(
        "--kernel",
        choices=available_kernels(),
        default="dense",
        help="Lloyd assignment kernel for all k-means stages; exact "
        "kernels (dense/hamerly/elkan) are bit-identical, so they only "
        "change speed (counters in the metrics show what they saved); "
        "'blas' is the float32 GEMM tier and requires --no-exact",
    )
    p_query.add_argument(
        "--no-exact",
        action="store_true",
        help="waive the bit-identity contract: admit the 'blas' kernel, "
        "whose results are only MSE-tolerance-close to the reference",
    )
    p_query.add_argument(
        "--trace-json",
        default=None,
        help="write the execution metrics (incl. kernel counters) as "
        "JSON to this path",
    )
    p_query.add_argument("--explain-only", action="store_true")
    p_query.add_argument(
        "--checkpoint-dir",
        default=None,
        help="journal the run into this directory (crash-resumable)",
    )
    p_query.add_argument(
        "--resume",
        action="store_true",
        help="resume the journal in --checkpoint-dir instead of refusing it",
    )
    p_query.add_argument(
        "--on-corrupt",
        choices=["fail", "quarantine"],
        default="fail",
        help="corrupted-bucket policy: abort the run or move the file "
        "into quarantine/ and keep scanning",
    )
    p_query.add_argument(
        "--stall-timeout",
        type=float,
        default=0.0,
        help="fail the run if no operator makes progress for this many "
        "seconds (0 disables the watchdog)",
    )
    p_query.add_argument(
        "--prefix-query-every",
        type=int,
        default=0,
        help="maintain a coreset tree per cell and print a mid-stream "
        "clustering every this-many partitions (0 disables; final "
        "models are unchanged)",
    )
    p_query.add_argument(
        "--window",
        type=int,
        default=0,
        help="with --prefix-query-every, cluster only the last this-many "
        "chunks per query instead of the whole prefix (0 = whole prefix)",
    )
    p_query.set_defaults(fn=_cmd_query)

    p_convergence = sub.add_parser(
        "convergence", help="iterations-to-converge study (Section 3.2)"
    )
    p_convergence.add_argument(
        "--sizes", type=int, nargs="+", default=[500, 2_000, 8_000, 20_000]
    )
    p_convergence.add_argument("--k", type=int, default=40)
    p_convergence.add_argument("--restarts", type=int, default=3)
    p_convergence.add_argument("--chunks", type=int, default=10)
    p_convergence.set_defaults(fn=_cmd_convergence)

    p_swath = sub.add_parser(
        "swath", help="simulate a satellite and build bucket files"
    )
    p_swath.add_argument("--granules", required=True)
    p_swath.add_argument("--buckets", required=True)
    p_swath.add_argument("--orbits", type=int, default=2)
    p_swath.add_argument("--footprints", type=int, default=1_000)
    p_swath.add_argument("--samples", type=int, default=40)
    p_swath.add_argument("--min-points", type=int, default=100)
    p_swath.add_argument("--seed", type=int, default=0)
    p_swath.set_defaults(fn=_cmd_swath)

    p_compress = sub.add_parser(
        "compress", help="compress every bucket into .mvh histograms"
    )
    p_compress.add_argument("buckets")
    p_compress.add_argument("--out", required=True)
    p_compress.add_argument("--k", type=int, default=40)
    p_compress.add_argument("--chunks", type=int, default=5)
    p_compress.add_argument("--restarts", type=int, default=5)
    p_compress.add_argument("--seed", type=int, default=0)
    p_compress.set_defaults(fn=_cmd_compress)

    p_serve = sub.add_parser(
        "serve", help="serve a run's models hot from its journal"
    )
    p_serve.add_argument(
        "run_dir",
        help="run directory holding (or about to hold) the .rjl journal",
    )
    p_serve.add_argument(
        "--k",
        type=int,
        default=8,
        help="centroids for cells the journal gives no model for",
    )
    p_serve.add_argument("--seed", type=int, default=0)
    p_serve.add_argument("--restarts", type=int, default=3)
    p_serve.add_argument(
        "--kernel",
        choices=available_kernels(),
        default="dense",
        help="Lloyd assignment kernel (exact tiers are bit-identical; "
        "'blas' needs --no-exact and speeds up folds and serving assigns)",
    )
    p_serve.add_argument(
        "--no-exact",
        action="store_true",
        help="waive bit-identity: admit the 'blas' float32 GEMM kernel",
    )
    p_serve.add_argument(
        "--ttl",
        type=float,
        default=0.0,
        help="mark responses stale when the model is older than this "
        "many seconds (0 disables)",
    )
    p_serve.add_argument(
        "--no-fsync",
        action="store_true",
        help="skip per-record journal fsync (faster ingest, less durable)",
    )
    p_serve.add_argument("--max-batch", type=int, default=32)
    p_serve.add_argument(
        "--batch-delay",
        type=float,
        default=0.002,
        help="micro-batch collection window in seconds",
    )
    p_serve.add_argument("--query-workers", type=int, default=2)
    p_serve.add_argument(
        "--load-duration",
        type=float,
        default=0.0,
        help="instead of serving stdin, fire the built-in load "
        "generator for this many seconds and print the report",
    )
    p_serve.add_argument("--load-concurrency", type=int, default=4)
    p_serve.add_argument("--load-seed", type=int, default=0)
    p_serve.add_argument(
        "--bench-json",
        default=None,
        help="with --load-duration, write serving metrics + load report "
        "as JSON to this path",
    )
    p_serve.set_defaults(fn=_cmd_serve)

    p_cluster = sub.add_parser("cluster", help="cluster one bucket file")
    p_cluster.add_argument("bucket")
    p_cluster.add_argument("--k", type=int, default=40)
    p_cluster.add_argument("--chunks", type=int, default=5)
    p_cluster.add_argument("--restarts", type=int, default=10)
    p_cluster.add_argument("--seed", type=int, default=0)
    p_cluster.add_argument(
        "--kernel",
        choices=available_kernels(),
        default="dense",
        help="Lloyd assignment kernel (exact tiers are bit-identical; "
        "'blas' needs --no-exact)",
    )
    p_cluster.add_argument(
        "--no-exact",
        action="store_true",
        help="waive bit-identity: admit the 'blas' float32 GEMM kernel",
    )
    p_cluster.add_argument(
        "--checkpoint-dir",
        default=None,
        help="journal the run into this directory (crash-resumable)",
    )
    p_cluster.add_argument(
        "--resume",
        action="store_true",
        help="resume the journal in --checkpoint-dir instead of refusing it",
    )
    p_cluster.set_defaults(fn=_cmd_cluster)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point.

    Operational failures — a corrupt bucket file, a missing path, a
    stream-engine error — print a one-line message to stderr and return
    exit code 2 instead of dumping a traceback; bugs still traceback.
    """
    from repro.data.gridio import GridBucketFormatError
    from repro.stream.errors import StreamError
    from repro.stream.query import QueryError

    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (GridBucketFormatError, QueryError, StreamError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
