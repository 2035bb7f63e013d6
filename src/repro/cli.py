"""Command-line interface: regenerate paper artifacts from a shell.

Usage::

    python -m repro list                       # registered experiments
    python -m repro run fig11 --profile tiny   # regenerate one figure
    python -m repro run-all --jobs 4 --out r/  # everything, in parallel
    python -m repro run-all --trace t.json     # … with a Perfetto trace
    python -m repro trace-summary t.json       # per-phase table
    python -m repro hw-report --dataset WV     # per-array counters
    python -m repro datasets                   # Table II registry
    python -m repro bench --quick              # perf record -> BENCH_*.json
    python -m repro bench-compare BENCH_quick.json   # regression gate
    python -m repro metrics-export r/metrics.json    # OpenMetrics text
    python -m repro serve --port 8100 --preload WV   # always-on daemon
    python -m repro slo-report                       # burn-rate table
    python -m repro trace-grep 4bf92f…               # one request's spans
    python -m repro store-convert LJ --profile full  # mmap CSR store
    python -m repro store-info                       # stored graphs, disk use

``run`` and ``run-all`` dispatch through the parallel cache-aware
executor: ``--jobs N`` sizes the worker pool (default: all cores),
repeated runs reuse the on-disk layout cache (``--no-cache`` opts out,
``$REPRO_CACHE_DIR`` relocates it) and the mmap graph store that dataset
stand-ins are persisted to (``$REPRO_STORE_DIR`` relocates it;
``--no-cache`` leaves it on). Operational output goes to stderr
as structured JSON lines (``--log-level`` / ``$REPRO_LOG_LEVEL``
control verbosity), so stdout stays byte-identical across job counts
and log levels. ``--trace PATH`` records spans for the whole run —
runs, shard groups, experiments, and the five controller phases — as
JSONL or Chrome trace-event JSON (``--trace-format``).

``bench`` runs a named workload suite and appends a schema-versioned,
git/host-stamped record to ``BENCH_<suite>.json``; ``bench-compare``
diffs two records with noise-aware thresholds and exits ``3`` on a
regression (the CI perf gate). ``--prof PATH`` on any run records a
cProfile pstats dump; ``repro trace-summary --pstats PATH`` renders its
top self-time table.

``serve`` runs the always-on analytics daemon (:mod:`repro.serve`):
queries over warm pre-loaded engines with request coalescing,
per-tenant quotas, and ``/metrics`` OpenMetrics exposition. Service
failures map to distinct exit codes through
:func:`repro.errors.exit_code_for` (4 over-quota, 5 deadline, 6
saturated; generic library errors stay 1).

``slo-report`` renders a running daemon's error-budget state (or a
saved ``/stats`` JSON file) as a per-window burn-rate table;
``trace-grep TRACE_ID`` reconstructs one request's span tree from the
daemon's ``/debug/flight`` ring (or a flight dump / trace file on
disk) and exits ``1`` when the trace is not found.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .errors import ReproError, exit_code_for
from .experiments.registry import EXPERIMENTS
from .experiments.runner import RunRequest, RunSession
from .graphs.datasets import DATASETS
from .obs.log import LEVELS, configure_logging, get_logger
from .obs.trace import TRACE_FORMATS

log = get_logger("repro.cli")


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--profile", default="bench", choices=("tiny", "bench", "full"),
        help="dataset scale (default: bench)",
    )
    parser.add_argument(
        "--out", default=None, help="directory for reports + manifest"
    )
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes (default: all cores)",
    )
    parser.add_argument(
        "--format", default="text", choices=("text", "json"),
        help="stdout rendering (default: text)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the on-disk layout cache for this run",
    )
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="record a span trace of the run to PATH",
    )
    parser.add_argument(
        "--trace-format", default="chrome", choices=TRACE_FORMATS,
        help="trace file format (default: chrome, Perfetto-loadable)",
    )
    parser.add_argument(
        "--log-level", default=None, choices=sorted(LEVELS),
        help="stderr log verbosity (default: $REPRO_LOG_LEVEL or info)",
    )
    parser.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="export the metrics registry as OpenMetrics text to PATH",
    )
    parser.add_argument(
        "--prof", default=None, metavar="PATH",
        help="profile the run with cProfile; write pstats dump to PATH",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "GaaS-X (ISCA 2020) reproduction: regenerate the paper's "
            "tables and figures"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered experiments")

    run = sub.add_parser("run", help="run one experiment")
    run.add_argument("experiment_id", choices=sorted(EXPERIMENTS))
    _add_run_options(run)

    everything = sub.add_parser("run-all", help="run every experiment")
    _add_run_options(everything)
    everything.add_argument(
        "--only", action="append", default=None, metavar="ID",
        help="restrict to this experiment id (repeatable)",
    )

    sub.add_parser("datasets", help="show the Table II dataset registry")

    sub.add_parser(
        "validate",
        help="run the correctness cross-check battery",
    )

    trace_summary = sub.add_parser(
        "trace-summary",
        help="per-phase time/event table from a recorded trace",
    )
    trace_summary.add_argument(
        "trace_path", metavar="PATH", help="trace file (jsonl or chrome)"
    )
    trace_summary.add_argument(
        "--pstats", default=None, metavar="PATH",
        help="also render the top self-time table of a --prof dump",
    )
    trace_summary.add_argument(
        "--top", type=int, default=15, metavar="N",
        help="rows in the --pstats self-time table (default: 15)",
    )

    hw_report = sub.add_parser(
        "hw-report",
        help="per-array hardware counter report from an instrumented "
             "micro-engine run",
    )
    hw_report.add_argument(
        "--dataset", default="WV", metavar="KEY",
        choices=sorted(DATASETS),
        help="Table II dataset key (default: WV)",
    )
    hw_report.add_argument(
        "--profile", default="tiny", choices=("tiny", "bench", "full"),
        help="dataset scale (default: tiny; the micro engine is the "
             "slow, honest one)",
    )
    hw_report.add_argument(
        "--algorithm", default="pagerank",
        choices=("pagerank", "bfs", "sssp"),
        help="kernel to run (default: pagerank)",
    )
    hw_report.add_argument(
        "--iterations", type=int, default=2, metavar="N",
        help="PageRank iterations (default: 2)",
    )
    hw_report.add_argument(
        "--source", type=int, default=0, metavar="V",
        help="bfs/sssp source vertex (default: 0)",
    )
    hw_report.add_argument(
        "--format", default="text", choices=("text", "json"),
        help="stdout rendering (default: text)",
    )
    hw_report.add_argument(
        "--json", default=None, metavar="PATH", dest="json_path",
        help="also write the full JSON report to PATH (CI artifact)",
    )
    hw_report.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="export the per-bank-labelled counters as OpenMetrics "
             "text to PATH",
    )
    hw_report.add_argument(
        "--log-level", default=None, choices=sorted(LEVELS),
        help="stderr log verbosity",
    )

    bench = sub.add_parser(
        "bench",
        help="run a perf workload suite, append a BENCH_<suite>.json record",
    )
    bench.add_argument(
        "--suite", default=None,
        choices=("quick", "kernels", "experiments", "serve",
                 "dataplane", "full"),
        help="workload suite (default: quick)",
    )
    bench.add_argument(
        "--quick", action="store_true",
        help="shorthand for --suite quick (tiny profile, few repeats)",
    )
    bench.add_argument(
        "--profile", default=None, choices=("tiny", "bench", "full"),
        help="dataset scale (default: the suite's own)",
    )
    bench.add_argument(
        "--repeats", type=int, default=None, metavar="N",
        help="timed repetitions per workload (default: the suite's own)",
    )
    bench.add_argument(
        "--out", default="benchmarks/out", metavar="DIR",
        help="directory for the BENCH_<suite>.json trajectory "
             "(default: benchmarks/out)",
    )
    bench.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="also export the metrics registry as OpenMetrics text",
    )
    bench.add_argument(
        "--prof", default=None, metavar="PATH",
        help="profile the suite with cProfile; write pstats dump to PATH",
    )
    bench.add_argument(
        "--log-level", default=None, choices=sorted(LEVELS),
        help="stderr log verbosity",
    )

    bench_compare = sub.add_parser(
        "bench-compare",
        help="noise-aware regression gate between two bench records",
    )
    bench_compare.add_argument(
        "current", metavar="CURRENT",
        help="BENCH_<suite>.json whose latest record is under test",
    )
    bench_compare.add_argument(
        "baseline", nargs="?", default=None, metavar="BASELINE",
        help="baseline BENCH file (default: the previous record "
             "of CURRENT)",
    )
    bench_compare.add_argument(
        "--threshold", type=float, default=None, metavar="FRAC",
        help="relative change that fails the gate (default: 0.25)",
    )
    bench_compare.add_argument(
        "--noise-k", type=float, default=None, metavar="K",
        help="wall-clock changes must exceed K MADs (default: 3)",
    )
    bench_compare.add_argument(
        "--warn-only", action="store_true",
        help="report regressions but exit 0 (shared/noisy runners)",
    )
    bench_compare.add_argument(
        "--workload", action="append", default=None, metavar="NAME",
        help="restrict the gate to these workloads (repeatable); "
             "names absent from both records fail",
    )
    bench_compare.add_argument(
        "--log-level", default=None, choices=sorted(LEVELS),
        help="stderr log verbosity",
    )

    store_convert = sub.add_parser(
        "store-convert",
        help="convert a dataset into the mmap CSR store (one-time cost)",
    )
    store_convert.add_argument(
        "dataset", metavar="KEY", choices=sorted(DATASETS),
        help="Table II dataset key",
    )
    store_convert.add_argument(
        "--profile", default="bench", choices=("tiny", "bench", "full"),
        help="dataset scale (default: bench)",
    )
    store_convert.add_argument(
        "--store-dir", default=None, metavar="DIR",
        help="store root (default: $REPRO_STORE_DIR or "
             "~/.cache/repro/store)",
    )
    store_convert.add_argument(
        "--log-level", default=None, choices=sorted(LEVELS),
        help="stderr log verbosity",
    )

    store_info = sub.add_parser(
        "store-info",
        help="list the stored graphs, with store and grid-cache "
             "disk usage",
    )
    store_info.add_argument(
        "--store-dir", default=None, metavar="DIR",
        help="store root (default: $REPRO_STORE_DIR or "
             "~/.cache/repro/store)",
    )

    metrics_export = sub.add_parser(
        "metrics-export",
        help="render a metrics snapshot as OpenMetrics/Prometheus text",
    )
    metrics_export.add_argument(
        "snapshot", nargs="?", default=None, metavar="PATH",
        help="metrics.json snapshot (e.g. from --out DIR); omitted: "
             "the live in-process registry",
    )

    serve = sub.add_parser(
        "serve",
        help="always-on analytics daemon: queries over warm sessions",
    )
    serve.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default: 127.0.0.1)",
    )
    serve.add_argument(
        "--port", type=int, default=8100,
        help="bind port; 0 picks an ephemeral port (default: 8100)",
    )
    serve.add_argument(
        "--preload", action="append", default=None, metavar="KEY",
        choices=sorted(DATASETS), dest="preload",
        help="warm a session for this dataset before accepting traffic "
             "(repeatable)",
    )
    serve.add_argument(
        "--profile", default="bench", choices=("tiny", "bench", "full"),
        help="dataset scale for preloaded sessions (default: bench)",
    )
    serve.add_argument(
        "--max-sessions", type=int, default=8, metavar="N",
        help="warm-session pool capacity (default: 8)",
    )
    serve.add_argument(
        "--max-pending", type=int, default=64, metavar="N",
        help="distinct in-flight queries before shedding (default: 64)",
    )
    serve.add_argument(
        "--quota-rate", type=float, default=None, metavar="QPS",
        help="per-tenant sustained queries/second (default: unlimited)",
    )
    serve.add_argument(
        "--quota-burst", type=int, default=64, metavar="N",
        help="per-tenant burst allowance (default: 64)",
    )
    serve.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="engine executor threads (default: asyncio's own sizing)",
    )
    serve.add_argument(
        "--timeout", type=float, default=60.0, metavar="SECONDS",
        help="default per-query deadline (default: 60)",
    )
    serve.add_argument(
        "--log-level", default=None, choices=sorted(LEVELS),
        help="stderr log verbosity",
    )
    serve.add_argument(
        "--flight-capacity", type=int, default=256, metavar="N",
        help="completed traces kept in the flight recorder "
             "(default: 256)",
    )
    serve.add_argument(
        "--slo-availability", type=float, default=0.999, metavar="FRAC",
        help="availability objective in (0, 1) (default: 0.999)",
    )
    serve.add_argument(
        "--slo-latency", type=float, default=1.0, metavar="SECONDS",
        help="p99 latency objective in seconds (default: 1.0)",
    )

    slo_report = sub.add_parser(
        "slo-report",
        help="error-budget burn-rate table from a running daemon",
    )
    slo_report.add_argument(
        "source", nargs="?", default=None, metavar="SOURCE",
        help="a /stats URL or saved /stats JSON file "
             "(default: http://127.0.0.1:8100/stats)",
    )

    trace_grep = sub.add_parser(
        "trace-grep",
        help="reconstruct one request's span tree by trace id",
    )
    trace_grep.add_argument(
        "trace_id", metavar="TRACE_ID",
        help="full trace id, or an unambiguous prefix",
    )
    trace_grep.add_argument(
        "source", nargs="?", default=None, metavar="SOURCE",
        help="a /debug/flight URL, a saved flight dump, or a trace "
             "file (default: http://127.0.0.1:8100/debug/flight)",
    )
    return parser


def _run_session(args: argparse.Namespace, experiment_id) -> int:
    request = RunRequest(
        experiment_id=experiment_id,
        profile=args.profile,
        jobs=args.jobs,
        output_dir=args.out,
        format=args.format,
        use_disk_cache=not args.no_cache,
        trace_path=args.trace,
        trace_format=args.trace_format,
        metrics_path=args.metrics,
        profile_stats_path=args.prof,
    )
    session = RunSession(request)
    results = session.run()
    for index, experiment_id_ in enumerate(results):
        print(session.rendered(experiment_id_))
        if index < len(results) - 1:
            print()
    log.info("run.summary", summary=session.manifest.summary())
    return 0


def _run_hw_report(args: argparse.Namespace) -> int:
    """Run the micro engine under an :class:`HwMonitor`, render the
    per-array report, and fail (exit 1) if attribution does not sum
    back to the run's global :class:`EventLog`."""
    import json as json_module

    from .config import ArchConfig
    from .core.micro import MicroGaaSX
    from .graphs.datasets import load_dataset
    from .graphs.graph import Graph
    from .obs.export import write_openmetrics
    from .obs.hw import (
        HwMonitor,
        build_report,
        publish_counters,
        render_report,
    )
    from .obs.metrics import get_metrics

    graph = load_dataset(args.dataset, args.profile)
    if not isinstance(graph, Graph):
        raise ReproError(
            f"dataset {args.dataset!r} is bipartite; hw-report drives "
            f"the micro traversal/PageRank kernels, which need a plain "
            f"graph"
        )
    config = ArchConfig()
    monitor = HwMonitor()
    engine = MicroGaaSX(graph, config=config, hw=monitor)
    if args.algorithm == "pagerank":
        _, events = engine.pagerank(iterations=args.iterations)
    elif args.algorithm == "bfs":
        _, events = engine.bfs(args.source)
    else:
        _, events = engine.sssp(args.source)
    report = build_report(monitor, events, config.tech)
    report["dataset"] = args.dataset
    report["profile"] = args.profile
    report["algorithm"] = args.algorithm
    if args.format == "json":
        print(json_module.dumps(report, indent=2, sort_keys=True))
    else:
        print(
            f"{args.algorithm} on {args.dataset}-{args.profile}: "
            f"{graph.num_vertices:,} vertices, "
            f"{graph.num_edges:,} edges"
        )
        print(render_report(report))
    if args.json_path is not None:
        import os

        parent = os.path.dirname(os.path.abspath(args.json_path))
        os.makedirs(parent, exist_ok=True)
        with open(args.json_path, "w", encoding="utf-8") as handle:
            json_module.dump(report, handle, indent=2, sort_keys=True)
        log.info("hw_report.written", path=args.json_path)
    publish_counters(monitor, get_metrics())
    if args.metrics is not None:
        written = write_openmetrics(get_metrics(), args.metrics)
        log.info("metrics.written", path=written)
    if not report["parity"]["ok"]:
        log.error(
            "hw_report.parity_failed",
            mismatches=sorted(report["parity"]["mismatches"]),
        )
        return 1
    return 0


def _run_bench(args: argparse.Namespace) -> int:
    from .obs import bench
    from .obs.export import write_openmetrics
    from .obs.metrics import get_metrics
    from .obs.perf import profiled

    suite = "quick" if args.quick else (args.suite or "quick")
    with profiled(args.prof):
        record, path = bench.run_suite(
            suite=suite,
            profile=args.profile,
            repeats=args.repeats,
            out_dir=args.out,
        )
    header = f"{'workload':<20} {'median':>12} {'mad':>12} {'metrics':>8}"
    print(header)
    print("-" * len(header))
    for name, entry in record["workloads"].items():
        wall = entry["wall_s"]
        print(
            f"{name:<20} {wall['median_s']:>11.4f}s "
            f"{wall['mad_s']:>11.4f}s {len(entry['metrics']):>8}"
        )
    print(
        f"\nrecord appended to {path} "
        f"(suite={record['suite']}, profile={record['profile']}, "
        f"git={record['git_sha']})"
    )
    if args.metrics is not None:
        written = write_openmetrics(get_metrics(), args.metrics)
        log.info("metrics.written", path=written)
    return 0


def _require_bench_file(path: str, role: str) -> None:
    """Fail fast — and legibly — on a missing or empty bench file.

    CI jobs routinely point the gate at a committed baseline that a
    branch hasn't created yet; the message must name the exact path and
    the command that produces it, not a JSON parse error.
    """
    import os

    if not os.path.exists(path):
        raise ReproError(
            f"{role} bench file {path!r} does not exist; record one "
            f"with: repro bench --suite <suite> --out "
            f"{os.path.dirname(path) or '.'}"
        )
    if os.path.getsize(path) == 0:
        raise ReproError(
            f"{role} bench file {path!r} is empty (zero bytes) — likely "
            f"a truncated write; re-record it with: repro bench "
            f"--suite <suite> --out {os.path.dirname(path) or '.'}"
        )


def _run_bench_compare(args: argparse.Namespace) -> int:
    from .obs import bench

    _require_bench_file(args.current, "current")
    if args.baseline is not None:
        _require_bench_file(args.baseline, "baseline")
    current_trajectory = bench.load_trajectory(args.current)
    current = bench.latest_record(current_trajectory)
    if args.baseline is not None:
        baseline = bench.latest_record(
            bench.load_trajectory(args.baseline)
        )
    else:
        records = current_trajectory["records"]
        if len(records) < 2:
            raise ReproError(
                f"{args.current} holds only one record; pass an explicit "
                f"BASELINE file or record a second run first"
            )
        baseline = records[-2]
    threshold = (
        args.threshold if args.threshold is not None
        else bench.DEFAULT_THRESHOLD
    )
    noise_k = (
        args.noise_k if args.noise_k is not None else bench.DEFAULT_NOISE_K
    )
    deltas = bench.compare_records(
        baseline, current, threshold=threshold, noise_k=noise_k
    )
    if args.workload:
        wanted = set(args.workload)
        missing = sorted(wanted - {d.workload for d in deltas})
        if missing:
            raise ReproError(
                "workload(s) absent from both records: "
                + ", ".join(missing)
            )
        deltas = [d for d in deltas if d.workload in wanted]
    print(
        f"baseline: git={baseline['git_sha']} "
        f"t={baseline['created_unix']}  "
        f"current: git={current['git_sha']} t={current['created_unix']}"
    )
    print(bench.render_comparison(deltas, threshold))
    if bench.has_regressions(deltas):
        log.warning(
            "bench.regression",
            regressions=sum(
                1 for d in deltas if d.verdict == "regression"
            ),
            warn_only=args.warn_only,
        )
        return 0 if args.warn_only else 3
    return 0


def _run_store_convert(args: argparse.Namespace) -> int:
    from .storage.mmap_store import get_store

    store = get_store(args.store_dir)
    stored = store.dataset(args.dataset, args.profile)
    import os

    print(
        f"{args.dataset}-{args.profile}: digest={stored.digest} "
        f"vertices={stored.num_vertices:,} edges={stored.num_edges:,} "
        f"shards={len(stored.shards)} "
        f"bytes={os.path.getsize(stored.path):,}"
    )
    print(f"path: {stored.path}")
    return 0


def _run_store_info(args: argparse.Namespace) -> int:
    from .core.cache import default_cache_dir, disk_usage
    from .storage.mmap_store import get_store

    store = get_store(args.store_dir)
    entries = store.entries()
    header = (
        f"{'digest':<34} {'name':<16} {'vertices':>10} {'edges':>12} "
        f"{'shards':>6} {'bytes':>14}"
    )
    print(header)
    print("-" * len(header))
    for entry in entries:
        print(
            f"{entry['digest']:<34} {str(entry['name']):<16.16} "
            f"{entry['vertices']:>10,} {entry['edges']:>12,} "
            f"{entry['shards']:>6} {entry['bytes']:>14,}"
        )
    stored_bytes = sum(int(entry["bytes"]) for entry in entries)
    print(
        f"\n{len(entries)} stored graph(s), {stored_bytes:,} bytes "
        f"under {store.root}"
    )
    cache_dir = default_cache_dir()
    cached, cached_bytes = disk_usage(cache_dir)
    print(
        f"{cached} grid cache entries, {cached_bytes:,} bytes "
        f"under {cache_dir}"
    )
    return 0


def _run_metrics_export(args: argparse.Namespace) -> int:
    import json as json_module

    from .obs.export import render_openmetrics
    from .obs.metrics import get_metrics

    if args.snapshot is None:
        print(render_openmetrics(get_metrics()), end="")
        return 0
    try:
        with open(args.snapshot, "r", encoding="utf-8") as handle:
            snapshot = json_module.load(handle)
    except OSError as exc:
        raise ReproError(
            f"cannot read metrics snapshot {args.snapshot!r}: {exc}"
        ) from exc
    except json_module.JSONDecodeError as exc:
        raise ReproError(
            f"metrics snapshot {args.snapshot!r} is not valid JSON: {exc}"
        ) from exc
    if not isinstance(snapshot, dict):
        raise ReproError(
            f"metrics snapshot {args.snapshot!r} must be a JSON object"
        )
    print(render_openmetrics(snapshot), end="")
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .obs.slo import SLOConfig
    from .serve.http import serve_forever
    from .serve.server import AnalyticsService

    try:
        slo = SLOConfig(
            availability_target=args.slo_availability,
            latency_target_s=args.slo_latency,
        )
    except ValueError as exc:
        raise ReproError(str(exc)) from exc
    service = AnalyticsService(
        max_sessions=args.max_sessions,
        max_pending=args.max_pending,
        quota_rate=args.quota_rate,
        quota_burst=args.quota_burst,
        workers=args.workers,
        default_timeout_s=args.timeout,
        flight_capacity=args.flight_capacity,
        slo=slo,
    )
    if args.preload:
        service.preload(args.preload, args.profile)
        log.info(
            "serve.preloaded",
            datasets=list(args.preload),
            profile=args.profile,
        )
    try:
        asyncio.run(serve_forever(service, args.host, args.port))
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        log.info("serve.stopped")
    return 0


#: Default daemon endpoints the observability commands read from.
DEFAULT_STATS_URL = "http://127.0.0.1:8100/stats"
DEFAULT_FLIGHT_URL = "http://127.0.0.1:8100/debug/flight"


def _read_json_source(source: str):
    """JSON from a URL (a running daemon) or a file on disk."""
    import json as json_module

    if source.startswith(("http://", "https://")):
        import urllib.error
        import urllib.request

        try:
            with urllib.request.urlopen(source, timeout=10) as response:
                return json_module.loads(
                    response.read().decode("utf-8")
                )
        except (urllib.error.URLError, OSError, ValueError) as exc:
            raise ReproError(
                f"cannot fetch {source!r}: {exc} — is the daemon "
                f"running? (repro serve)"
            ) from exc
    try:
        with open(source, "r", encoding="utf-8") as handle:
            return json_module.load(handle)
    except OSError as exc:
        raise ReproError(
            f"cannot read {source!r}: {exc}"
        ) from exc
    except json_module.JSONDecodeError as exc:
        raise ReproError(
            f"{source!r} is not valid JSON: {exc}"
        ) from exc


def _run_slo_report(args: argparse.Namespace) -> int:
    from .obs.slo import render_slo_report

    source = args.source or DEFAULT_STATS_URL
    payload = _read_json_source(source)
    # Accept the whole /stats payload or a bare tracker snapshot.
    snapshot = (
        payload.get("slo", payload) if isinstance(payload, dict) else None
    )
    if not isinstance(snapshot, dict) or "windows" not in snapshot:
        raise ReproError(
            f"{source!r} holds no SLO snapshot (expected a /stats "
            f"payload with an 'slo' key, or the snapshot itself)"
        )
    print(f"source: {source}")
    print(render_slo_report(snapshot))
    return 0


def _run_trace_grep(args: argparse.Namespace) -> int:
    from .obs.summary import filter_trace, load_trace, render_span_tree

    source = args.source or DEFAULT_FLIGHT_URL
    is_url = source.startswith(("http://", "https://"))
    payload = None
    if is_url:
        payload = _read_json_source(source)
    else:
        import json as json_module

        # A file may be a flight dump (one JSON object with "entries")
        # or a recorded trace (JSONL / Chrome); sniff, then fall back.
        try:
            with open(source, "r", encoding="utf-8") as handle:
                payload = json_module.load(handle)
        except OSError as exc:
            raise ReproError(f"cannot read {source!r}: {exc}") from exc
        except json_module.JSONDecodeError:
            payload = None
        if not (isinstance(payload, dict) and "entries" in payload):
            spans = filter_trace(load_trace(source), args.trace_id)
            if not spans:
                print(
                    f"trace {args.trace_id} not found in {source}",
                    file=sys.stderr,
                )
                return 1
            print(f"trace {args.trace_id} ({len(spans)} spans)")
            print(render_span_tree(spans))
            return 0
    entries = payload.get("entries", []) if isinstance(payload, dict) else []
    matches = [
        e for e in entries if e.get("trace_id") == args.trace_id
    ] or [
        e
        for e in entries
        if str(e.get("trace_id", "")).startswith(args.trace_id)
    ]
    if not matches:
        print(
            f"trace {args.trace_id} not found in {source} "
            f"({len(entries)} kept traces; errored and slow requests "
            f"are always kept, fast successes are sampled)",
            file=sys.stderr,
        )
        return 1
    if len(matches) > 1:
        raise ReproError(
            f"trace id prefix {args.trace_id!r} is ambiguous: "
            + ", ".join(str(e.get("trace_id")) for e in matches)
        )
    entry = matches[0]
    spans = entry.get("spans", [])
    fields = " ".join(
        f"{key}={entry[key]}"
        for key in (
            "status", "latency_s", "kept_because", "dataset",
            "algorithm", "tenant", "leader_trace_id",
        )
        if key in entry
    )
    print(f"trace {entry.get('trace_id')} {fields}")
    if "error" in entry:
        print(f"error: {entry['error']}")
    print(render_span_tree(spans))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    configure_logging(getattr(args, "log_level", None))
    try:
        if args.command == "list":
            for spec in EXPERIMENTS.values():
                print(
                    f"{spec.experiment_id:<14} {spec.paper_artifact:<18} "
                    f"{spec.description}"
                )
        elif args.command == "run":
            return _run_session(args, args.experiment_id)
        elif args.command == "run-all":
            return _run_session(args, tuple(args.only) if args.only else None)
        elif args.command == "validate":
            from .validation import run_validation

            report = run_validation()
            print(report.render())
            return 0 if report.passed else 2
        elif args.command == "trace-summary":
            from .obs.perf import render_profile_table, top_self_time
            from .obs.summary import load_trace, render_summary

            print(render_summary(load_trace(args.trace_path)))
            if args.pstats is not None:
                try:
                    rows = top_self_time(args.pstats, args.top)
                except ValueError as exc:
                    log.error("command.failed", command="trace-summary",
                              error=str(exc))
                    return 1
                print()
                print(render_profile_table(rows))
            return 0
        elif args.command == "hw-report":
            return _run_hw_report(args)
        elif args.command == "bench":
            return _run_bench(args)
        elif args.command == "bench-compare":
            return _run_bench_compare(args)
        elif args.command == "store-convert":
            return _run_store_convert(args)
        elif args.command == "store-info":
            return _run_store_info(args)
        elif args.command == "metrics-export":
            return _run_metrics_export(args)
        elif args.command == "serve":
            return _run_serve(args)
        elif args.command == "slo-report":
            return _run_slo_report(args)
        elif args.command == "trace-grep":
            return _run_trace_grep(args)
        elif args.command == "datasets":
            header = (
                f"{'key':<4} {'name':<12} {'vertices':>10} {'edges':>12}  "
                "description"
            )
            print(header)
            print("-" * len(header))
            for spec in DATASETS.values():
                print(
                    f"{spec.key:<4} {spec.full_name:<12} "
                    f"{spec.vertices:>10,} {spec.edges:>12,}  "
                    f"{spec.description}"
                )
    except ReproError as exc:
        log.error("command.failed", command=args.command, error=str(exc))
        return exit_code_for(exc)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
