"""Continuous performance telemetry: benchmark store + regression gate.

This module turns the instrumentation of :mod:`repro.obs` into an
ongoing perf-trajectory system. It has three layers:

* **Workloads** — named, repeatable measurement units. The ``kernel``
  workloads time the simulator's own hot paths (engine iterations,
  layout construction, CAM search, MAC accumulation, shard scans); the
  ``experiment`` workloads run registered paper artifacts through the
  executor under the tracer, so each record also carries the modelled
  per-phase seconds/energy (:data:`~repro.core.controller.PHASE_NAMES`),
  the layout-cache hit rate, and crossbar-utilization statistics
  derived from :meth:`repro.events.EventLog.rows_occupancy`.
* **The store** — schema-versioned records appended to
  ``BENCH_<suite>.json`` trajectory files. Every record is stamped with
  the git SHA, a UNIX timestamp, and a host fingerprint
  (:mod:`repro.obs.perf`), so trajectories remain comparable across
  machines and commits.
* **The comparator** — a noise-aware diff between two records.
  Wall-clock medians carry a median-absolute-deviation noise bound; a
  metric only counts as a regression when it moves past the relative
  threshold *and* (for wall times) beyond ``noise_k`` MADs. Modelled
  metrics are deterministic and compare on the threshold alone.

The CLI surface is ``repro bench`` / ``repro bench-compare``; the
module is equally usable programmatically::

    from repro.obs import bench

    record, path = bench.run_suite("quick", out_dir="benchmarks/out")
    trajectory = bench.load_trajectory(path)
    deltas = bench.compare_records(trajectory["records"][-2],
                                   trajectory["records"][-1])
    assert not bench.has_regressions(deltas)

Unlike its siblings this module sits *above* the rest of the package
(workloads import engines and the executor); all such imports are
deferred into the workload bodies so importing :mod:`repro.obs` stays
cycle-free.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..errors import ConfigError
from .log import get_logger
from .perf import git_sha, host_fingerprint

log = get_logger("repro.bench")

#: Version stamp of the record layout below. Bump on breaking changes;
#: the comparator refuses to diff records of different schemas.
SCHEMA_VERSION = 1

#: Default relative change that counts as a regression (25%).
DEFAULT_THRESHOLD = 0.25

#: Wall-clock changes must also exceed this many MADs to count.
DEFAULT_NOISE_K = 3.0

#: Dataset used by the kernel workloads (small, always available).
_KERNEL_DATASET = "WV"


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Workload:
    """One named, repeatable measurement unit.

    ``setup(profile)`` builds whatever state should be excluded from
    the timing (graphs, layouts); ``run(state)`` is the timed body and
    returns a payload; ``collect(state, payload)`` extracts the
    record's flat metric mapping from the final payload.
    """

    name: str
    kind: str  # "kernel" | "experiment"
    setup: Callable[[str], Any]
    run: Callable[[Any], Any]
    collect: Callable[[Any, Any], Dict[str, float]]


def _stats_metrics(stats) -> Dict[str, float]:
    """Flatten a :class:`~repro.core.stats.RunStats` into bench metrics.

    Carries the modelled totals, the five-phase decomposition, the
    non-zero raw event counters, and the MAC row-occupancy statistics
    against the configured ADC accumulation bound (16 rows in Table I).
    """
    from ..config import ArchConfig
    from ..core.controller import _phase_slug, build_plan

    metrics: Dict[str, float] = {
        "modelled.total_s": float(stats.total_time_s),
        "modelled.load_s": float(stats.load_time_s),
        "modelled.compute_s": float(stats.compute_time_s),
        "modelled.energy_j": float(stats.total_energy_j),
    }
    for phase in build_plan(stats).phases:
        slug = _phase_slug(phase.name)
        metrics[f"phase.{slug}.operations"] = float(phase.operations)
        metrics[f"phase.{slug}.modelled_s"] = float(phase.time_s)
        metrics[f"phase.{slug}.energy_j"] = float(phase.energy_j)
    for name, value in stats.events.as_dict().items():
        if value:
            metrics[f"events.{name}"] = float(value)
    limit = ArchConfig().mac_accumulate_limit
    for name, value in stats.events.rows_occupancy(limit).items():
        metrics[f"xbar.{name}"] = float(value)
    return metrics


def _engine_workload(name: str, orientation: str, kernel) -> Workload:
    def setup(profile: str):
        from ..core.engine import GaaSXEngine
        from ..graphs.datasets import load_dataset

        engine = GaaSXEngine(load_dataset(_KERNEL_DATASET, profile))
        engine.layout(orientation)
        return engine

    def collect(_state, payload) -> Dict[str, float]:
        return _stats_metrics(payload.stats)

    return Workload(name, "kernel", setup, kernel, collect)


def _layout_workload() -> Workload:
    def setup(profile: str):
        from ..graphs import partition_graph
        from ..graphs.datasets import load_dataset

        return partition_graph(load_dataset(_KERNEL_DATASET, profile), 128)

    def run(grid):
        from ..config import ArchConfig
        from ..core.loader import build_layout

        return build_layout(grid, "col", ArchConfig())

    def collect(_grid, layout) -> Dict[str, float]:
        return {"layout.num_edges": float(layout.num_edges)}

    return Workload("layout.build", "kernel", setup, run, collect)


def _shard_scan_workload() -> Workload:
    def setup(profile: str):
        import numpy as np

        from ..graphs import partition_graph
        from ..graphs.datasets import load_dataset
        from ..storage.shards import ShardStore

        store = ShardStore(
            partition_graph(load_dataset(_KERNEL_DATASET, profile), 128)
        )
        intervals = store.grid.partition.num_intervals
        return store, np.arange(0, intervals, 2)

    def run(state):
        store, wanted = state
        return {
            "model.selective_scan_s": store.selective_scan_time_s(wanted),
            "model.full_scan_s": store.full_scan_time_s("col"),
        }

    def collect(_state, payload) -> Dict[str, float]:
        return {k: float(v) for k, v in payload.items()}

    return Workload("shard.scan", "kernel", setup, run, collect)


def _cam_search_workload() -> Workload:
    def setup(_profile: str):
        import numpy as np

        rng = np.random.default_rng(0)
        return {
            "src": rng.integers(0, 1000, size=128),
            "dst": rng.integers(0, 1000, size=128),
            "queries": rng.integers(0, 1000, size=256),
        }

    def run(state):
        from ..xbar import EdgeCam

        cam = EdgeCam(rows=state["src"].size, vertex_bits=32)
        cam.load_edges(state["src"], state["dst"])
        for query in state["queries"]:
            cam.search_dst(int(query))
        return cam

    def collect(_state, cam) -> Dict[str, float]:
        return {
            f"events.{name}": float(value)
            for name, value in cam.events.as_dict().items()
            if value
        }

    return Workload("cam.search", "kernel", setup, run, collect)


def _mac_accumulate_workload() -> Workload:
    def setup(_profile: str):
        import numpy as np

        rng = np.random.default_rng(1)
        rows, cols, ops = 128, 16, 32
        masks = np.zeros((ops, rows), dtype=bool)
        for i in range(ops):
            engaged = int(rng.integers(1, 17))
            masks[i, rng.choice(rows, size=engaged, replace=False)] = True
        return {
            "values": rng.uniform(0, 4, size=(rows, cols)),
            "inputs": rng.uniform(0, 2, size=rows),
            "masks": masks,
        }

    def run(state):
        import numpy as np

        from ..xbar import MacCrossbar

        rows = state["inputs"].size
        mac = MacCrossbar(rows=rows, cols=state["values"].shape[1])
        mac.write_rows(np.arange(rows), state["values"])
        for mask in state["masks"]:
            mac.mac(state["inputs"], row_mask=mask)
        return mac

    def collect(_state, mac) -> Dict[str, float]:
        from ..config import ArchConfig

        limit = ArchConfig().mac_accumulate_limit
        metrics = {
            f"xbar.{name}": float(value)
            for name, value in mac.events.rows_occupancy(limit).items()
        }
        metrics["events.mac_ops"] = float(mac.events.mac_ops)
        return metrics

    return Workload("mac.accumulate", "kernel", setup, run, collect)


def _traversal_superstep_workload() -> Workload:
    """High-diameter SSSP: thousands of thin-frontier supersteps.

    A tall 4 x 8192 grid (road-network shape) with uniform weights
    gives a ~8200-superstep Bellman-Ford wavefront whose frontier is a
    handful of vertices — the shape that punishes any per-superstep
    cost proportional to the whole graph instead of the active set.
    (Uniform weights keep the wavefront thin: with high-variance
    weights the frontier fattens with re-relaxations and the run
    measures raw relaxation throughput instead of superstep overhead.)
    The graph is fixed-size (profile-independent) so trajectories stay
    comparable.
    """

    def setup(_profile: str):
        from ..core.engine import GaaSXEngine
        from ..graphs.generators import grid_2d

        engine = GaaSXEngine(
            grid_2d(
                4, 8192, seed=3, name="tall-grid",
                weight_range=(1.0, 1.0),
            )
        )
        engine.layout("row").groups_by("src")
        return engine

    def run(engine):
        return engine.sssp(0)

    def collect(_engine, payload) -> Dict[str, float]:
        metrics = _stats_metrics(payload.stats)
        metrics["traversal.supersteps"] = float(payload.supersteps)
        return metrics

    return Workload("traversal.superstep", "kernel", setup, run, collect)


def _micro_traversal_workload() -> Workload:
    """Array-level simulator end to end: crossbar load + CAM/MAC SSSP.

    Times :class:`~repro.core.micro.MicroGaaSX` loading the layout
    into its stacked CAM/MAC banks (one vectorized programming pass)
    and running a full SSSP through the real gang search /
    selective-MAC path. Fixed-size graph, profile-independent.
    """

    def setup(_profile: str):
        from ..graphs.generators import rmat

        return rmat(256, 2000, seed=5, name="micro-bench")

    def run(graph):
        from ..core.micro import MicroGaaSX

        return MicroGaaSX(graph).sssp(0)

    def collect(_graph, payload) -> Dict[str, float]:
        _dist, events = payload
        return {
            f"events.{name}": float(value)
            for name, value in events.as_dict().items()
            if value
        }

    return Workload("micro.traversal", "kernel", setup, run, collect)


def _hw_pagerank_workload() -> Workload:
    """Micro-engine PageRank under the per-array hardware monitor.

    Times the instrumented run (so the monitor's overhead itself is on
    the perf trajectory) and records the per-array load-balance figures
    — occupancy, imbalance, active fraction — plus the
    counter-vs-EventLog parity verdict as a gated 1.0/0.0 metric.
    Fixed-size graph, profile-independent, like the other micro
    workloads.
    """

    def setup(_profile: str):
        from ..graphs.generators import rmat

        return rmat(256, 2000, seed=5, name="hw-bench")

    def run(graph):
        from ..core.micro import MicroGaaSX
        from .hw import HwMonitor

        monitor = HwMonitor()
        _ranks, events = MicroGaaSX(graph, hw=monitor).pagerank(
            iterations=2
        )
        return monitor, events

    def collect(_graph, payload) -> Dict[str, float]:
        from .hw import check_parity, utilization_summary

        monitor, events = payload
        util = utilization_summary(monitor)
        metrics = {
            "hw.arrays": float(util["arrays"]),
            "hw.imbalance": float(util["imbalance"]),
            "hw.active_frac": float(util["active_frac"]),
            "hw.parity_ok": 1.0 if check_parity(monitor, events)["ok"]
            else 0.0,
        }
        limit = monitor.accumulate_limit
        for name, value in events.rows_occupancy(limit).items():
            metrics[f"xbar.{name}"] = float(value)
        return metrics

    return Workload("hw.pagerank", "kernel", setup, run, collect)


def _incremental_pagerank_workload() -> Workload:
    """Warm re-query: full recompute vs incremental restart.

    The cross-iteration-reuse acceptance number. Setup converges
    PageRank once on a fixed r-MAT graph; each timed run then answers
    the same query twice — a full recompute with the reuse layer
    forced off (the pre-reuse serving path), and an incremental
    restart from the converged ranks with memoization on. The
    ``incremental.speedup`` ratio is the gated metric; both runs
    execute in the same process seconds apart, so the ratio is robust
    to host noise in a way the raw wall times are not. Under
    ``REPRO_REUSE=0`` the incremental restart still runs the delta
    algorithm, only without memoized pass accounting, so such a record
    measures the algorithmic win alone.
    """

    def setup(_profile: str):
        from ..core.engine import GaaSXEngine
        from ..graphs.generators import rmat

        engine = GaaSXEngine(
            rmat(20000, 300000, seed=11, name="inc-bench")
        )
        engine.layout("col")
        warm = engine.pagerank(iterations=60, tolerance=1e-5).ranks
        return {"engine": engine, "warm": warm}

    def run(state):
        import numpy as np

        from ..core.reuse import set_reuse_enabled

        engine = state["engine"]
        t0 = time.perf_counter()
        set_reuse_enabled(False)
        try:
            full = engine.pagerank(iterations=60, tolerance=1e-5)
        finally:
            set_reuse_enabled(None)
        t1 = time.perf_counter()
        incremental = engine.pagerank(
            iterations=60, tolerance=1e-5, incremental=True,
            warm_ranks=state["warm"],
        )
        t2 = time.perf_counter()
        full_s, incremental_s = t1 - t0, t2 - t1
        return {
            "incremental.full_s": full_s,
            "incremental.incremental_s": incremental_s,
            "incremental.speedup": (
                full_s / incremental_s if incremental_s > 0 else 0.0
            ),
            "incremental.full_iterations": float(full.iterations),
            "incremental.iterations": float(incremental.iterations),
            "incremental.rank_err": float(
                np.max(np.abs(full.ranks - incremental.ranks))
            ),
        }

    def collect(_state, payload) -> Dict[str, float]:
        return {k: float(v) for k, v in payload.items()}

    return Workload(
        "incremental.pagerank", "kernel", setup, run, collect
    )


def _serve_burst_workload() -> Workload:
    """Serving latency: a mixed query burst against the warm service.

    Runs :class:`repro.serve.bench.ServeBench` — duplicate and
    distinct queries over all five servable algorithms against an
    in-process :class:`~repro.serve.server.AnalyticsService` with a
    pre-warmed pool — and records per-request latency percentiles plus
    the coalescing hit rate. This is the number every later speedup
    must move: what a client actually waits.
    """

    def setup(profile: str):
        from ..serve.bench import ServeBench

        return ServeBench(profile=profile)

    def run(bench):
        return bench.run()

    def collect(_bench, payload) -> Dict[str, float]:
        return {name: float(value) for name, value in payload.items()}

    return Workload("serve.burst", "serve", setup, run, collect)


def _serve_mutate_workload() -> Workload:
    """Mutable-graph serving: mutation batches plus incremental
    re-queries against a warm session (:class:`repro.serve.bench.
    MutateBench`). Records mutate/re-query latency percentiles, the
    reuse-cache migration tallies, and the per-query reuse hit rate.
    """

    def setup(profile: str):
        from ..serve.bench import MutateBench

        return MutateBench(profile=profile)

    def run(bench):
        return bench.run()

    def collect(_bench, payload) -> Dict[str, float]:
        return {name: float(value) for name, value in payload.items()}

    return Workload("serve.mutate", "serve", setup, run, collect)


def _dataplane_convert_workload() -> Workload:
    """Cold conversion: graph → canonical CSR store file on disk.

    The one-time cost every dataset pays before all later opens are
    zero-copy. Each timed run writes a fresh file (the store's
    idempotence would otherwise turn repeats into no-ops).
    """

    def setup(profile: str):
        import tempfile

        from ..graphs.datasets import load_dataset

        return {
            "graph": load_dataset(_KERNEL_DATASET, profile),
            # Held in state so the finalizer reclaims the files.
            "tmp": tempfile.TemporaryDirectory(prefix="repro-bench-dp-"),
            "serial": 0,
        }

    def run(state):
        import os

        from ..graphs.io import save_store

        state["serial"] += 1
        path = os.path.join(state["tmp"].name, f"g{state['serial']}.gsx")
        save_store(state["graph"], path)
        return path

    def collect(state, path) -> Dict[str, float]:
        import os

        graph = state["graph"]
        return {
            "dataplane.file_bytes": float(os.path.getsize(path)),
            "dataplane.edges": float(graph.num_edges),
        }

    return Workload("dataplane.convert", "dataplane", setup, run, collect)


def _dataplane_open_workload() -> Workload:
    """Warm open: store file → memmap-backed Graph, first page touched.

    The steady-state cost every engine/pool worker pays instead of a
    full in-memory rebuild — header parse, three memmap views, the
    O(V) source-column expansion, and one faulted page.
    """

    def setup(profile: str):
        import os
        import tempfile

        from ..graphs.datasets import load_dataset
        from ..graphs.io import save_store

        tmp = tempfile.TemporaryDirectory(prefix="repro-bench-dp-")
        path = os.path.join(tmp.name, "g.gsx")
        save_store(load_dataset(_KERNEL_DATASET, profile), path)
        return {"tmp": tmp, "path": path}

    def run(state):
        from ..graphs.io import load_store

        graph = load_store(state["path"])
        # Touch one edge so the timing includes a real page fault, not
        # just view bookkeeping.
        if graph.num_edges:
            float(graph.edges.cols[0])
        return graph

    def collect(_state, graph) -> Dict[str, float]:
        return {
            "dataplane.vertices": float(graph.num_vertices),
            "dataplane.edges": float(graph.num_edges),
        }

    return Workload("dataplane.open", "dataplane", setup, run, collect)


def _dataplane_stream_workload() -> Workload:
    """Out-of-core PageRank under a deliberately tight residency budget.

    Streams two Equation-3 iterations through 1 MiB chunks — the
    worst-case shape for the chunk iterator (many chunk crossings per
    pass) — and records the degree-sorted executor balance alongside,
    so the scheduling quality the refactor promises is a gated metric,
    not an assertion in one test.
    """

    def setup(profile: str):
        import os
        import tempfile

        from ..graphs.datasets import load_dataset
        from ..graphs.io import save_store
        from ..storage.mmap_store import StoredGraph

        tmp = tempfile.TemporaryDirectory(prefix="repro-bench-dp-")
        path = os.path.join(tmp.name, "g.gsx")
        save_store(load_dataset(_KERNEL_DATASET, profile), path)
        return {"tmp": tmp, "stored": StoredGraph(path)}

    def run(state):
        from ..storage.stream import streaming_pagerank

        return streaming_pagerank(
            state["stored"], iterations=2, max_resident_bytes=1 << 20
        )

    def collect(state, result) -> Dict[str, float]:
        stored = state["stored"]
        stats = result.stats
        return {
            "dataplane.chunks": float(stats.chunks),
            "dataplane.max_chunk_bytes": float(stats.max_chunk_bytes),
            "dataplane.budget_bytes": float(stats.budget_bytes),
            "dataplane.balance": float(
                stored.schedule_balance(4)["balance"]
            ),
        }

    return Workload("dataplane.stream", "dataplane", setup, run, collect)


def _experiment_workload(experiment_id: str) -> Workload:
    """A registered paper artifact run through the executor, traced."""

    def setup(profile: str) -> str:
        return profile

    def run(profile: str):
        from ..experiments.executor import execute
        from .trace import get_tracer

        tracer = get_tracer()
        was_enabled = tracer.enabled
        marker = len(tracer.records())
        tracer.enabled = True
        try:
            report = execute(
                [experiment_id], profile=profile, jobs=1, disk_cache=False
            )
        finally:
            tracer.enabled = was_enabled
        return report, tracer.records()[marker:]

    def collect(_profile, payload) -> Dict[str, float]:
        from .summary import summarize_phases

        report, spans = payload
        metrics: Dict[str, float] = {}
        for row in summarize_phases(spans):
            slug = row["phase"].lower().replace(" ", "_")
            metrics[f"phase.{slug}.modelled_s"] = row["dur_us"] / 1e6
            metrics[f"phase.{slug}.operations"] = float(row["operations"])
            metrics[f"phase.{slug}.energy_j"] = float(row["energy_j"])
        manifest = report.manifest
        if manifest.entries:
            metrics["cache.hit_rate"] = float(manifest.cache_hit_rate)
        return metrics

    return Workload(f"exp.{experiment_id}", "experiment", setup, run, collect)


def _build_workloads() -> Dict[str, Workload]:
    workloads = [
        _engine_workload(
            "engine.pagerank", "col",
            lambda engine: engine.pagerank(iterations=1),
        ),
        _engine_workload(
            "engine.sssp", "row", lambda engine: engine.sssp(0)
        ),
        _layout_workload(),
        _shard_scan_workload(),
        _cam_search_workload(),
        _mac_accumulate_workload(),
        _traversal_superstep_workload(),
        _micro_traversal_workload(),
        _hw_pagerank_workload(),
        _incremental_pagerank_workload(),
        _serve_burst_workload(),
        _serve_mutate_workload(),
        _dataplane_convert_workload(),
        _dataplane_open_workload(),
        _dataplane_stream_workload(),
        _experiment_workload("abl-interval"),
        _experiment_workload("abl-xbar"),
        _experiment_workload("fig13"),
        _experiment_workload("table1"),
    ]
    return {w.name: w for w in workloads}


#: Registry of all named workloads.
WORKLOADS: Dict[str, Workload] = _build_workloads()

#: Named suites: (workload names, default profile, default repeats).
SUITES: Dict[str, Tuple[Tuple[str, ...], str, int]] = {
    "quick": (
        ("engine.pagerank", "cam.search", "mac.accumulate",
         "traversal.superstep", "micro.traversal", "hw.pagerank",
         "incremental.pagerank", "exp.abl-interval"),
        "tiny", 3,
    ),
    "kernels": (
        ("engine.pagerank", "engine.sssp", "layout.build", "shard.scan",
         "cam.search", "mac.accumulate", "traversal.superstep",
         "micro.traversal", "hw.pagerank"),
        "bench", 5,
    ),
    "experiments": (
        ("exp.abl-interval", "exp.abl-xbar", "exp.fig13", "exp.table1"),
        "bench", 3,
    ),
    "serve": (("serve.burst", "serve.mutate"), "tiny", 3),
    "dataplane": (
        ("dataplane.convert", "dataplane.open", "dataplane.stream"),
        "tiny", 3,
    ),
    "full": (tuple(WORKLOADS), "bench", 5),
}


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
@dataclass
class WorkloadResult:
    """One workload's measured wall-clock summary and metrics."""

    name: str
    kind: str
    wall_s: Dict[str, Any]
    metrics: Dict[str, float] = field(default_factory=dict)


def _wall_summary(runs: List[float]) -> Dict[str, Any]:
    median = statistics.median(runs)
    mad = statistics.median([abs(r - median) for r in runs])
    return {
        "median_s": median,
        "mad_s": mad,
        "n": len(runs),
        "runs_s": [round(r, 6) for r in runs],
    }


def run_workload(
    workload: Workload,
    profile: str,
    repeats: int,
    warmup: int = 1,
) -> WorkloadResult:
    """Measure one workload: median-of-``repeats`` with MAD noise bound.

    ``warmup`` untimed runs precede the measured ones so one-time costs
    (lazy imports, in-process cache fills) do not pollute the median.
    Metrics are collected from the final timed payload.

    The functional-execution memo is cleared before every run: a
    workload that repeats one kernel query would otherwise time the
    execution once and pricing alone on every later run.
    """
    from ..core.algorithms.execution import clear_memo

    if repeats < 1:
        raise ConfigError(f"repeats must be >= 1, got {repeats}")
    state = workload.setup(profile)
    for _ in range(max(warmup, 0)):
        clear_memo()
        workload.run(state)
    runs: List[float] = []
    payload = None
    for _ in range(repeats):
        clear_memo()
        start = time.perf_counter()
        payload = workload.run(state)
        runs.append(time.perf_counter() - start)
    return WorkloadResult(
        name=workload.name,
        kind=workload.kind,
        wall_s=_wall_summary(runs),
        metrics=workload.collect(state, payload),
    )


def make_record(
    suite: str,
    profile: str,
    repeats: int,
    workloads: Dict[str, Dict[str, Any]],
) -> Dict[str, Any]:
    """Assemble one schema-versioned, provenance-stamped record."""
    return {
        "schema": SCHEMA_VERSION,
        "suite": suite,
        "profile": profile,
        "repeats": repeats,
        "created_unix": round(time.time(), 3),
        "git_sha": git_sha(),
        "host": host_fingerprint(),
        "workloads": workloads,
    }


def run_suite(
    suite: str = "quick",
    profile: Optional[str] = None,
    repeats: Optional[int] = None,
    warmup: int = 1,
    out_dir: Optional[str] = None,
) -> Tuple[Dict[str, Any], Optional[str]]:
    """Run a named suite; returns ``(record, path)``.

    When ``out_dir`` is given the record is appended to that
    directory's ``BENCH_<suite>.json`` trajectory (``path`` is then the
    file written; otherwise ``None``).
    """
    try:
        names, default_profile, default_repeats = SUITES[suite]
    except KeyError:
        raise ConfigError(
            f"unknown bench suite {suite!r}; known: {sorted(SUITES)}"
        ) from None
    profile = profile if profile is not None else default_profile
    repeats = repeats if repeats is not None else default_repeats
    log.info(
        "bench.start", suite=suite, profile=profile, repeats=repeats,
        workloads=len(names),
    )
    results: Dict[str, Dict[str, Any]] = {}
    for name in names:
        result = run_workload(WORKLOADS[name], profile, repeats, warmup)
        results[name] = {
            "kind": result.kind,
            "wall_s": result.wall_s,
            "metrics": result.metrics,
        }
        log.debug(
            "bench.workload", workload=name,
            median_s=round(result.wall_s["median_s"], 6),
            mad_s=round(result.wall_s["mad_s"], 6),
        )
    record = make_record(suite, profile, repeats, results)
    path = None
    if out_dir is not None:
        path = append_record(bench_path(out_dir, suite), record)
    log.info(
        "bench.complete", suite=suite, workloads=len(results), path=path,
    )
    return record, path


# ----------------------------------------------------------------------
# The trajectory store
# ----------------------------------------------------------------------
def bench_path(directory: str, suite: str) -> str:
    """The trajectory file for one suite under ``directory``."""
    return os.path.join(directory, f"BENCH_{suite}.json")


def validate_record(record: Any) -> Dict[str, Any]:
    """Check one record against the schema; returns it, raises
    :class:`~repro.errors.ConfigError` on any shape violation."""
    if not isinstance(record, dict):
        raise ConfigError(f"bench record must be an object, got {type(record).__name__}")
    if record.get("schema") != SCHEMA_VERSION:
        raise ConfigError(
            f"bench record schema {record.get('schema')!r} is not the "
            f"supported version {SCHEMA_VERSION}"
        )
    for key, kind in (
        ("suite", str), ("profile", str), ("git_sha", str),
        ("created_unix", (int, float)), ("repeats", int),
        ("host", dict), ("workloads", dict),
    ):
        if not isinstance(record.get(key), kind):
            raise ConfigError(f"bench record field {key!r} is missing or mistyped")
    for name, entry in record["workloads"].items():
        if not isinstance(entry, dict):
            raise ConfigError(f"workload {name!r} entry is not an object")
        wall = entry.get("wall_s")
        if not isinstance(wall, dict):
            raise ConfigError(f"workload {name!r} has no wall_s summary")
        for key in ("median_s", "mad_s", "n"):
            if not isinstance(wall.get(key), (int, float)):
                raise ConfigError(
                    f"workload {name!r} wall_s.{key} is missing or mistyped"
                )
        metrics = entry.get("metrics", {})
        if not isinstance(metrics, dict) or any(
            not isinstance(v, (int, float)) for v in metrics.values()
        ):
            raise ConfigError(
                f"workload {name!r} metrics must map names to numbers"
            )
    return record


def append_record(path: str, record: Dict[str, Any]) -> str:
    """Append one validated record to a trajectory file (created on
    first use); returns ``path``."""
    validate_record(record)
    if os.path.exists(path):
        trajectory = load_trajectory(path)
        if trajectory["suite"] != record["suite"]:
            raise ConfigError(
                f"trajectory {path!r} holds suite "
                f"{trajectory['suite']!r}, not {record['suite']!r}"
            )
    else:
        trajectory = {
            "schema": SCHEMA_VERSION,
            "suite": record["suite"],
            "records": [],
        }
    trajectory["records"].append(record)
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(trajectory, handle, indent=2)
        handle.write("\n")
    return path


def load_trajectory(path: str) -> Dict[str, Any]:
    """Read and validate a ``BENCH_*.json`` trajectory file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read bench file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"bench file {path!r} is not valid JSON: {exc}"
        ) from exc
    if not isinstance(payload, dict) or not isinstance(
        payload.get("records"), list
    ):
        raise ConfigError(f"bench file {path!r} has no records array")
    if payload.get("schema") != SCHEMA_VERSION:
        raise ConfigError(
            f"bench file {path!r} schema {payload.get('schema')!r} is not "
            f"the supported version {SCHEMA_VERSION}"
        )
    if not payload["records"]:
        raise ConfigError(f"bench file {path!r} holds no records")
    for record in payload["records"]:
        validate_record(record)
    payload.setdefault("suite", payload["records"][-1]["suite"])
    return payload


def latest_record(trajectory: Dict[str, Any]) -> Dict[str, Any]:
    """The most recent record of a loaded trajectory."""
    return trajectory["records"][-1]


# ----------------------------------------------------------------------
# The comparator
# ----------------------------------------------------------------------
def metric_direction(name: str) -> str:
    """Which way a metric is allowed to move.

    ``"lower"`` — times and energy: growth is a regression.
    ``"higher"`` — efficiency ratios: decay is a regression.
    ``"neutral"`` — raw counts: drift is reported but never fails.
    """
    if name == "wall_s":
        return "lower"
    head = name.split(".", 1)[0]
    if head in ("modelled", "model", "phase") and name.endswith(
        ("_s", "_j")
    ):
        return "lower"
    if name.startswith(("serve.latency_", "serve.engine_run_")):
        return "lower"
    if name in (
        "cache.hit_rate",
        "xbar.occupancy",
        "xbar.full_frac",
        "serve.coalesce_hit_rate",
        "dataplane.balance",
        "hw.active_frac",
        "hw.parity_ok",
        "incremental.speedup",
        "reuse.hit_rate",
    ):
        return "higher"
    if name in ("incremental.full_s", "incremental.incremental_s"):
        # Raw wall times inside the workload body: host-dependent and
        # unguarded by the MAD bound, so they inform but never gate —
        # the speedup ratio is the gated metric.
        return "neutral"
    if name == "hw.imbalance":
        return "lower"
    return "neutral"


@dataclass(frozen=True)
class Delta:
    """One compared metric between two records."""

    workload: str
    metric: str
    baseline: float
    current: float
    direction: str
    verdict: str  # ok | regression | improvement | changed | new | removed
    noise_s: float = 0.0

    @property
    def ratio(self) -> float:
        """current / baseline (inf when the baseline is zero)."""
        if self.baseline == 0:
            return math.inf if self.current else 1.0
        return self.current / self.baseline


def _judge(
    direction: str,
    baseline: float,
    current: float,
    threshold: float,
    noise: float = 0.0,
) -> str:
    if baseline <= 0:
        return "ok" if current == baseline else "changed"
    rel = (current - baseline) / baseline
    moved_up = rel > threshold and (current - baseline) > noise
    moved_down = rel < -threshold and (baseline - current) > noise
    if direction == "lower":
        return "regression" if moved_up else (
            "improvement" if moved_down else "ok"
        )
    if direction == "higher":
        return "regression" if moved_down else (
            "improvement" if moved_up else "ok"
        )
    return "changed" if (moved_up or moved_down) else "ok"


def compare_records(
    baseline: Dict[str, Any],
    current: Dict[str, Any],
    threshold: float = DEFAULT_THRESHOLD,
    noise_k: float = DEFAULT_NOISE_K,
) -> List[Delta]:
    """Noise-aware diff of two records; one :class:`Delta` per metric.

    Wall-clock medians only regress when they move beyond ``threshold``
    relative *and* ``noise_k`` times the larger of the two MADs —
    a jittery machine cannot fail the gate on noise alone. Modelled
    metrics (deterministic) use the threshold alone.
    """
    validate_record(baseline)
    validate_record(current)
    deltas: List[Delta] = []
    base_workloads = baseline["workloads"]
    cur_workloads = current["workloads"]
    for name in sorted(set(base_workloads) | set(cur_workloads)):
        if name not in cur_workloads:
            deltas.append(
                Delta(name, "wall_s", 0.0, 0.0, "neutral", "removed")
            )
            continue
        if name not in base_workloads:
            deltas.append(Delta(name, "wall_s", 0.0, 0.0, "neutral", "new"))
            continue
        base_entry, cur_entry = base_workloads[name], cur_workloads[name]
        base_wall, cur_wall = base_entry["wall_s"], cur_entry["wall_s"]
        noise = noise_k * max(
            float(base_wall["mad_s"]), float(cur_wall["mad_s"])
        )
        deltas.append(
            Delta(
                workload=name,
                metric="wall_s",
                baseline=float(base_wall["median_s"]),
                current=float(cur_wall["median_s"]),
                direction="lower",
                verdict=_judge(
                    "lower", float(base_wall["median_s"]),
                    float(cur_wall["median_s"]), threshold, noise,
                ),
                noise_s=noise,
            )
        )
        base_metrics = base_entry.get("metrics", {})
        cur_metrics = cur_entry.get("metrics", {})
        for metric in sorted(set(base_metrics) & set(cur_metrics)):
            direction = metric_direction(metric)
            base_value = float(base_metrics[metric])
            cur_value = float(cur_metrics[metric])
            deltas.append(
                Delta(
                    workload=name,
                    metric=metric,
                    baseline=base_value,
                    current=cur_value,
                    direction=direction,
                    verdict=_judge(
                        direction, base_value, cur_value, threshold
                    ),
                )
            )
    return deltas


def has_regressions(deltas: List[Delta]) -> bool:
    """True when any compared metric regressed."""
    return any(d.verdict == "regression" for d in deltas)


def render_comparison(
    deltas: List[Delta], threshold: float = DEFAULT_THRESHOLD
) -> str:
    """Human-readable comparison: noteworthy rows plus a tally line."""
    noteworthy = [d for d in deltas if d.verdict != "ok"]
    lines: List[str] = []
    header = (
        f"{'workload':<20} {'metric':<30} {'baseline':>12} "
        f"{'current':>12} {'ratio':>8}  verdict"
    )
    lines.append(header)
    lines.append("-" * len(header))
    if not noteworthy:
        lines.append(
            f"(no metric moved beyond the {threshold:.0%} threshold)"
        )
    for delta in noteworthy:
        ratio = delta.ratio
        ratio_text = "inf" if math.isinf(ratio) else f"{ratio:.2f}x"
        lines.append(
            f"{delta.workload:<20.20} {delta.metric:<30.30} "
            f"{delta.baseline:>12.6g} {delta.current:>12.6g} "
            f"{ratio_text:>8}  {delta.verdict}"
        )
    counts: Dict[str, int] = {}
    for delta in deltas:
        counts[delta.verdict] = counts.get(delta.verdict, 0) + 1
    tally = ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
    lines.append("")
    lines.append(f"{len(deltas)} metrics compared: {tally}")
    return "\n".join(lines)
