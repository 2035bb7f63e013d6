"""Parallel, cache-aware execution engine for the experiment layer.

``run-all`` used to replay ~20 experiments strictly serially, rebuilding
identical partition grids and crossbar layouts dozens of times. This
module turns the sweep into a scheduled batch job:

* experiments are **grouped by cache affinity** — specs declaring the
  same dataset needs (:attr:`ExperimentSpec.cache_group`) land on the
  same worker, where the process-wide layout cache and the shared
  comparison matrix serve every member after the first;
* groups run **across a process pool** (``jobs`` workers, default
  ``os.cpu_count()``); ``jobs=1`` (or a single group) degrades to
  in-process execution with identical results;
* every worker reads/writes the **on-disk layout cache**, so a repeated
  sweep — or a worker joining mid-run — starts warm;
* each experiment contributes a **manifest entry** (wall time, cache
  hit/miss deltas, worker id, config fingerprint) so the bench
  trajectory can track where the time went.

Results are returned in registry order and are exactly what the serial
path produces: the same driver call with the same keywords, so report
payloads are byte-identical regardless of ``jobs``.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..config import ArchConfig
from ..core import cache as layout_cache
from ..errors import ConfigError
from ..obs.log import get_logger
from ..obs.metrics import get_metrics
from ..obs.trace import get_tracer
from .registry import EXPERIMENTS, ExperimentSpec, get_experiment
from .reporting import ExperimentResult

log = get_logger("repro.executor")


@dataclass(frozen=True)
class ManifestEntry:
    """Execution record of one experiment."""

    experiment_id: str
    wall_time_s: float
    worker: int  # pid of the process that ran the driver
    group: Tuple[str, ...]  # cache-affinity group (dataset keys)
    config_fingerprint: str
    cache: Dict[str, int]  # CacheStats delta attributable to this run

    def to_dict(self) -> dict:
        """JSON-serializable form."""
        return {
            "experiment_id": self.experiment_id,
            "wall_time_s": self.wall_time_s,
            "worker": self.worker,
            "group": list(self.group),
            "config_fingerprint": self.config_fingerprint,
            "cache": dict(self.cache),
        }


@dataclass
class RunManifest:
    """Per-run execution manifest emitted next to the JSON reports."""

    profile: str
    jobs: int
    cache_version: int = layout_cache.CACHE_VERSION
    cache_dir: Optional[str] = None
    wall_time_s: float = 0.0
    entries: List[ManifestEntry] = field(default_factory=list)
    schedule: Dict[str, object] = field(default_factory=dict)

    @property
    def cache_totals(self) -> Dict[str, int]:
        """Summed cache counters across all entries."""
        totals: Dict[str, int] = {}
        for entry in self.entries:
            for key, value in entry.cache.items():
                totals[key] = totals.get(key, 0) + value
        return totals

    @property
    def cache_stats(self) -> layout_cache.CacheStats:
        """The summed counters as one :class:`CacheStats`."""
        return layout_cache.CacheStats(**self.cache_totals)

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of grid/layout lookups served from either tier."""
        return self.cache_stats.hit_rate

    def to_dict(self) -> dict:
        """JSON-serializable form (written as ``manifest.json``)."""
        return {
            "profile": self.profile,
            "jobs": self.jobs,
            "cache_version": self.cache_version,
            "cache_dir": self.cache_dir,
            "wall_time_s": self.wall_time_s,
            "cache_totals": self.cache_totals,
            "cache_hit_rate": self.cache_hit_rate,
            "schedule": self.schedule,
            "experiments": [e.to_dict() for e in self.entries],
        }

    def summary(self) -> str:
        """One-line human summary for the CLI."""
        if not self.entries:
            # An empty run (e.g. ``--only`` matching nothing) has no
            # cache lookups; reporting a hit rate would be nonsense.
            return (
                f"0 experiments (nothing matched the request); "
                f"{self.wall_time_s:.2f}s elapsed"
            )
        stats = self.cache_stats
        return (
            f"{len(self.entries)} experiments in {self.wall_time_s:.2f}s "
            f"({self.jobs} worker{'s' if self.jobs != 1 else ''}); "
            f"layout/grid cache: {stats.hits} hits / {stats.misses} misses "
            f"({stats.hit_rate:.0%} hit rate)"
        )


@dataclass
class ExecutionReport:
    """Everything one executor invocation produced."""

    results: Dict[str, ExperimentResult]
    manifest: RunManifest


def resolve_jobs(jobs: Optional[int]) -> int:
    """Worker-count default: ``os.cpu_count()`` when unspecified."""
    if jobs is None:
        return os.cpu_count() or 1
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    return jobs


def group_weight(
    group: Tuple[str, ...], profile: str = "bench"
) -> int:
    """Estimated edge workload of one cache-affinity group.

    The sum of every member dataset's profile-scaled edge count (from
    the Table II registry). Edge count is the honest proxy for a
    group's cost: partitioning, layout packing, and every per-edge
    hardware event scale with it, while experiment *count* (the old
    scheduling key) says nothing — one LiveJournal experiment outweighs
    a dozen WikiVote ones. Dataset-free groups (tables, parameter
    sweeps) weigh a nominal 1 so they sort last.
    """
    from ..graphs.datasets import DATASETS

    total = 0
    for key in group:
        spec = DATASETS.get(key)
        if spec is not None:
            total += spec.sizes(profile)[1]
    return max(total, 1)


def plan_groups(
    specs: Sequence[ExperimentSpec],
    profile: str = "bench",
) -> List[Tuple[ExperimentSpec, ...]]:
    """Partition specs into degree-sorted cache-affinity groups.

    Specs with equal :attr:`ExperimentSpec.cache_group` (the datasets
    their drivers load) share partition grids, layouts, and — for the
    figure experiments — the whole comparison matrix, so scheduling
    them on one worker converts recomputation into in-process cache
    hits. Groups come back **heaviest-first by estimated edge count**
    (:func:`group_weight`): with a pool pulling groups in submission
    order this is the LPT heuristic, so the big-graph groups start
    immediately and no worker is left grinding LiveJournal alone while
    the rest sit idle behind a tail of tiny groups.
    """
    by_group: Dict[Tuple[str, ...], List[ExperimentSpec]] = {}
    for spec in specs:
        by_group.setdefault(spec.cache_group, []).append(spec)
    groups = [tuple(members) for members in by_group.values()]
    groups.sort(
        key=lambda g: (group_weight(g[0].cache_group, profile), len(g)),
        reverse=True,
    )
    return groups


def schedule_summary(
    groups: Sequence[Tuple[ExperimentSpec, ...]],
    jobs: int,
    profile: str = "bench",
) -> Dict[str, object]:
    """Manifest accounting of the planned edge-count balance.

    Simulates the pool's greedy pull (groups in planned order, each to
    the lightest worker) and reports the per-worker edge loads plus a
    ``balance`` ratio (mean/max; 1.0 is perfect). Purely an estimate —
    the live pool assigns by completion order — but it is exactly the
    quantity the degree-sorted ordering optimizes, so regressions in
    the planner surface here.
    """
    weights = [group_weight(g[0].cache_group, profile) for g in groups]
    loads = [0] * max(jobs, 1)
    for weight in weights:
        loads[loads.index(min(loads))] += weight
    peak = max(loads) if loads else 0
    mean = sum(loads) / len(loads) if loads else 0.0
    return {
        "groups": [
            {"datasets": list(g[0].cache_group), "weight": w, "members": len(g)}
            for g, w in zip(groups, weights)
        ],
        "worker_edge_loads": loads,
        "balance": (mean / peak) if peak else 1.0,
    }


def _run_group(
    experiment_ids: Tuple[str, ...],
    profile: str,
    disk_cache_dir: Optional[str],
    trace: bool = False,
) -> Tuple[List[Tuple[str, ExperimentResult, dict]], List[dict]]:
    """Run one affinity group serially (in a worker or in-process).

    Returns ``(experiment_id, result, manifest_fields)`` triples plus
    the spans this group recorded; the cache counters are deltas
    against the group-local snapshot so each experiment's manifest
    entry reflects only its own lookups.

    ``trace=True`` is the *pool-worker* protocol: it enables the
    worker-local tracer and drains its buffer into the second return
    element for the parent to merge. In-process callers leave it False
    — their spans land directly in the calling process's tracer.
    """
    tracer = get_tracer()
    if trace:
        tracer.enabled = True
    if disk_cache_dir is not None:
        layout_cache.enable_disk_cache(disk_cache_dir)
    fingerprint = layout_cache.config_fingerprint(ArchConfig())
    out: List[Tuple[str, ExperimentResult, dict]] = []
    with tracer.span(
        "shard", category="shard",
        experiments=list(experiment_ids), worker=os.getpid(),
    ):
        for experiment_id in experiment_ids:
            spec = get_experiment(experiment_id)
            before = layout_cache.stats_snapshot()
            start = time.perf_counter()
            with tracer.span(
                experiment_id, category="experiment", profile=profile
            ):
                result = spec.driver(**spec.profile_kwargs(profile))
            wall = time.perf_counter() - start
            after = layout_cache.stats_snapshot()
            log.debug(
                "experiment.complete", experiment_id=experiment_id,
                wall_time_s=round(wall, 4), worker=os.getpid(),
            )
            out.append(
                (
                    experiment_id,
                    result,
                    {
                        "wall_time_s": wall,
                        "worker": os.getpid(),
                        "group": spec.cache_group,
                        "config_fingerprint": fingerprint,
                        "cache": layout_cache.CacheStats.delta(
                            before, after
                        ),
                    },
                )
            )
    # Only drain for pool workers; the in-process path's spans stay in
    # (and are exported from) the caller's own tracer.
    return out, (tracer.drain() if trace else [])


def execute(
    experiment_ids: Optional[Sequence[str]] = None,
    profile: str = "bench",
    jobs: Optional[int] = None,
    disk_cache: bool = True,
    cache_dir: Optional[str] = None,
) -> ExecutionReport:
    """Run experiments across the pool and return results + manifest.

    Parameters
    ----------
    experiment_ids:
        Subset to run, in any order; ``None`` means every registered
        experiment. Results always come back in registry order.
    profile:
        Dataset scale passed to every driver that accepts it.
    jobs:
        Worker processes; ``None`` uses ``os.cpu_count()``. With one
        effective worker everything runs in-process (no pool).
    disk_cache:
        Attach the persistent layout cache (``cache_dir``,
        ``$REPRO_CACHE_DIR``, or ``~/.cache/repro``) so repeated runs
        and pool workers start warm.

    When the calling process's tracer is enabled, the whole invocation
    is one ``run`` span with ``shard`` (affinity group) and
    ``experiment`` spans nested beneath; pool workers trace into their
    own buffers, which are merged back here, so one trace file covers
    every process.
    """
    if experiment_ids is None:
        specs = list(EXPERIMENTS.values())
    else:
        specs = [get_experiment(i) for i in experiment_ids]
    jobs = resolve_jobs(jobs)
    resolved_dir: Optional[str] = None
    if disk_cache:
        resolved_dir = layout_cache.enable_disk_cache(cache_dir)
    groups = plan_groups(specs, profile)
    id_groups = [
        tuple(spec.experiment_id for spec in group) for group in groups
    ]
    manifest = RunManifest(
        profile=profile, jobs=min(jobs, max(len(groups), 1)),
        cache_dir=resolved_dir,
    )
    manifest.schedule = schedule_summary(groups, manifest.jobs, profile)
    tracer = get_tracer()
    log.info(
        "run.start", profile=profile, experiments=len(specs),
        groups=len(id_groups), jobs=manifest.jobs,
        cache_dir=resolved_dir,
    )
    start = time.perf_counter()
    raw: Dict[str, Tuple[ExperimentResult, dict]] = {}
    with tracer.span(
        "execute", category="run", profile=profile,
        experiments=len(specs), jobs=manifest.jobs,
    ):
        if manifest.jobs <= 1:
            for ids in id_groups:
                triples, _ = _run_group(ids, profile, resolved_dir)
                for experiment_id, result, meta in triples:
                    raw[experiment_id] = (result, meta)
        else:
            with ProcessPoolExecutor(max_workers=manifest.jobs) as pool:
                futures = [
                    pool.submit(
                        _run_group, ids, profile, resolved_dir,
                        tracer.enabled,
                    )
                    for ids in id_groups
                ]
                for future in futures:
                    triples, worker_spans = future.result()
                    tracer.ingest(worker_spans)
                    for experiment_id, result, meta in triples:
                        raw[experiment_id] = (result, meta)
    manifest.wall_time_s = time.perf_counter() - start
    ordered = [
        spec.experiment_id
        for spec in EXPERIMENTS.values()
        if spec.experiment_id in raw
    ]
    results: Dict[str, ExperimentResult] = {}
    for experiment_id in ordered:
        result, meta = raw[experiment_id]
        results[experiment_id] = result
        manifest.entries.append(
            ManifestEntry(experiment_id=experiment_id, **meta)
        )
    _publish_metrics(manifest)
    log.info(
        "run.complete", experiments=len(manifest.entries),
        wall_time_s=round(manifest.wall_time_s, 4),
        cache_hit_rate=round(manifest.cache_hit_rate, 4),
    )
    return ExecutionReport(results=results, manifest=manifest)


def _publish_metrics(manifest: RunManifest) -> None:
    """Fold one run's manifest into the process metrics registry.

    Cache counters come from the manifest's per-experiment deltas (not
    ``stats_snapshot()``), so lookups performed inside pool workers are
    counted too.
    """
    registry = get_metrics()
    registry.counter("executor.runs").inc()
    registry.counter("executor.experiments").inc(len(manifest.entries))
    groups = {entry.group for entry in manifest.entries}
    registry.counter("executor.groups").inc(len(groups))
    registry.gauge("executor.jobs").set(manifest.jobs)
    registry.counter("executor.wall_s").inc(manifest.wall_time_s)
    wall_hist = registry.histogram("executor.experiment_wall_s")
    for entry in manifest.entries:
        wall_hist.observe(entry.wall_time_s)
    for name, value in manifest.cache_totals.items():
        if value:
            registry.counter(f"cache.{name}").inc(value)
    if manifest.entries:
        registry.gauge("cache.hit_rate").set(manifest.cache_hit_rate)
    balance = manifest.schedule.get("balance")
    if balance is not None:
        registry.gauge("executor.schedule_balance").set(float(balance))
