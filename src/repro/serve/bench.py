"""ServeBench: serving-latency measurement through the bench store.

Every batch-side speedup already lands in ``BENCH_<suite>.json``
trajectories; this workload gives the *serving* path the same
treatment, so later engine/cache/pool work gets a p50/p99 number, not
just a kernel median. One run = one mixed query burst against a fresh
in-process :class:`~repro.serve.server.AnalyticsService`:

* duplicate queries (same graph, algorithm, params) issued
  concurrently, proving the coalescing window under load;
* distinct-parameter variants of the same algorithm, proving they do
  *not* coalesce;
* all five servable algorithms, collaborative filtering included.

The collected metrics are flat bench-store values:
``serve.latency_p50_s`` / ``serve.latency_p99_s`` (per-request service
latency percentiles), ``serve.coalesce_hit_rate``, and the raw
query/engine-run counts. :mod:`repro.obs.bench` registers this as the
``serve.burst`` workload of the ``serve`` suite, appending to
``BENCH_serve.json``.

:class:`MutateBench` gives the mutable-graph path the same treatment:
seeded edge-mutation batches against a warm session, each followed by
an incremental PageRank re-query, recording mutate/re-query latency
percentiles and the per-query reuse hit rate (the ``serve.mutate``
workload of the same suite).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from ..core.algorithms.execution import clear_memo
from ..obs.metrics import MetricsRegistry
from .protocol import MutateRequest, QueryRequest
from .server import AnalyticsService


def default_burst(profile: str) -> Tuple[QueryRequest, ...]:
    """The standard mixed burst (fixed composition, so trajectories
    stay comparable): 18 queries resolving to 7 distinct engine runs."""
    mk = lambda alg, params, dataset="WV": QueryRequest(  # noqa: E731
        dataset=dataset, algorithm=alg, params=params, profile=profile
    )
    return (
        # 4-way duplicate PageRank (coalesces to one run) ...
        *(mk("pagerank", {"iterations": 5}) for _ in range(4)),
        # ... plus a distinct-parameter variant (must NOT coalesce).
        mk("pagerank", {"iterations": 10}),
        *(mk("bfs", {"source": 0}) for _ in range(3)),
        *(mk("sssp", {"source": 0}) for _ in range(3)),
        *(mk("wcc", {}) for _ in range(3)),
        *(
            mk(
                "cf",
                {"num_features": 4, "epochs": 1},
                dataset="NF",
            )
            for _ in range(4)
        ),
    )


@dataclass
class ServeBench:
    """One reproducible serving burst; ``run()`` returns flat metrics.

    ``run_delay_s`` injects a small artificial kernel latency so the
    coalescing window is deterministic across hosts (without it, a
    fast machine could finish the first tiny-profile run before the
    event loop has admitted the duplicates, making the hit rate
    noise). It inflates every latency by the same constant, so
    percentile *trajectories* remain comparable.
    """

    profile: str = "tiny"
    run_delay_s: float = 0.002
    max_pending: int = 64
    workers: int = 4
    results: List[Dict[str, float]] = field(default_factory=list)

    def queries(self) -> Tuple[QueryRequest, ...]:
        return default_burst(self.profile)

    # ------------------------------------------------------------------
    def run(self) -> Dict[str, float]:
        """Issue the burst; returns the bench-store metric mapping."""
        return asyncio.run(self._run())

    async def _run(self) -> Dict[str, float]:
        # A private registry keeps the burst's counters per-run (the
        # process registry would accumulate across bench repeats).
        service = AnalyticsService(
            max_pending=self.max_pending,
            workers=self.workers,
            run_delay_s=self.run_delay_s,
            registry=MetricsRegistry(),
        )
        try:
            burst = self.queries()
            # Warm the pool outside the measured burst: serving
            # latency, not cold-start latency, is the tracked metric.
            await asyncio.gather(
                *(
                    service.submit(query)
                    for query in {
                        q.session_selector: q for q in burst
                    }.values()
                )
            )
            # The warm-up's traces would let the burst's re-issued
            # queries price a stored execution instead of running it.
            clear_memo()
            warm_runs = service.stats()["engine_runs"]
            results = await asyncio.gather(
                *(service.submit(query) for query in burst)
            )
            stats = service.stats()
            latencies = np.array(
                [r.latency_s for r in results], dtype=np.float64
            )
            return {
                "serve.latency_p50_s": float(
                    np.percentile(latencies, 50)
                ),
                "serve.latency_p99_s": float(
                    np.percentile(latencies, 99)
                ),
                "serve.latency_mean_s": float(latencies.mean()),
                "serve.coalesce_hit_rate": float(
                    stats["coalesced"] / len(burst)
                ),
                "serve.queries": float(len(burst)),
                "serve.engine_runs": float(
                    stats["engine_runs"] - warm_runs
                ),
                "serve.shed": float(stats["shed"]),
                "serve.errors": float(stats["errors"]),
            }
        finally:
            await service.aclose()


@dataclass
class MutateBench:
    """Mutate/re-query cycles against a warm session; flat metrics.

    One run = ``rounds`` cycles of (edge mutation batch → incremental
    PageRank re-query) against a session whose ranks converged before
    measurement started. This is the serving cost of a *changing*
    graph: how long a mutation takes to rebind the session (grid
    derivation, layout re-warm, reuse-cache migration) and how fast
    the next query answers from warm state instead of a cold
    recompute. The mutation batches are seeded, so every run applies
    the same edit sequence and trajectories stay comparable.
    """

    profile: str = "tiny"
    rounds: int = 4
    batch: int = 8
    max_pending: int = 64
    workers: int = 4

    # ------------------------------------------------------------------
    def run(self) -> Dict[str, float]:
        """Run the cycles; returns the bench-store metric mapping."""
        return asyncio.run(self._run())

    async def _run(self) -> Dict[str, float]:
        # Private registry, like ServeBench: per-run counters.
        service = AnalyticsService(
            max_pending=self.max_pending,
            workers=self.workers,
            registry=MetricsRegistry(),
        )
        try:
            converge = QueryRequest(
                dataset="WV", algorithm="pagerank",
                params={"iterations": 30, "tolerance": 1e-5},
                profile=self.profile,
            )
            # Warm the session and converge ranks outside measurement:
            # the tracked numbers are steady-state mutate/re-query
            # costs, not cold-start.
            await service.submit(converge)
            sessions = service.stats()["pool"]["sessions"]
            num_vertices = int(sessions[0]["vertices"])
            rng = np.random.default_rng(17)
            mutate_lat: List[float] = []
            requery_lat: List[float] = []
            hit_rates: List[float] = []
            invalidated = 0
            for _ in range(self.rounds):
                inserts = rng.integers(
                    0, num_vertices, size=(self.batch, 2)
                )
                deletes = rng.integers(
                    0, num_vertices, size=(self.batch // 2, 2)
                )
                summary = await service.mutate(
                    MutateRequest(
                        dataset="WV",
                        inserts=inserts.tolist(),
                        deletes=deletes.tolist(),
                        profile=self.profile,
                    )
                )
                mutate_lat.append(float(summary["latency_s"]))
                invalidated += int(summary["reuse_invalidated"])
                result = await service.submit(
                    QueryRequest(
                        dataset="WV", algorithm="pagerank",
                        params={
                            "iterations": 30, "tolerance": 1e-5,
                            "incremental": True,
                        },
                        profile=self.profile,
                    )
                )
                requery_lat.append(float(result.latency_s))
                hit_rates.append(
                    float(result.modelled.get("reuse_hit_rate", 0.0))
                )
            stats = service.stats()
            mutate_arr = np.array(mutate_lat, dtype=np.float64)
            requery_arr = np.array(requery_lat, dtype=np.float64)
            return {
                "serve.latency_mutate_p50_s": float(
                    np.percentile(mutate_arr, 50)
                ),
                "serve.latency_mutate_p99_s": float(
                    np.percentile(mutate_arr, 99)
                ),
                "serve.latency_requery_p50_s": float(
                    np.percentile(requery_arr, 50)
                ),
                "serve.latency_requery_p99_s": float(
                    np.percentile(requery_arr, 99)
                ),
                "reuse.hit_rate": float(np.mean(hit_rates)),
                "serve.mutations": float(stats["mutations"]),
                "serve.mutate_reuse_invalidated": float(invalidated),
                "serve.errors": float(stats["errors"]),
            }
        finally:
            await service.aclose()
