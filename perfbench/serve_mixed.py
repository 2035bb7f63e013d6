"""``serve-mixed``: a closed loop of two clients against the query service.

Set-up starts an in-process ``AnalyticsService(workers=2)`` over empty
caches and warms its WV and SD sessions (profile ``bench``). Then two
clients, each with its own seeded stream, send requests in a closed
loop: a client's next request waits for its previous reply.

A client's stream is a sequence of blocks. Every block holds the same
multiset of requests in the same order, so any seed gives the same mix
and the medians stay comparable across seeds: 24 queries (18 on SD,
6 on WV; PageRank, BFS, SSSP and WCC) and 2 mutation batches on WV,
each followed by an incremental PageRank on WV — 26 requests, of which
8% are mutations. The seed picks the BFS/SSSP sources and the mutated
edges. SD is never mutated, so a seeded sample of its answers is
checked against ``repro.baselines.reference``. Three quarters of the
queries go to SD, so the query median lies inside the SD cluster of
latencies (a 50/50 WV/SD mix puts it in the gap between the two
clusters, where it swings).

A pass is one block of both clients; an operation is one query.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.baselines import reference
from repro.core import cache as layout_cache
from repro.graphs.datasets import load_dataset
from repro.obs import context as obs_context
from repro.obs.metrics import MetricsRegistry
from repro.serve.protocol import MutateRequest, QueryRequest, summarize_result
from repro.serve.server import AnalyticsService

from common import (counter_hit_rate, dir_mb, hub_vertices, layer_metrics,
                    median, peak_rss_mb, reuse_counters, reuse_metrics, tail)
from layers import Tracer

PROFILE = "bench"
CLIENTS = 2

#: One block's queries: (dataset, algorithm, params or None for a
#: seeded source, count).
BLOCK_QUERIES: Tuple[Tuple[str, str, Optional[Dict], int], ...] = (
    ("SD", "pagerank", {"iterations": 5}, 4),
    ("SD", "pagerank", {"iterations": 10}, 2),
    ("SD", "bfs", None, 7),
    ("SD", "sssp", None, 4),
    ("SD", "wcc", {}, 1),
    ("WV", "pagerank", {"iterations": 10}, 1),
    ("WV", "bfs", None, 1),
    ("WV", "sssp", None, 1),
    ("WV", "wcc", {}, 1),
)
MUTATIONS_PER_BLOCK = 2
MUTATE_INSERTS = 8
MUTATE_DELETES = 4
#: SD answers checked against the references per run, per algorithm.
CHECKS_PER_ALGORITHM = 2


@dataclass(frozen=True)
class Request:
    kind: str  # "query" or "mutate"
    dataset: str
    algorithm: str = ""
    params: Dict[str, Any] = field(default_factory=dict)
    inserts: Tuple[Tuple[int, int], ...] = ()
    deletes: Tuple[Tuple[int, int], ...] = ()


def client_stream(seed: int, client: int, sources: Dict[str, np.ndarray],
                  wv_vertices: int):
    """Yield the blocks of one client's request stream.

    ``sources`` maps a dataset to the vertices a BFS/SSSP may start
    from. The same (seed, client) always yields the same blocks.
    """
    rng = np.random.default_rng([seed, client])
    # Every client runs the same fixed order (see _measure), so each
    # round pairs two requests of one kind: identical PageRank and WCC
    # queries coalesce into one engine run, BFS/SSSP queries with
    # different sources and the two mutations queue on the session.
    order = np.random.default_rng(0).permutation(
        sum(count for *_rest, count in BLOCK_QUERIES) + MUTATIONS_PER_BLOCK)
    while True:
        items: List[Tuple[Request, ...]] = []
        for dataset, algorithm, params, count in BLOCK_QUERIES:
            for _ in range(count):
                if params is None:
                    source = int(rng.choice(sources[dataset]))
                    query_params = {"source": source}
                else:
                    query_params = dict(params)
                items.append((Request("query", dataset, algorithm,
                                      query_params),))
        for _ in range(MUTATIONS_PER_BLOCK):
            inserts = rng.integers(0, wv_vertices, size=(MUTATE_INSERTS, 2))
            deletes = rng.integers(0, wv_vertices, size=(MUTATE_DELETES, 2))
            items.append((
                Request("mutate", "WV",
                        inserts=tuple(map(tuple, inserts.tolist())),
                        deletes=tuple(map(tuple, deletes.tolist()))),
                Request("query", "WV", "pagerank",
                        {"iterations": 10, "incremental": True}),
            ))
        yield [request for index in order for request in items[index]]


@dataclass
class Outcome:
    request: Request
    latency_s: float
    ok: bool
    result: Any = None


async def _send(service, request: Request) -> Outcome:
    """One request, timed from send to reply; a failure is an outcome."""
    start = time.perf_counter()
    try:
        if request.kind == "mutate":
            result = await service.mutate(MutateRequest(
                dataset=request.dataset, profile=PROFILE,
                inserts=[list(e) for e in request.inserts],
                deletes=[list(e) for e in request.deletes]))
        else:
            result = await service.submit(QueryRequest(
                dataset=request.dataset, algorithm=request.algorithm,
                params=request.params, profile=PROFILE))
        ok = True
    except Exception as exc:  # every failure counts; keep going
        result, ok = repr(exc), False
    return Outcome(request, time.perf_counter() - start, ok, result)


async def _measure(service, streams, seconds: float):
    """Run whole blocks in lockstep rounds until ``seconds`` have passed.

    In round i each client sends the i-th request of its block and waits
    for the reply; the next round starts when both replies are in.
    Which requests overlap is then fixed by the block order instead of
    by timing, which made free-running clients' medians swing 15-20%
    from seed to seed.
    """
    outcomes: List[Outcome] = []
    block_walls: List[float] = []
    start = time.perf_counter()
    while time.perf_counter() < start + seconds:
        block_start = time.perf_counter()
        for requests in zip(*(next(blocks) for blocks in streams)):
            outcomes += await asyncio.gather(
                *(_send(service, request) for request in requests))
        block_walls.append(time.perf_counter() - block_start)
    return outcomes, block_walls, start, time.perf_counter()


def _check(outcomes: List[Outcome], seed: int, graph) -> Tuple[int, int]:
    """Compare a seeded sample of SD answers with the references."""
    rng = np.random.default_rng([seed, 99])
    attempted = failed = 0
    for algorithm in ("pagerank", "bfs", "sssp"):
        pool = [o for o in outcomes if o.ok and o.request.dataset == "SD"
                and o.request.algorithm == algorithm]
        picks = rng.choice(len(pool), size=min(CHECKS_PER_ALGORITHM,
                                               len(pool)), replace=False)
        for index in picks:
            outcome = pool[int(index)]
            got = outcome.result.payload
            params = outcome.request.params
            attempted += 1
            if algorithm == "pagerank":
                iterations = params["iterations"]
                ranks = reference.pagerank(graph, iterations=iterations)
                want = summarize_result("pagerank", SimpleNamespace(
                    ranks=ranks, iterations=iterations))
                ok = (got["top_vertices"] == want["top_vertices"]
                      and np.allclose(got["top_ranks"], want["top_ranks"],
                                      rtol=1e-9)
                      and np.isclose(got["rank_sum"], want["rank_sum"],
                                     rtol=1e-9))
            else:
                kernel = getattr(reference, algorithm)
                distances = kernel(graph, params["source"])
                want = summarize_result(algorithm, SimpleNamespace(
                    source=params["source"], supersteps=0,
                    distances=distances))
                ok = (got["reached"] == want["reached"]
                      and np.isclose(got["max_distance"], want["max_distance"],
                                     rtol=1e-9))
                if algorithm == "bfs":
                    ok = ok and got["checksum"] == want["checksum"]
            failed += int(not ok)
    return attempted, failed


def run(seed: int, seconds: float, trace: bool, work: Path):
    return asyncio.run(_run(seed, seconds, trace, work))


def _streams(seed: int):
    graphs = {key: load_dataset(key, PROFILE) for key in ("SD", "WV")}
    sources = {key: hub_vertices(g) for key, g in graphs.items()}
    streams = [client_stream(seed, c, sources, graphs["WV"].num_vertices)
               for c in range(CLIENTS)]
    return streams, graphs["SD"]


def _summary(outcomes: List[Outcome], block_walls: List[float],
             window_s: float):
    """(end-to-end metrics, details, serve layer metrics) of one
    measurement."""
    queries = [o.latency_s for o in outcomes
               if o.ok and o.request.kind == "query"]
    mutates = [o.latency_s for o in outcomes
               if o.ok and o.request.kind == "mutate"]
    pct, p_tail = tail(queries)
    info = {
        "requests": len(outcomes),
        "blocks": len(block_walls),
        "query_p50_ms": round(1000 * median(queries), 2),
        "query_tail": (f"p{pct:.1f} = {1000 * p_tail:.2f} ms "
                       f"(n={len(queries)})"),
        "mutate_p50_ms": round(1000 * median(mutates), 2),
        "queries_per_s": round(len(queries) / window_s, 3),
    }
    metrics = {
        "wall_s": median(block_walls),
        "op_p50_ms": 1000.0 * median(queries),
        "throughput_per_s": len(outcomes) / window_s,
    }
    layer = {
        "serve.query_p95_ms": 1000.0 * p_tail,
        "serve.query_samples": float(len(queries)),
        "serve.mutate_p50_ms": 1000.0 * median(mutates),
    }
    return metrics, info, layer


async def _run(seed: int, seconds: float, trace: bool, work: Path):
    start = time.perf_counter()
    service = AnalyticsService(workers=CLIENTS, registry=MetricsRegistry())
    service.preload(["WV", "SD"], PROFILE)
    setup_s = time.perf_counter() - start
    try:
        return await _serve(service, setup_s, work, seed, seconds, trace)
    finally:
        await service.aclose()


async def _serve(service, setup_s: float, work: Path, seed: int,
                 seconds: float, trace: bool):
    disk = dir_mb(work / "cache", work / "store")
    streams, sd_graph = _streams(seed)
    outcomes, block_walls, start, end = await _measure(service, streams,
                                                       seconds)
    metrics, info, _layer = _summary(outcomes, block_walls, end - start)
    info["seed"] = seed
    attempted = len(outcomes)
    failed = sum(not o.ok for o in outcomes)
    if trace:
        # The traced repeat replaces the sample the checks look at.
        metrics, outcomes = await _traced(service, streams, seconds,
                                          block_walls, disk, info)
        attempted += len(outcomes)
        failed += sum(not o.ok for o in outcomes)
    else:
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = peak_rss_mb()
    checked, wrong = _check(outcomes, seed, sd_graph)
    info["reference_checks"] = checked
    return metrics, attempted + checked, failed + wrong, info


async def _traced(service, streams, seconds: float, plain_walls, disk: float,
                  info: Dict):
    """Repeat the measurement with the tracer on; the per-block wall
    difference against the untraced measurement is the overhead."""
    engine_runs: Dict[str, float] = {}

    def on_span(layer: str, begin: float, end: float) -> None:
        if layer == "core.engine.run":
            ctx = obs_context.current()
            if ctx is not None:
                engine_runs[ctx.trace_id] = end - begin

    reuse_before = reuse_counters()
    stats_before = service.stats()
    cache_before = layout_cache.stats_snapshot()
    tracer = Tracer(on_span=on_span).install()
    try:
        outcomes, block_walls, start, end = await _measure(service, streams,
                                                           seconds)
    finally:
        tracer.restore()
    stats = service.stats()
    cache_delta = layout_cache.CacheStats.delta(
        cache_before, layout_cache.stats_snapshot())
    _metrics, info["traced"], layer = _summary(outcomes, block_walls,
                                               end - start)
    waits = [o.latency_s - engine_runs[o.result.trace_id]
             for o in outcomes
             if o.ok and o.request.kind == "query" and not o.result.coalesced
             and o.result.trace_id in engine_runs]
    queries = stats["queries"] - stats_before["queries"]
    coalesced = stats["coalesced"] - stats_before["coalesced"]
    pool = service.registry
    layer.update(reuse_metrics(reuse_before, reuse_counters()))
    layer.update({
        "serve.queue_wait_ms": 1000.0 * median(waits),
        "serve.engine_run_p50_ms": 1000.0 * median(engine_runs.values()),
        "serve.coalesce_hit_rate": coalesced / queries if queries else 0.0,
        "serve.pool.sessions_created": float(
            pool.counter("serve.pool.sessions_created").value),
        "serve.pool.evictions": float(
            pool.counter("serve.pool.evictions").value),
        "core.cache.hit_rate": counter_hit_rate(cache_delta),
        "core.cache.disk_mb": disk,
    })
    summary = tracer.summary(start, end)
    info["missing_targets"] = summary["missing"]
    overhead = median(block_walls) - median(plain_walls)
    return layer_metrics(summary, layer, overhead), outcomes
