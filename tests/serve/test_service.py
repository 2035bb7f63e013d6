"""Service-level proofs: coalescing, isolation, quotas, shedding.

The headline guarantee — N identical concurrent queries execute exactly
one engine run — is asserted through the ``serve.*`` metrics counters,
not timing: each service here meters into a private
:class:`~repro.obs.metrics.MetricsRegistry`, so counter values are
exact, not racy.
"""

import asyncio

import pytest

from repro.config import ArchConfig
from repro.core.engine import GaaSXEngine
from repro.errors import (
    QueryTimeoutError,
    QuotaExceededError,
    SessionPoolExhaustedError,
)
from repro.graphs.datasets import load_dataset
from repro.obs.metrics import MetricsRegistry
from repro.serve import AnalyticsService, QueryRequest
from repro.serve.protocol import SERVABLE_ALGORITHMS, summarize_result


def make_service(**kwargs):
    kwargs.setdefault("registry", MetricsRegistry())
    return AnalyticsService(**kwargs)


def run(coro):
    return asyncio.run(coro)


async def submit_burst(service, queries):
    """Submit all queries concurrently; returns results in order."""
    return await asyncio.gather(
        *(service.submit(q) for q in queries), return_exceptions=True
    )


class TestCoalescing:
    def test_identical_concurrent_queries_run_once(self):
        """Ten equal queries -> exactly one engine run, nine coalesced."""
        service = make_service(run_delay_s=0.05)
        query = QueryRequest(
            "WV", "pagerank", params={"iterations": 4}, profile="tiny"
        )
        try:
            service.preload(["WV"], "tiny")
            results = run(submit_burst(service, [query] * 10))
        finally:
            service.close()
        assert not any(isinstance(r, Exception) for r in results)
        registry = service.registry.snapshot()
        assert registry["serve.queries"] == 10
        assert registry["serve.engine_runs"] == 1
        assert registry["serve.coalesced"] == 9
        # Exactly one request triggered the run; the rest rode it.
        assert sum(1 for r in results if not r.coalesced) == 1
        assert sum(1 for r in results if r.coalesced) == 9
        # Shared run => shared key and byte-identical payloads.
        assert len({r.key for r in results}) == 1
        assert len({r.payload["checksum"] for r in results}) == 1

    def test_different_params_do_not_coalesce(self):
        service = make_service(run_delay_s=0.02)
        queries = [
            QueryRequest(
                "WV", "pagerank", params={"iterations": n},
                profile="tiny",
            )
            for n in (2, 4)
        ]
        try:
            service.preload(["WV"], "tiny")
            results = run(submit_burst(service, queries))
        finally:
            service.close()
        assert service.registry.snapshot()["serve.engine_runs"] == 2
        assert results[0].key != results[1].key
        assert (
            results[0].payload["checksum"]
            != results[1].payload["checksum"]
        )

    def test_mixed_queries_match_direct_engine_runs(self):
        """Concurrent mixed traffic returns exactly what a dedicated
        engine computes for each query — no cross-contamination."""
        service = make_service(run_delay_s=0.01)
        queries = [
            QueryRequest(
                "WV", "pagerank", params={"iterations": 3},
                profile="tiny",
            ),
            QueryRequest(
                "WV", "bfs", params={"source": 0}, profile="tiny"
            ),
            QueryRequest("WV", "wcc", profile="tiny"),
        ]
        try:
            service.preload(["WV"], "tiny")
            results = run(submit_burst(service, queries))
        finally:
            service.close()
        engine = GaaSXEngine(
            load_dataset("WV", "tiny"), config=ArchConfig()
        )
        for query, served in zip(queries, results):
            direct = summarize_result(
                query.algorithm,
                engine.run(query.algorithm, **query.params),
            )
            assert served.payload["checksum"] == direct["checksum"], (
                query.algorithm
            )

    def test_sequential_queries_do_not_coalesce(self):
        """Coalescing shares in-flight work only; a finished run's key
        is released and the next identical query runs fresh."""
        service = make_service()
        query = QueryRequest("WV", "wcc", profile="tiny")

        async def twice():
            first = await service.submit(query)
            second = await service.submit(query)
            return first, second

        try:
            service.preload(["WV"], "tiny")
            first, second = run(twice())
        finally:
            service.close()
        assert service.registry.snapshot()["serve.engine_runs"] == 2
        assert not first.coalesced and not second.coalesced
        assert first.payload == second.payload


class TestAdmission:
    def test_over_quota_tenant_rejected_in_quota_proceeds(self):
        service = make_service(quota_rate=0.001, quota_burst=2)
        query = QueryRequest("WV", "wcc", profile="tiny")

        async def scenario():
            greedy = [
                QueryRequest(
                    "WV", "wcc", profile="tiny", tenant="greedy"
                )
            ] * 3
            outcomes = await submit_burst(service, greedy)
            polite = await service.submit(
                QueryRequest("WV", "wcc", profile="tiny", tenant="polite")
            )
            return outcomes, polite

        try:
            service.preload(["WV"], "tiny")
            outcomes, polite = run(scenario())
        finally:
            service.close()
        rejected = [
            r for r in outcomes if isinstance(r, QuotaExceededError)
        ]
        served = [r for r in outcomes if not isinstance(r, Exception)]
        assert len(rejected) == 1 and len(served) == 2
        assert polite.payload["num_components"] >= 1
        snapshot = service.registry.snapshot()
        assert snapshot["serve.quota_rejected"] == 1

    def test_queue_bound_sheds_excess_distinct_queries(self):
        service = make_service(max_pending=1, run_delay_s=0.1)
        queries = [
            QueryRequest(
                "WV", "pagerank", params={"iterations": n},
                profile="tiny",
            )
            for n in (1, 2, 3)
        ]
        try:
            service.preload(["WV"], "tiny")
            results = run(submit_burst(service, queries))
        finally:
            service.close()
        shed = [
            r for r in results
            if isinstance(r, SessionPoolExhaustedError)
        ]
        served = [r for r in results if not isinstance(r, Exception)]
        assert len(served) == 1 and len(shed) == 2
        assert service.registry.snapshot()["serve.shed"] == 2

    def test_duplicates_are_exempt_from_the_queue_bound(self):
        """Coalesced queries add no engine work, so max_pending=1 must
        still serve any number of identical concurrent queries."""
        service = make_service(max_pending=1, run_delay_s=0.05)
        query = QueryRequest("WV", "wcc", profile="tiny")
        try:
            service.preload(["WV"], "tiny")
            results = run(submit_burst(service, [query] * 5))
        finally:
            service.close()
        assert not any(isinstance(r, Exception) for r in results)
        assert service.registry.snapshot()["serve.shed"] == 0

    def test_timeout_raises_typed_error(self):
        service = make_service(run_delay_s=0.5)
        query = QueryRequest(
            "WV", "wcc", profile="tiny", timeout_s=0.05
        )
        try:
            service.preload(["WV"], "tiny")
            with pytest.raises(QueryTimeoutError, match="deadline"):
                run(service.submit(query))
        finally:
            service.close()
        assert service.registry.snapshot()["serve.timeouts"] == 1

    def test_closed_service_refuses_queries(self):
        service = make_service()
        service.close()
        with pytest.raises(SessionPoolExhaustedError, match="shut down"):
            run(service.submit(QueryRequest("WV", "wcc", profile="tiny")))


class TestAllAlgorithms:
    def test_every_servable_algorithm_answers(self):
        params = {
            "pagerank": {"iterations": 3},
            "bfs": {"source": 0},
            "sssp": {"source": 0},
            "wcc": {},
            "cf": {"num_features": 4, "epochs": 1},
        }
        assert set(params) == set(SERVABLE_ALGORITHMS)
        service = make_service()
        queries = [
            QueryRequest(
                "NF" if algorithm == "cf" else "WV",
                algorithm,
                params=params[algorithm],
                profile="tiny",
            )
            for algorithm in SERVABLE_ALGORITHMS
        ]
        try:
            service.preload(["WV", "NF"], "tiny")
            results = run(submit_burst(service, queries))
        finally:
            service.close()
        assert not any(isinstance(r, Exception) for r in results)
        for result in results:
            assert result.payload["checksum"]
            assert result.modelled["total_s"] > 0
            assert result.latency_s > 0


class TestMetricsHygiene:
    def test_session_reuse_never_registers_new_instruments(self):
        """The double-registration audit: instruments are minted once
        per service; serving more queries over reused warm sessions
        must not grow the registry."""
        registry = MetricsRegistry()
        service = make_service(registry=registry)
        query = QueryRequest("WV", "wcc", profile="tiny")
        try:
            service.preload(["WV"], "tiny")
            run(service.submit(query))
            count_after_first = len(registry.instruments())
            for _ in range(3):
                run(service.submit(query))
            run(
                service.submit(
                    QueryRequest(
                        "WV", "pagerank", params={"iterations": 2},
                        profile="tiny",
                    )
                )
            )
            assert len(registry.instruments()) == count_after_first
        finally:
            service.close()

    def test_reinstantiation_over_shared_registry_is_safe(self):
        """Two services over one registry share instruments instead of
        colliding (no TypeError, no duplicate families)."""
        registry = MetricsRegistry()
        first = make_service(registry=registry)
        names = set(registry.instruments())
        second = make_service(registry=registry)  # must not raise
        assert set(registry.instruments()) == names
        first.close()
        second.close()

    def test_instrument_names_are_fixed_not_query_derived(self):
        registry = MetricsRegistry()
        service = make_service(registry=registry)
        try:
            service.preload(["WV"], "tiny")
            run(
                service.submit(
                    QueryRequest(
                        "WV", "bfs", params={"source": 7},
                        profile="tiny", tenant="acme",
                    )
                )
            )
        finally:
            service.close()
        for name in registry.instruments():
            assert "acme" not in name
            assert "WV" not in name
            assert "7" not in name


class TestRequestObservability:
    def test_result_carries_a_trace_id(self):
        service = make_service()
        query = QueryRequest("WV", "wcc", profile="tiny")
        try:
            service.preload(["WV"], "tiny")
            result = run(service.submit(query))
        finally:
            service.close()
        assert len(result.trace_id) == 32
        assert result.to_dict()["trace_id"] == result.trace_id

    def test_ambient_context_is_adopted(self):
        from repro.obs import context as obs_context

        service = make_service()
        query = QueryRequest("WV", "wcc", profile="tiny")

        async def scenario():
            ctx = obs_context.new_root()
            with obs_context.active(ctx):
                result = await service.submit(query)
            return ctx, result

        try:
            service.preload(["WV"], "tiny")
            ctx, result = run(scenario())
        finally:
            service.close()
        assert result.trace_id == ctx.trace_id

    def test_flight_recorder_keeps_the_first_query(self):
        service = make_service()
        query = QueryRequest(
            "WV", "pagerank", params={"iterations": 2}, profile="tiny"
        )
        try:
            service.preload(["WV"], "tiny")
            result = run(service.submit(query))
            entry = service.flight.find(result.trace_id)
        finally:
            service.close()
        assert entry is not None
        assert entry["status"] == "ok"
        assert entry["kept_because"] == "sampled"
        names = [s["name"] for s in entry["spans"]]
        assert "serve.query" in names
        assert "serve.session" in names
        assert "engine.run" in names

    def test_errors_keep_their_flight_entry(self):
        service = make_service(quota_rate=0.001, quota_burst=1)
        query = QueryRequest("WV", "wcc", profile="tiny")
        try:
            service.preload(["WV"], "tiny")
            run(service.submit(query))
            with pytest.raises(QuotaExceededError):
                run(service.submit(query))
            entries = service.flight.entries()
        finally:
            service.close()
        rejected = [e for e in entries if e["status"] != "ok"]
        assert len(rejected) == 1
        assert rejected[0]["status"] == "quota_rejected"
        assert rejected[0]["kept_because"] == "error"

    def test_slo_counts_server_faults_not_quota_rejections(self):
        service = make_service(quota_rate=0.001, quota_burst=1)
        query = QueryRequest("WV", "wcc", profile="tiny")
        try:
            service.preload(["WV"], "tiny")
            run(service.submit(query))
            with pytest.raises(QuotaExceededError):
                run(service.submit(query))
            stats = service.slo.window_stats(60)
        finally:
            service.close()
        # Both requests recorded; the client rejection is not an error.
        assert stats["total"] == 2
        assert stats["errors"] == 0

    def test_slo_counts_timeouts_as_server_faults(self):
        service = make_service(run_delay_s=0.3)
        query = QueryRequest(
            "WV", "wcc", profile="tiny", timeout_s=0.05
        )
        try:
            service.preload(["WV"], "tiny")
            with pytest.raises(QueryTimeoutError):
                run(service.submit(query))
            stats = service.slo.window_stats(60)
        finally:
            service.close()
        assert stats["errors"] == 1

    def test_coalesced_followers_link_the_leader_trace(self):
        service = make_service(run_delay_s=0.05, flight_capacity=64)
        # keep_every=16 would drop most follower traces; make the ring
        # keep everything so the link is observable.
        service.flight.keep_every = 1
        query = QueryRequest(
            "WV", "pagerank", params={"iterations": 4}, profile="tiny"
        )
        try:
            service.preload(["WV"], "tiny")
            results = run(submit_burst(service, [query] * 4))
            entries = service.flight.entries()
        finally:
            service.close()
        leader = next(r for r in results if not r.coalesced)
        followers = [
            e for e in entries if "leader_trace_id" in e
        ]
        assert len(followers) == 3
        assert all(
            e["leader_trace_id"] == leader.trace_id for e in followers
        )

    def test_pool_lifecycle_metrics_in_registry(self):
        registry = MetricsRegistry()
        service = make_service(registry=registry, max_sessions=1)
        try:
            service.preload(["WV"], "tiny")
            service.preload(["NF"], "tiny")  # evicts WV
        finally:
            service.close()
        snapshot = registry.snapshot()
        assert snapshot["serve.pool.sessions_created"] == 2
        assert snapshot["serve.pool.evictions"] == 1
        assert snapshot["serve.pool.resident"] == 0  # cleared on close

    def test_close_restores_tracer_state(self):
        from repro.obs.trace import get_tracer

        tracer = get_tracer()
        was_enabled = tracer.enabled
        tracer.enabled = False
        try:
            service = make_service()
            assert tracer.enabled
            sink_count = len(tracer._sinks)
            service.close()
            assert not tracer.enabled
            assert len(tracer._sinks) == sink_count - 1
        finally:
            tracer.enabled = was_enabled

    def test_readiness_checks(self):
        service = make_service()
        try:
            ready, checks = service.readiness()
            assert ready
            assert checks["accepting"] and checks["pool_warm"]
        finally:
            service.close()
        ready, checks = service.readiness()
        assert not ready
        assert checks["accepting"] is False

    def test_modelled_energy_rides_result_stats_and_metrics(self):
        """One query's priced energy shows up in its response, the
        cumulative /stats gauges, and the labelled /metrics series."""
        from repro.obs.export import render_openmetrics

        registry = MetricsRegistry()
        service = make_service(registry=registry)
        query = QueryRequest(
            "WV", "pagerank", {"iterations": 2}, profile="tiny"
        )
        try:
            service.preload(["WV"], "tiny")
            result = run(service.submit(query))
            stats = service.stats()
        finally:
            service.close()
        assert result.modelled["energy_j"] > 0
        breakdown = result.modelled["energy"]
        assert breakdown["total"] == pytest.approx(
            result.modelled["energy_j"]
        )
        assert stats["energy_j"] == pytest.approx(
            result.modelled["energy_j"]
        )
        by_category = stats["energy_by_category"]
        assert "total" not in by_category
        assert sum(by_category.values()) == pytest.approx(
            stats["energy_j"]
        )
        text = render_openmetrics(registry)
        assert "repro_serve_energy_j_total" in text
        assert 'repro_serve_energy_category_j_total{category=' in text

    def test_stats_include_slo_and_flight(self):
        service = make_service()
        query = QueryRequest("WV", "wcc", profile="tiny")
        try:
            service.preload(["WV"], "tiny")
            run(service.submit(query))
            stats = service.stats()
        finally:
            service.close()
        assert stats["slo"]["windows"]["1m"]["total"] == 1
        assert stats["flight"]["kept"] == 1


class TestServeBench:
    def test_burst_executes_every_distinct_query(self, monkeypatch):
        """The warm-up's traces are dropped before the measured burst,
        so each distinct burst query runs its functional execution
        instead of pricing the warm-up's stored one."""
        import threading

        from repro.core.algorithms import execution
        from repro.core.reuse import ReuseCache, reset_reuse_cache
        from repro.serve.bench import ServeBench

        computed = []
        lock = threading.Lock()
        lookup = ReuseCache.lookup

        def spy(self, token, unit, fingerprint):
            value = lookup(self, token, unit, fingerprint)
            if unit == execution.UNIT and value is None:
                with lock:
                    computed.append(fingerprint)
            return value

        monkeypatch.setattr(ReuseCache, "lookup", spy)
        reset_reuse_cache()
        try:
            bench = ServeBench()
            metrics = bench.run()
        finally:
            reset_reuse_cache()
        burst = bench.queries()
        warm_up = {q.session_selector: q for q in burst}
        distinct = {(q.dataset, q.algorithm, repr(q.params)) for q in burst}
        assert metrics["serve.engine_runs"] == len(distinct)
        assert len(computed) == len(warm_up) + len(distinct)
