"""The mutable-graph serve path: request schema, service, HTTP route.

What must hold end to end: a mutation rebinds the warm session to the
new content identity, the old graph's reuse entries are invalidated
(never served stale), warm algorithm state survives where sound, and
every counter surface (/stats, modelled payload) reports the reuse
economics.
"""

import asyncio
import json

import numpy as np
import pytest

from repro.core.reuse import reset_reuse_cache, set_reuse_enabled
from repro.errors import ConfigError, DatasetError
from repro.obs.metrics import MetricsRegistry
from repro.serve import AnalyticsService, MutateRequest, QueryRequest
from repro.serve.http import HttpFrontend


@pytest.fixture(autouse=True)
def fresh_reuse_state():
    reset_reuse_cache()
    set_reuse_enabled(None)
    yield
    reset_reuse_cache()
    set_reuse_enabled(None)


def make_service(**kwargs):
    kwargs.setdefault("registry", MetricsRegistry())
    return AnalyticsService(**kwargs)


def run(coro):
    return asyncio.run(coro)


# Enough iterations that runs reach the tolerance fixed point; the
# equivalence claims below are about converged answers.
PAGERANK = QueryRequest(
    "WV", "pagerank",
    params={"iterations": 200, "tolerance": 1e-8}, profile="tiny",
)
INCREMENTAL = QueryRequest(
    "WV", "pagerank",
    params={"iterations": 200, "tolerance": 1e-8, "incremental": True},
    profile="tiny",
)
MUTATION = MutateRequest(
    dataset="WV", inserts=[[1, 2], [3, 4, 2.0]], deletes=[[0, 1]],
    profile="tiny",
)


class TestMutateRequest:
    def test_roundtrip(self):
        request = MutateRequest.from_dict(MUTATION.to_dict())
        assert request == MUTATION
        assert request.session_selector == ("WV", "tiny")

    def test_requires_a_batch(self):
        with pytest.raises(ConfigError):
            MutateRequest(dataset="WV")

    def test_unknown_dataset_rejected(self):
        with pytest.raises(DatasetError):
            MutateRequest(dataset="NOPE", inserts=[[0, 1]])

    def test_unknown_fields_rejected(self):
        with pytest.raises(ConfigError):
            MutateRequest.from_dict(
                {"dataset": "WV", "inserts": [[0, 1]], "bogus": 1}
            )

    def test_batches_must_be_lists(self):
        with pytest.raises(ConfigError):
            MutateRequest(dataset="WV", inserts="0,1")


class TestServiceMutate:
    def test_mutation_rebinds_session(self):
        service = make_service()

        async def scenario():
            await service.submit(PAGERANK)
            before = service.stats()["pool"]["sessions"][0]
            summary = await service.mutate(MUTATION)
            after = service.stats()["pool"]["sessions"][0]
            return before, summary, after

        try:
            before, summary, after = run(scenario())
        finally:
            run(service.aclose())
        assert summary["old_content_key"] == before["content_key"]
        assert summary["content_key"] == after["content_key"]
        assert summary["content_key"] != summary["old_content_key"]
        assert summary["inserts"] == 2 and summary["deletes"] == 1
        assert after["mutations_applied"] == 1
        assert summary["latency_s"] > 0
        assert summary["trace_id"]

    def test_post_mutation_query_uses_warm_ranks(self):
        service = make_service()

        async def scenario():
            converged = await service.submit(PAGERANK)
            await service.mutate(MUTATION)
            warm = await service.submit(INCREMENTAL)
            cold = await service.submit(PAGERANK)
            return converged, warm, cold

        try:
            converged, warm, cold = run(scenario())
        finally:
            run(service.aclose())
        # The incremental answer matches a cold recompute on the
        # mutated graph within the delta-parking tolerance ...
        assert warm.payload["top_vertices"] == cold.payload["top_vertices"]
        np.testing.assert_allclose(
            warm.payload["top_ranks"], cold.payload["top_ranks"],
            atol=1e-3,
        )
        np.testing.assert_allclose(
            warm.payload["rank_sum"], cold.payload["rank_sum"],
            atol=1e-2,
        )
        # ... and each query reports its own reuse economics.
        assert "reuse_hit_rate" in warm.modelled
        assert 0.0 <= warm.modelled["reuse_hit_rate"] <= 1.0

    def test_wcc_warm_state_survives_mutation(self):
        service = make_service()
        wcc = QueryRequest("WV", "wcc", profile="tiny")

        async def scenario():
            first = await service.submit(wcc)
            await service.mutate(MUTATION)
            warm = await service.submit(wcc)
            fresh = await service.submit(wcc)
            return first, warm, fresh

        try:
            _first, warm, fresh = run(scenario())
        finally:
            run(service.aclose())
        # The warm-started run answers identically to a recompute on
        # the mutated graph (fresh coalesces/caches are content-keyed,
        # so equality of checksums is equality of labels).
        assert warm.payload["checksum"] == fresh.payload["checksum"]

    def test_stats_surfaces_mutations_and_reuse(self):
        service = make_service()

        async def scenario():
            await service.submit(PAGERANK)
            await service.mutate(MUTATION)
            await service.submit(INCREMENTAL)
            return service.stats()

        try:
            stats = run(scenario())
        finally:
            run(service.aclose())
        assert stats["mutations"] == 1
        assert stats["mutate_latency"]["count"] == 1
        reuse = stats["reuse"]
        assert {"hits", "misses", "invalidations", "hit_rate"} <= set(
            reuse
        )
        assert reuse["hits"] + reuse["misses"] > 0

    def test_mutations_serialize_per_content_key(self):
        """Concurrent mutations both apply (no lost update)."""
        service = make_service()

        async def scenario():
            await service.submit(PAGERANK)
            await asyncio.gather(
                service.mutate(
                    MutateRequest(
                        dataset="WV", inserts=[[5, 6]], profile="tiny"
                    )
                ),
                service.mutate(
                    MutateRequest(
                        dataset="WV", inserts=[[6, 7]], profile="tiny"
                    )
                ),
            )
            return service.stats()["pool"]["sessions"][0]

        try:
            session = run(scenario())
        finally:
            run(service.aclose())
        assert session["mutations_applied"] == 2


class TestHttpMutate:
    async def _with_daemon(self, scenario):
        service = make_service()
        service.preload(["WV"], "tiny")
        frontend = HttpFrontend(service, port=0)
        host, port = await frontend.start()
        try:
            return await scenario(host, port)
        finally:
            await frontend.aclose()

    @staticmethod
    async def _post(host, port, path, body):
        reader, writer = await asyncio.open_connection(host, port)
        encoded = json.dumps(body).encode()
        writer.write(
            (
                f"POST {path} HTTP/1.1\r\nHost: {host}\r\n"
                f"Content-Length: {len(encoded)}\r\n"
                "Connection: close\r\n\r\n"
            ).encode("ascii")
            + encoded
        )
        await writer.drain()
        raw = await reader.read()
        writer.close()
        await writer.wait_closed()
        head, _, payload = raw.partition(b"\r\n\r\n")
        status = int(head.split(b" ", 2)[1])
        return status, json.loads(payload)

    def test_post_mutate_round_trip(self):
        async def scenario(host, port):
            await self._post(
                host, port, "/query", PAGERANK.to_dict()
            )
            status, summary = await self._post(
                host, port, "/mutate", MUTATION.to_dict()
            )
            q_status, result = await self._post(
                host, port, "/query", INCREMENTAL.to_dict()
            )
            return status, summary, q_status, result

        status, summary, q_status, result = run(
            self._with_daemon(scenario)
        )
        assert status == 200 and q_status == 200
        assert summary["content_key"] != summary["old_content_key"]
        assert summary["dataset"] == "WV"
        assert "reuse_hit_rate" in result["modelled"]

    def test_get_mutate_is_rejected(self):
        async def scenario(host, port):
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(
                f"GET /mutate HTTP/1.1\r\nHost: {host}\r\n"
                "Connection: close\r\n\r\n".encode("ascii")
            )
            await writer.drain()
            raw = await reader.read()
            writer.close()
            await writer.wait_closed()
            return int(raw.split(b" ", 2)[1])

        assert run(self._with_daemon(scenario)) == 405

    def test_malformed_body_maps_to_400(self):
        async def scenario(host, port):
            return await self._post(
                host, port, "/mutate", {"dataset": "WV"}
            )

        status, body = run(self._with_daemon(scenario))
        assert status == 400
        assert body["error"] == "ConfigError"
