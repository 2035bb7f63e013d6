"""Warm-session pool: mmap-backed graphs and graceful fallback."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import ArchConfig
from repro.core import cache as layout_cache
from repro.core.engine import GaaSXEngine
from repro.errors import StorageError
from repro.graphs.datasets import load_dataset
from repro.obs.metrics import MetricsRegistry
from repro.serve.pool import SessionPool, WarmSession
from repro.storage.mmap_store import MmapStore, get_store, reset_store


@pytest.fixture(autouse=True)
def _isolated_store(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "store"))
    reset_store()
    yield
    reset_store()


@pytest.fixture()
def tiny_config():
    return ArchConfig(num_crossbars=4)


class TestWarmSessionBacking:
    def test_square_dataset_is_mmap_backed(self, tiny_config):
        session = WarmSession("WV", "tiny", tiny_config)
        assert session.mmap_backed is True
        assert session.describe()["mmap_backed"] is True
        # Edge arrays come straight from the store file: read-only
        # views, byte-equal to a second mapping of the stored graph.
        cols = session.engine.graph.edges.cols
        assert cols.flags.writeable is False
        stored = get_store().dataset("WV", "tiny")
        assert np.array_equal(cols, stored.indices)

    def test_bipartite_dataset_stays_in_memory(self, tiny_config):
        session = WarmSession("NF", "tiny", tiny_config)
        assert session.mmap_backed is False
        assert session.describe()["mmap_backed"] is False

    def test_mmap_results_match_in_memory(self, tiny_config):
        session = WarmSession("WV", "tiny", tiny_config)
        reference = GaaSXEngine(
            load_dataset("WV", "tiny"), config=tiny_config
        )
        warm = session.engine.pagerank(iterations=3)
        cold = reference.pagerank(iterations=3)
        assert np.allclose(warm.ranks, cold.ranks)
        assert warm.stats.events.counters_equal(cold.stats.events)

    def test_content_key_uses_store_digest(self, tiny_config):
        session = WarmSession("WV", "tiny", tiny_config)
        digest = get_store().dataset("WV", "tiny").digest
        assert session.content_key.startswith(digest)

    def test_store_failure_degrades_to_loader(self, tiny_config, monkeypatch):
        def broken(self, tag, build):
            raise StorageError("store offline")

        monkeypatch.setattr(MmapStore, "get_or_put", broken)
        registry = MetricsRegistry()
        load_dataset.cache_clear()
        try:
            session = WarmSession("WV", "tiny", tiny_config, registry)
        finally:
            load_dataset.cache_clear()  # drop the in-memory fallback
        assert session.mmap_backed is False
        assert registry.counter("serve.pool.mmap_fallback").value == 1
        # The query path still works on the in-memory graph.
        result = session.engine.pagerank(iterations=1)
        assert np.all(np.isfinite(result.ranks))


class TestPoolSharing:
    def test_sessions_share_one_store_file(self, tiny_config):
        pool = SessionPool(config=tiny_config, max_sessions=4)
        first = pool.acquire("WV", "tiny")
        second = pool.acquire("WV", "tiny")
        assert first is second  # LRU hit
        assert pool.hits == 1 and pool.misses == 1
        stored = get_store()
        # Exactly one conversion happened for the whole pool.
        assert len(stored.entries()) == 1
        pool.clear()


class TestMutationLeavesDiskAlone:
    def test_apply_mutation_writes_no_cache_file(self, tiny_config, tmp_path):
        cache_dir = tmp_path / "cache"
        layout_cache.reset_cache()
        layout_cache.enable_disk_cache(str(cache_dir))
        try:
            session = WarmSession("WV", "tiny", tiny_config)
            before = sorted(p.name for p in cache_dir.iterdir())
            assert before  # the session's own grid was persisted
            session.apply_mutation(inserts=[[1, 2]], deletes=[[0, 1]])
            # The mutated graph lives only in this process: its grid is
            # seeded in memory, and the rebuilt engine hits it there.
            assert sorted(p.name for p in cache_dir.iterdir()) == before
            assert layout_cache.get_cache().stats.grid_hits >= 1
        finally:
            layout_cache.reset_cache()
