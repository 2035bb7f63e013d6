"""Tests for the content-keyed layout cache (repro.core.cache)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import ArchConfig
from repro.core import cache as layout_cache
from repro.core.cache import (
    CacheStats,
    LayoutCache,
    config_fingerprint,
    graph_fingerprint,
)
from repro.core.loader import build_layout
from repro.graphs.generators import rmat
from repro.graphs.partition import partition_graph


@pytest.fixture(autouse=True)
def _isolated_global_cache():
    """Keep global-cache mutations from leaking into other tests."""
    yield
    layout_cache.reset_cache()


class TestFingerprints:
    def test_config_fingerprint_is_content_based(self):
        assert config_fingerprint(ArchConfig()) == config_fingerprint(
            ArchConfig()
        )

    def test_config_fingerprint_tracks_field_changes(self):
        assert config_fingerprint(ArchConfig()) != config_fingerprint(
            ArchConfig(num_crossbars=7)
        )

    def test_graph_fingerprint_is_content_based(self):
        a = rmat(64, 300, seed=42, name="a")
        b = rmat(64, 300, seed=42, name="b")
        assert graph_fingerprint(a) == graph_fingerprint(b)

    def test_graph_fingerprint_tracks_edges(self):
        a = rmat(64, 300, seed=42)
        b = rmat(64, 300, seed=43)
        assert graph_fingerprint(a) != graph_fingerprint(b)

    def test_graph_fingerprint_memoized_on_instance(self, small_rmat):
        first = graph_fingerprint(small_rmat)
        assert graph_fingerprint(small_rmat) == first
        assert getattr(small_rmat, "_repro_content_fingerprint") == first


class TestInProcessTier:
    def test_grid_hit_returns_same_object(self, small_rmat):
        cache = LayoutCache()
        first = cache.grid(small_rmat, 16)
        second = cache.grid(small_rmat, 16)
        assert first is second
        assert cache.stats.grid_hits == 1
        assert cache.stats.grid_misses == 1

    def test_grid_keyed_by_content_not_identity(self):
        cache = LayoutCache()
        cache.grid(rmat(64, 300, seed=42), 16)
        cache.grid(rmat(64, 300, seed=42), 16)  # equal content, new object
        assert cache.stats.grid_hits == 1

    def test_distinct_intervals_miss(self, small_rmat):
        cache = LayoutCache()
        cache.grid(small_rmat, 16)
        cache.grid(small_rmat, 32)
        assert cache.stats.grid_misses == 2

    def test_layout_hit(self, small_rmat):
        cache = LayoutCache()
        config = ArchConfig()
        grid = cache.grid(small_rmat, 16)
        first = cache.layout(small_rmat, grid, "row", config)
        second = cache.layout(small_rmat, grid, "row", config)
        assert first is second
        assert cache.stats.layout_hits == 1

    def test_layout_keyed_by_order_and_config(self, small_rmat):
        cache = LayoutCache()
        grid = cache.grid(small_rmat, 16)
        cache.layout(small_rmat, grid, "row", ArchConfig())
        cache.layout(small_rmat, grid, "col", ArchConfig())
        cache.layout(small_rmat, grid, "row", ArchConfig(num_crossbars=7))
        assert cache.stats.layout_misses == 3
        assert cache.stats.layout_hits == 0

    def test_lru_eviction(self):
        cache = LayoutCache(max_grids=1)
        a = rmat(64, 300, seed=1)
        b = rmat(64, 300, seed=2)
        cache.grid(a, 16)
        cache.grid(b, 16)  # evicts a
        cache.grid(a, 16)  # must recompute
        assert cache.stats.grid_misses == 3
        assert cache.stats.grid_hits == 0


class TestDiskTier:
    def test_grid_rehydrates_across_instances(self, small_rmat, tmp_path):
        warm = LayoutCache(disk_dir=str(tmp_path))
        original = warm.grid(small_rmat, 16)
        assert warm.stats.disk_writes == 1

        cold = LayoutCache(disk_dir=str(tmp_path))  # fresh process stand-in
        restored = cold.grid(small_rmat, 16)
        assert cold.stats.grid_disk_hits == 1
        assert cold.stats.grid_misses == 0
        np.testing.assert_array_equal(restored.src, original.src)
        np.testing.assert_array_equal(restored.dst, original.dst)
        np.testing.assert_array_equal(restored.weight, original.weight)
        fresh = partition_graph(small_rmat, 16)
        np.testing.assert_array_equal(restored.src, fresh.src)

    def test_layout_rehydrates_across_instances(self, small_rmat, tmp_path):
        config = ArchConfig()
        warm = LayoutCache(disk_dir=str(tmp_path))
        grid = warm.grid(small_rmat, 16)
        original = warm.layout(small_rmat, grid, "row", config)

        cold = LayoutCache(disk_dir=str(tmp_path))
        restored = cold.layout(
            small_rmat, cold.grid(small_rmat, 16), "row", config
        )
        assert cold.stats.layout_disk_hits == 1
        np.testing.assert_array_equal(restored.src, original.src)
        np.testing.assert_array_equal(
            restored.xbar_of_edge, original.xbar_of_edge
        )
        assert restored.num_xbars == original.num_xbars
        fresh = build_layout(grid, "row", config)
        np.testing.assert_array_equal(restored.src, fresh.src)

    def test_corrupt_entry_is_a_miss(self, small_rmat, tmp_path):
        warm = LayoutCache(disk_dir=str(tmp_path))
        warm.grid(small_rmat, 16)
        for entry in tmp_path.iterdir():
            entry.write_bytes(b"not an npz file")
        cold = LayoutCache(disk_dir=str(tmp_path))
        cold.grid(small_rmat, 16)  # must rebuild, not crash
        assert cold.stats.grid_misses == 1

    def test_version_bump_invalidates_keys(self, monkeypatch):
        old = layout_cache._entry_key("grid", "abc", 16)
        monkeypatch.setattr(layout_cache, "CACHE_VERSION", 999)
        assert layout_cache._entry_key("grid", "abc", 16) != old

    def test_disabled_disk_tier_never_writes(self, small_rmat, tmp_path):
        cache = LayoutCache(disk_dir=None)
        cache.grid(small_rmat, 16)
        assert cache.stats.disk_writes == 0
        assert list(tmp_path.iterdir()) == []


class TestStats:
    def test_hit_rate(self):
        stats = CacheStats(grid_hits=3, layout_disk_hits=1, grid_misses=1)
        assert stats.hits == 4
        assert stats.lookups == 5
        assert stats.hit_rate == pytest.approx(0.8)

    def test_empty_hit_rate_is_zero(self):
        assert CacheStats().hit_rate == 0.0

    def test_delta(self):
        before = CacheStats(grid_hits=2).to_dict()
        after = CacheStats(grid_hits=5, layout_misses=1).to_dict()
        delta = CacheStats.delta(before, after)
        assert delta["grid_hits"] == 3
        assert delta["layout_misses"] == 1


class TestGlobalCache:
    def test_enable_disk_cache_honours_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        layout_cache.reset_cache()
        assert layout_cache.enable_disk_cache() == str(tmp_path / "env")
        assert layout_cache.get_cache().disk_dir == str(tmp_path / "env")

    def test_explicit_path_beats_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        assert layout_cache.enable_disk_cache(
            str(tmp_path / "explicit")
        ) == str(tmp_path / "explicit")

    def test_disable_detaches_disk_tier(self, tmp_path):
        layout_cache.enable_disk_cache(str(tmp_path))
        layout_cache.disable_disk_cache()
        assert layout_cache.get_cache().disk_dir is None
