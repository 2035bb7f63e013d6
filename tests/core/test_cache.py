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
from repro.graphs import Graph
from repro.graphs.generators import rmat
from repro.graphs.partition import partition_graph


@pytest.fixture(autouse=True)
def _isolated_global_cache():
    """Keep global-cache mutations from leaking into other tests."""
    yield
    layout_cache.reset_cache()


def _reference_layout(grid, order, config):
    """Straightforward shard-by-shard concatenation over ``iter_shards``:
    the reference ``build_layout``'s vectorized form must reproduce."""
    src, dst, weight, xbar_of_edge = [], [], [], []
    num_xbars = 0
    for shard in grid.iter_shards(order):
        src.append(shard.src)
        dst.append(shard.dst)
        weight.append(shard.weight)
        xbar_of_edge.append(
            num_xbars + np.arange(shard.num_edges) // config.cam_rows
        )
        num_xbars += -(-shard.num_edges // config.cam_rows)
    if not src:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, np.empty(0, dtype=np.float64), empty, 0
    return (
        np.concatenate(src), np.concatenate(dst), np.concatenate(weight),
        np.concatenate(xbar_of_edge), num_xbars,
    )


def _assert_layouts_equal(layout, expected):
    src, dst, weight, xbar_of_edge, num_xbars = expected
    for got, want in (
        (layout.src, src), (layout.dst, dst), (layout.weight, weight),
        (layout.xbar_of_edge, xbar_of_edge),
    ):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    assert layout.num_xbars == num_xbars


class TestBuildLayout:
    @pytest.mark.parametrize("order", ["row", "col"])
    @pytest.mark.parametrize("interval", [5, 16, 64, 1000])
    def test_matches_shard_concatenation(self, medium_rmat, order, interval):
        config = ArchConfig(cam_rows=16, mac_rows=16)
        grid = partition_graph(medium_rmat, interval)
        _assert_layouts_equal(
            build_layout(grid, order, config),
            _reference_layout(grid, order, config),
        )

    @pytest.mark.parametrize("order", ["row", "col"])
    def test_empty_graph(self, order):
        graph = Graph.from_edge_list(
            np.empty((0, 2), dtype=np.int64), num_vertices=10
        )
        grid = partition_graph(graph, 4)
        _assert_layouts_equal(
            build_layout(grid, order, ArchConfig()),
            _reference_layout(grid, order, ArchConfig()),
        )

    def test_row_layout_shares_the_grid(self, small_rmat):
        grid = partition_graph(small_rmat, 16)
        row = build_layout(grid, "row", ArchConfig())
        col = build_layout(grid, "col", ArchConfig())
        for name in ("src", "dst", "weight"):
            assert np.shares_memory(getattr(row, name), getattr(grid, name))
            assert not np.shares_memory(
                getattr(col, name), getattr(grid, name)
            )


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

    def test_layouts_are_derived_never_stored(self, small_rmat, tmp_path):
        config = ArchConfig()
        warm = LayoutCache(disk_dir=str(tmp_path))
        grid = warm.grid(small_rmat, 16)
        for order in ("row", "col"):
            warm.layout(small_rmat, grid, order, config)
        files = sorted(tmp_path.iterdir())
        assert len(files) == 1 and warm.stats.disk_writes == 1

        # A fresh process stand-in: the grid is a disk hit, and both
        # layouts are rebuilt from it without touching the disk.
        cold = LayoutCache(disk_dir=str(tmp_path))
        restored_grid = cold.grid(small_rmat, 16)
        assert cold.stats.grid_disk_hits == 1
        for order in ("row", "col"):
            restored = cold.layout(small_rmat, restored_grid, order, config)
            _assert_layouts_equal(
                restored, _reference_layout(grid, order, config)
            )
        assert cold.stats.layout_misses == 2
        assert cold.stats.disk_writes == 0
        assert sorted(tmp_path.iterdir()) == files

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
        stats = CacheStats(grid_hits=3, grid_disk_hits=1, grid_misses=1)
        assert stats.hits == 4
        assert stats.misses == 1
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
