"""The cross-superstep reuse layer: cache semantics, gating, counters.

Equivalence of memoized vs. non-memoized *results* (ranks, events,
per-array counters) is proven in ``test_incremental.py`` and
``test_micro_equivalence.py``; this file pins the cache mechanics —
LRU bounds, invalidation, the enable switch, and the
per-thread scope tally.
"""

import numpy as np
import pytest

from repro.config import ArchConfig
from repro.core.engine import GaaSXEngine, default_interval_size
from repro.core.micro import MicroGaaSX
from repro.core.reuse import (
    ReuseCache,
    frontier_fingerprint,
    get_reuse_cache,
    layout_token,
    reset_reuse_cache,
    reuse_enabled,
    reuse_scope,
    set_reuse_enabled,
)
from repro.obs.hw import HW_COUNTERS, HwMonitor


@pytest.fixture(autouse=True)
def fresh_reuse_state():
    """Isolate every test from the process-global cache and override."""
    reset_reuse_cache()
    set_reuse_enabled(None)
    yield
    reset_reuse_cache()
    set_reuse_enabled(None)


class TestEnableSwitch:
    def test_default_is_enabled(self, monkeypatch):
        monkeypatch.delenv("REPRO_REUSE", raising=False)
        assert reuse_enabled() is True

    @pytest.mark.parametrize("value", ["0", "false", "off", "no", " OFF "])
    def test_falsey_env_disables(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_REUSE", value)
        assert reuse_enabled() is False

    def test_override_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_REUSE", "0")
        set_reuse_enabled(True)
        assert reuse_enabled() is True
        set_reuse_enabled(None)
        assert reuse_enabled() is False

    def test_argument_beats_everything(self):
        set_reuse_enabled(False)
        assert reuse_enabled(override=True) is True
        assert reuse_enabled(override=False) is False


class TestFingerprints:
    def test_same_content_same_fingerprint(self):
        a = np.arange(16, dtype=np.int64)
        assert frontier_fingerprint(a) == frontier_fingerprint(a.copy())

    def test_dtype_is_part_of_identity(self):
        ints = np.zeros(8, dtype=np.int64)
        assert frontier_fingerprint(ints) != frontier_fingerprint(
            ints.astype(np.float64)
        )

    def test_token_embeds_graph_identity(self, small_rmat):
        config = ArchConfig()
        token = layout_token(small_rmat, 16, "col", config)
        mutated = small_rmat.with_edges(inserts=[[0, 1, 5.0]])
        assert token != layout_token(mutated, 16, "col", config)
        assert token != layout_token(small_rmat, 16, "row", config)


class TestReuseCache:
    def test_lookup_store_roundtrip(self):
        cache = ReuseCache()
        assert cache.lookup("t", 0, "fp") is None
        cache.store("t", 0, "fp", np.arange(4))
        value = cache.lookup("t", 0, "fp")
        assert np.array_equal(value, np.arange(4))
        assert cache.hits == 1 and cache.misses == 1

    def test_stored_arrays_are_frozen(self):
        cache = ReuseCache()
        cache.store("t", 0, "fp", np.arange(4))
        value = cache.lookup("t", 0, "fp")
        with pytest.raises(ValueError):
            value[0] = 99

    def test_entry_bound_evicts_lru(self):
        cache = ReuseCache(max_entries=3)
        for i in range(4):
            cache.store("t", i, "fp", np.arange(2))
        assert cache.lookup("t", 0, "fp") is None  # oldest gone
        assert cache.lookup("t", 3, "fp") is not None

    def test_byte_bound_evicts(self):
        cache = ReuseCache(max_bytes=1024)
        cache.store("t", 0, "a", np.zeros(64))  # 512 B
        cache.store("t", 0, "b", np.zeros(64))
        cache.store("t", 0, "c", np.zeros(64))  # evicts "a"
        assert cache.lookup("t", 0, "a") is None
        assert cache.describe()["bytes"] <= 1024

    def test_oversized_value_is_never_cached(self):
        cache = ReuseCache(max_bytes=128)
        cache.store("t", 0, "fp", np.zeros(1024))
        assert cache.describe()["entries"] == 0

    def test_packed_keys_builder_runs_once(self):
        cache = ReuseCache()
        calls = []

        def build():
            calls.append(1)
            return np.arange(3)

        first = cache.packed_keys("t", 0, "dst", build)
        second = cache.packed_keys("t", 0, "dst", build)
        assert len(calls) == 1
        assert np.array_equal(first, second)

    def test_invalidate_one_token(self):
        cache = ReuseCache()
        cache.store("a", 0, "fp", np.arange(2))
        cache.store("b", 0, "fp", np.arange(2))
        assert cache.invalidate("a") == 1
        assert cache.lookup("a", 0, "fp") is None
        assert cache.lookup("b", 0, "fp") is not None
        assert cache.invalidations == 1

    def test_invalidate_all(self):
        cache = ReuseCache()
        cache.store("a", 0, "fp", np.arange(2))
        cache.packed_keys("a", 0, "dst", lambda: np.arange(2))
        assert cache.invalidate() == 2
        assert cache.describe()["entries"] == 0

    def test_describe_shape(self):
        cache = ReuseCache()
        cache.store("t", 0, "fp", np.arange(2))
        cache.lookup("t", 0, "fp")
        info = cache.describe()
        assert set(info) == {
            "hits", "misses", "invalidations", "hit_rate", "entries",
            "bytes",
        }
        assert info["hit_rate"] == 1.0


class TestScopes:
    def test_scope_tallies_this_thread(self):
        cache = ReuseCache()
        with reuse_scope() as scope:
            cache.lookup("t", 0, "fp")  # miss
            cache.store("t", 0, "fp", np.arange(2))
            cache.lookup("t", 0, "fp")  # hit
        assert scope.hits == 1 and scope.misses == 1
        assert scope.hit_rate == 0.5
        # Lookups after exit do not leak into the closed scope.
        cache.lookup("t", 0, "fp")
        assert scope.hits == 1

    def test_empty_scope_rate_is_zero(self):
        with reuse_scope() as scope:
            pass
        assert scope.hit_rate == 0.0


class TestEngineIntegration:
    def test_second_run_hits_and_results_match(self, small_rmat):
        engine = GaaSXEngine(small_rmat)
        with reuse_scope() as cold:
            first = engine.pagerank(iterations=4)
        with reuse_scope() as warm:
            second = engine.pagerank(iterations=4)
        assert cold.hits == 0
        assert warm.hits > 0 and warm.misses == 0
        assert np.array_equal(first.ranks, second.ranks)
        assert first.stats.events.as_dict() == second.stats.events.as_dict()

    def test_disabled_runs_never_touch_the_cache(self, small_rmat):
        set_reuse_enabled(False)
        engine = GaaSXEngine(small_rmat)
        engine.pagerank(iterations=4)
        engine.pagerank(iterations=4)
        assert get_reuse_cache().describe()["entries"] == 0


def _micro_run(graph, kernel, reuse):
    monitor = HwMonitor()
    micro = MicroGaaSX(graph, hw=monitor, reuse=reuse)
    if kernel == "pagerank":
        values, events = micro.pagerank(iterations=3)
    else:
        values, events = getattr(micro, kernel)(0)
    return values, events, monitor


class TestMicroIntegration:
    """Micro entries are layout-wide: one packed-key entry per layout
    and field, one gang hit-matrix entry per distinct search set."""

    KERNELS = ["pagerank", "bfs", "sssp"]

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_reuse_on_and_off_are_identical(self, small_rmat, kernel):
        off = _micro_run(small_rmat, kernel, reuse=False)
        _micro_run(small_rmat, kernel, reuse=True)  # warm the cache
        on = _micro_run(small_rmat, kernel, reuse=True)
        assert np.array_equal(on[0], off[0])
        assert on[1].as_dict() == off[1].as_dict()
        assert np.array_equal(
            on[1].mac_rows_hist, off[1].mac_rows_hist
        )
        for name in HW_COUNTERS:
            assert np.array_equal(
                on[2].counts(name), off[2].counts(name)
            ), name
        assert np.array_equal(on[2].rows_hist(), off[2].rows_hist())

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_disabled_runs_never_touch_the_cache(self, small_rmat, kernel):
        _micro_run(small_rmat, kernel, reuse=False)
        _micro_run(small_rmat, kernel, reuse=False)
        info = get_reuse_cache().describe()
        assert info["entries"] == 0
        assert info["hits"] == info["misses"] == 0

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_second_identical_run_hits(self, small_rmat, kernel):
        with reuse_scope() as cold:
            _micro_run(small_rmat, kernel, reuse=True)
        with reuse_scope() as warm:
            _micro_run(small_rmat, kernel, reuse=True)
        assert cold.misses > 0
        assert warm.hits == cold.lookups and warm.misses == 0

    def test_pagerank_entries_are_layout_wide(self, small_rmat):
        with reuse_scope() as scope:
            _micro_run(small_rmat, "pagerank", reuse=True)
        # The packed keys and the gang hit matrix: one entry each,
        # looked up once per build and once per iteration.
        assert get_reuse_cache().describe()["entries"] == 2
        assert (scope.misses, scope.hits) == (2, 2)

    def test_mutation_drops_micro_entries(self, small_rmat):
        """Every micro entry lives in the layout's token namespace, so
        invalidating the old graph's tokens (what a mutation does)
        drops them all."""
        _micro_run(small_rmat, "pagerank", reuse=True)
        interval = default_interval_size(small_rmat.num_vertices)
        dropped = sum(
            get_reuse_cache().invalidate(
                layout_token(small_rmat, interval, order, ArchConfig())
            )
            for order in ("col", "row")
        )
        assert dropped == 2
        assert get_reuse_cache().describe()["entries"] == 0
