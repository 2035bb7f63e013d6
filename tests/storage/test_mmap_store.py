"""Tests for the content-addressed mmap CSR store."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.cache import graph_fingerprint
from repro.errors import StorageError
from repro.graphs import COOMatrix, Graph
from repro.graphs.generators import rmat
from repro.storage.mmap_store import (
    FORMAT_VERSION,
    MmapStore,
    StoredGraph,
    build_shard_table,
    get_store,
    read_header,
    reset_store,
    write_graph_file,
)


@pytest.fixture()
def store(tmp_path) -> MmapStore:
    return MmapStore(str(tmp_path / "store"))


@pytest.fixture()
def stored(store, medium_rmat) -> StoredGraph:
    return store.put_graph(medium_rmat, tag="medium", target_edges=300)


class TestFileFormat:
    def test_round_trip_views_equal_source(self, stored, medium_rmat):
        csr = medium_rmat.csr()
        assert np.array_equal(stored.indptr, csr.indptr)
        assert np.array_equal(stored.indices, csr.indices)
        assert np.array_equal(stored.data, csr.data)
        assert stored.num_vertices == medium_rmat.num_vertices
        assert stored.num_edges == medium_rmat.num_edges

    def test_views_are_read_only_memmaps(self, stored):
        for view in (stored.indptr, stored.indices, stored.data):
            assert isinstance(view, np.memmap)
            with pytest.raises(ValueError):
                view[0] = 1

    def test_digest_is_graph_fingerprint(self, store, medium_rmat, tmp_path):
        csr = medium_rmat.csr()
        expected = graph_fingerprint(Graph.from_csr(csr))
        written = write_graph_file(
            str(tmp_path / "g.gsx"),
            medium_rmat.num_vertices,
            csr.indptr.astype(np.int32),  # non-canonical input dtype
            csr.indices,
            csr.data,
        )
        assert written == expected
        assert store.put_graph(medium_rmat).digest == expected

    def test_write_is_idempotent(self, store, medium_rmat):
        first = store.put_graph(medium_rmat)
        mtime = os.path.getmtime(first.path)
        second = store.put_graph(medium_rmat)
        assert second.digest == first.digest
        assert os.path.getmtime(second.path) == mtime  # not rewritten

    def test_header_fields(self, stored):
        header = read_header(stored.path)
        assert header["format_version"] == FORMAT_VERSION
        assert header["num_edges"] == stored.num_edges
        assert header["digest"] == stored.digest
        assert header["dtypes"] == {
            "indptr": "<i8", "indices": "<i8", "data": "<f8",
        }

    def test_bad_magic_rejected(self, tmp_path):
        path = str(tmp_path / "bogus.gsx")
        with open(path, "wb") as fh:
            fh.write(b"NOTASTOREFILE" + b"\x00" * 64)
        with pytest.raises(StorageError, match="magic"):
            read_header(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = str(tmp_path / "short.gsx")
        with open(path, "wb") as fh:
            fh.write(b"GSX")
        with pytest.raises(StorageError, match="truncated"):
            read_header(path)

    def test_mismatched_indptr_rejected(self, tmp_path):
        with pytest.raises(StorageError, match="indptr"):
            write_graph_file(
                str(tmp_path / "bad.gsx"),
                num_vertices=3,
                indptr=np.array([0, 1]),
                indices=np.array([0]),
                data=np.array([1.0]),
            )


class TestShardTable:
    def test_shards_cover_all_rows_and_edges(self, stored):
        shards = stored.shards
        assert shards[0].row_lo == 0
        assert shards[-1].row_hi == stored.num_vertices
        for prev, cur in zip(shards, shards[1:]):
            assert cur.row_lo == prev.row_hi
            assert cur.edge_lo == prev.edge_hi
        assert sum(s.num_edges for s in shards) == stored.num_edges

    def test_hub_row_exceeding_target_is_not_split(self):
        # One row holding 10 edges with a target of 4: the shard grows
        # to hold the whole row.
        indptr = np.array([0, 10, 11])
        table = build_shard_table(indptr, target_edges=4)
        assert table[0] == {
            "row_lo": 0, "row_hi": 1, "edge_lo": 0, "edge_hi": 10,
        }

    def test_shard_csr_matches_row_slice(self, stored):
        shard = stored.shards[1]
        local = stored.shard_csr(1)
        full = stored.csr()
        assert local.nnz == shard.num_edges
        assert np.array_equal(
            local.indices,
            full.indices[shard.edge_lo : shard.edge_hi],
        )
        # Zero-copy: shard views alias the file mapping.
        assert np.shares_memory(local.indices, stored.indices)

    def test_schedule_covers_every_shard_once(self, stored):
        assignment = stored.schedule(3)
        flat = sorted(i for worker in assignment for i in worker)
        assert flat == list(range(len(stored.shards)))

    def test_schedule_balances_edge_counts(self, stored):
        balance = stored.schedule_balance(3)
        # LPT over near-equal shards: within 2x of the perfect split.
        assert balance["balance"] > 0.5
        assert balance["workers"] == 3.0

    def test_schedule_rejects_bad_worker_count(self, stored):
        with pytest.raises(StorageError):
            stored.schedule(0)


class TestGraphConstruction:
    def test_graph_shares_memory_with_store(self, stored):
        graph = stored.graph()
        assert np.shares_memory(graph.edges.cols, stored.indices)
        assert np.shares_memory(graph.edges.data, stored.data)
        # csr() is the pre-seeded zero-copy object, not a rebuild.
        assert np.shares_memory(graph.csr().indices, stored.indices)

    def test_graph_fingerprint_is_store_digest(self, stored):
        assert graph_fingerprint(stored.graph()) == stored.digest

    def test_graph_semantics_match_in_memory(self, stored, medium_rmat):
        graph = stored.graph()
        assert np.array_equal(
            graph.out_degrees(), medium_rmat.out_degrees()
        )
        assert np.array_equal(graph.in_degrees(), medium_rmat.in_degrees())

    def test_empty_graph_round_trip(self, store):
        empty = Graph(
            COOMatrix(
                np.array([], dtype=np.int64),
                np.array([], dtype=np.int64),
                shape=(5, 5),
            ),
            name="empty",
        )
        stored = store.put_graph(empty)
        graph = stored.graph()
        assert graph.num_vertices == 5 and graph.num_edges == 0
        assert len(stored.shards) == 1


class TestEngineParity:
    """Acceptance: engine/micro event-count parity holds when the graph
    is mmap-backed instead of in-memory."""

    def test_pagerank_events_and_values(self, stored, medium_rmat):
        from repro.config import ArchConfig
        from repro.core.engine import GaaSXEngine
        from repro.core.micro import MicroGaaSX

        config = ArchConfig(num_crossbars=3)
        mmap_graph = stored.graph()
        engine = GaaSXEngine(mmap_graph, config=config)
        micro = MicroGaaSX(mmap_graph, config=config)
        fast = engine.pagerank(iterations=2)
        ranks, events = micro.pagerank(iterations=2)
        assert fast.stats.events.counters_equal(events)
        assert np.allclose(fast.ranks, ranks)
        # And the mmap-backed engine agrees with the in-memory engine.
        in_memory = GaaSXEngine(medium_rmat, config=config)
        assert np.allclose(
            fast.ranks, in_memory.pagerank(iterations=2).ranks
        )

    def test_bfs_events(self, stored):
        from repro.config import ArchConfig
        from repro.core.engine import GaaSXEngine
        from repro.core.micro import MicroGaaSX

        config = ArchConfig(num_crossbars=3)
        mmap_graph = stored.graph()
        fast = GaaSXEngine(mmap_graph, config=config).bfs(0)
        _, events = MicroGaaSX(mmap_graph, config=config).bfs(0)
        assert fast.stats.events.counters_equal(events)


class TestAliasesAndRegistry:
    def test_alias_resolves_to_digest(self, store, stored):
        assert store.resolve_alias("medium") == stored.digest
        assert store.open_tag("medium").digest == stored.digest

    def test_missing_alias_raises(self, store):
        assert store.resolve_alias("nope") is None
        with pytest.raises(StorageError, match="nope"):
            store.open_tag("nope")

    def test_missing_digest_raises(self, store):
        with pytest.raises(StorageError, match="digest"):
            store.open("0" * 32)

    def test_entries_lists_stored_graphs(self, store, stored):
        entries = store.entries()
        assert len(entries) == 1
        assert entries[0]["digest"] == stored.digest
        assert entries[0]["edges"] == stored.num_edges

    def test_dataset_converts_once(self, store):
        first = store.dataset("WV", "tiny")
        second = store.dataset("WV", "tiny")
        assert first.digest == second.digest
        assert len(store.entries()) == 1

    def test_get_or_put_skips_builder_on_second_load(self, store):
        calls = []

        def builder():
            calls.append(1)
            return rmat(64, 300, seed=42, name="built")

        original = store.get_or_put("test-rmat", builder)
        restored = MmapStore(store.root).get_or_put("test-rmat", builder)
        assert len(calls) == 1
        assert restored.path == original.path
        assert restored.name == "built"
        np.testing.assert_array_equal(
            restored.graph().edges.rows, builder().edges.rows
        )

    def test_bipartite_dataset_stored_as_unified(self, store):
        from repro.graphs.datasets import load_dataset

        stored = store.dataset("NF", "tiny")
        bipartite = load_dataset("NF", "tiny")
        expected = bipartite.as_unified_graph()
        assert stored.num_vertices == expected.num_vertices
        assert stored.num_edges == expected.num_edges


def _rewrite_version(path: str, version: int) -> None:
    with open(path, "r+b") as fh:
        fh.seek(8)  # after the magic
        fh.write(version.to_bytes(4, "little"))


class TestStaleEntries:
    """A file behind an alias that fails :func:`read_header` is a miss
    and gets rewritten, instead of failing every open."""

    @pytest.fixture()
    def global_store(self, tmp_path, monkeypatch):
        from repro.graphs.datasets import load_dataset

        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "store"))
        reset_store()
        load_dataset.cache_clear()
        yield get_store()
        load_dataset.cache_clear()
        reset_store()

    @pytest.mark.parametrize("damage", ["old-version", "truncated"])
    def test_stale_alias_target_is_rebuilt(self, global_store, damage):
        from repro.graphs.datasets import load_dataset

        stored = global_store.dataset("WV", "tiny")
        path, digest = stored.path, stored.digest
        del stored
        if damage == "old-version":
            _rewrite_version(path, FORMAT_VERSION - 1)
        else:
            with open(path, "r+b") as fh:
                fh.truncate(10)
        with pytest.raises(StorageError):
            StoredGraph(path)
        assert global_store.resolve_alias("dataset-WV-tiny") is None

        graph = load_dataset("WV", "tiny")
        assert graph_fingerprint(graph) == digest
        assert StoredGraph(path).digest == digest
        assert global_store.resolve_alias("dataset-WV-tiny") == digest

    def test_put_graph_rewrites_stale_file(self, store, medium_rmat):
        path = store.put_graph(medium_rmat).path
        _rewrite_version(path, FORMAT_VERSION + 1)
        store.put_graph(medium_rmat)
        assert read_header(path)["format_version"] == FORMAT_VERSION


class TestOneGraphKey:
    """The in-memory stand-in and its store file are one identity: the
    same fingerprint, one shared layout-cache entry, equal events."""

    @pytest.mark.parametrize("key", ["WV", "SD"])
    def test_in_memory_and_stored_share_one_key(self, store, key):
        from repro.core import cache as layout_cache
        from repro.core.engine import GaaSXEngine
        from repro.graphs.datasets import synthesize_dataset

        built = synthesize_dataset(key, "tiny")
        stored = store.dataset(key, "tiny")
        assert graph_fingerprint(built) == stored.digest

        layout_cache.reset_cache()
        try:
            first = GaaSXEngine(built)
            first.layout("col")
            before = layout_cache.stats_snapshot()
            second = GaaSXEngine(stored.graph())
            second.layout("col")
            delta = layout_cache.CacheStats.delta(
                before, layout_cache.stats_snapshot()
            )
            assert delta["grid_hits"] == 1 and delta["grid_misses"] == 0
            assert delta["layout_hits"] == 1
            assert delta["layout_misses"] == 0
            a = first.pagerank(iterations=3)
            b = second.pagerank(iterations=3)
        finally:
            layout_cache.reset_cache()
        assert a.stats.events.counters_equal(b.stats.events)
        assert np.array_equal(a.ranks, b.ranks)
