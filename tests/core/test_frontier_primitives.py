"""Frontier-sparse engine primitives against their dense references.

``unique_vertices`` (both paths) vs ``np.unique``, the lazy
``GroupIndex`` vertex→groups / vertex→edges CSR indexes vs brute-force
scans, and the deferred search-pass accounting on empty frontiers.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ArchConfig
from repro.core.engine import DeferredSearchAccounting, unique_vertices
from repro.core.loader import build_layout
from repro.events import EventLog
from repro.graphs import COOMatrix, Graph, partition_graph


def _random_graph(rng, n=20, count=40):
    src = rng.integers(0, n, size=count)
    dst = rng.integers(0, n, size=count)
    w = rng.uniform(0.1, 1.0, size=count)
    coo = COOMatrix(
        np.asarray(src), np.asarray(dst), np.asarray(w), shape=(n, n)
    )
    return Graph(coo, name="rand")


def _layout_for(graph, order="row"):
    grid = partition_graph(graph, 8)
    return build_layout(grid, order, ArchConfig())


class TestUniqueVertices:
    def test_sort_path_matches_unique(self):
        scratch = np.zeros(10_000, dtype=bool)
        ids = np.array([7, 3, 7, 1, 3, 9])
        out = unique_vertices(ids, scratch)
        assert np.array_equal(out, [1, 3, 7, 9])
        assert not scratch.any()

    def test_scatter_path_matches_unique(self):
        scratch = np.zeros(8, dtype=bool)
        ids = np.array([5, 0, 5, 2, 2, 7, 0])
        out = unique_vertices(ids, scratch)
        assert np.array_equal(out, [0, 2, 5, 7])
        # The scratch buffer must come back all-False for the next call.
        assert not scratch.any()

    def test_empty(self):
        scratch = np.zeros(4, dtype=bool)
        out = unique_vertices(np.empty(0, dtype=np.int64), scratch)
        assert out.size == 0

    @given(
        st.lists(st.integers(min_value=0, max_value=30), max_size=60),
        st.integers(min_value=31, max_value=5000),
    )
    @settings(max_examples=60, deadline=None)
    def test_both_paths_equal_np_unique(self, ids, scratch_size):
        ids = np.array(ids, dtype=np.int64)
        scratch = np.zeros(scratch_size, dtype=bool)
        out = unique_vertices(ids, scratch)
        assert np.array_equal(out, np.unique(ids))
        assert not scratch.any()


class TestGroupIndexes:
    @given(st.integers(min_value=0, max_value=1000))
    @settings(max_examples=20, deadline=None)
    def test_vertex_index_lists_every_group(self, seed):
        rng = np.random.default_rng(seed)
        graph = _random_graph(rng)
        layout = _layout_for(graph)
        groups = layout.groups_by("src")
        offsets, perm = groups.vertex_index(graph.num_vertices)
        assert offsets[-1] == groups.vertex.size
        for v in range(graph.num_vertices):
            listed = np.sort(perm[offsets[v] : offsets[v + 1]])
            expected = np.flatnonzero(groups.vertex == v)
            assert np.array_equal(listed, expected)

    @given(st.integers(min_value=0, max_value=1000))
    @settings(max_examples=20, deadline=None)
    def test_edge_index_lists_every_edge(self, seed):
        rng = np.random.default_rng(seed)
        graph = _random_graph(rng)
        layout = _layout_for(graph)
        groups = layout.groups_by("src")
        offsets, edges = groups.edge_index(graph.num_vertices)
        assert offsets[-1] == layout.src.size
        for v in range(graph.num_vertices):
            listed = np.sort(edges[offsets[v] : offsets[v + 1]])
            expected = np.flatnonzero(layout.src == v)
            assert np.array_equal(listed, expected)

    def test_groups_of_matches_brute_force(self):
        rng = np.random.default_rng(4)
        graph = _random_graph(rng)
        layout = _layout_for(graph)
        groups = layout.groups_by("src")
        frontier = np.array([0, 3, 11])
        got = groups.groups_of(frontier, graph.num_vertices)
        expected = np.flatnonzero(np.isin(groups.vertex, frontier))
        assert np.array_equal(np.sort(got), expected)


class TestDeferredAccountingEdgeCases:
    def _accounting(self, seed=0):
        rng = np.random.default_rng(seed)
        graph = _random_graph(rng)
        layout = _layout_for(graph)
        groups = layout.groups_by("src")
        return DeferredSearchAccounting(
            ArchConfig(), layout, groups, graph.num_vertices
        )

    def test_no_frontiers_is_free(self):
        acct = self._accounting()
        events = EventLog()
        assert acct.finalize(events) == 0.0
        assert events.cam_searches == 0
        assert acct.total_groups == 0

    def test_empty_frontier_arrays_are_ignored(self):
        acct = self._accounting()
        acct.add(np.empty(0, dtype=np.int64))
        events = EventLog()
        assert acct.finalize(events) == 0.0
        assert events.cam_searches == 0

    def test_frontier_without_groups_is_free(self):
        # A frontier of vertices with no outgoing groups (e.g. a sink)
        # expands to zero searches and zero latency.
        rng = np.random.default_rng(2)
        graph = _random_graph(rng)
        layout = _layout_for(graph)
        groups = layout.groups_by("src")
        sinks = np.setdiff1d(
            np.arange(graph.num_vertices), np.unique(layout.src)
        )
        if sinks.size == 0:
            return
        acct = DeferredSearchAccounting(
            ArchConfig(), layout, groups, graph.num_vertices
        )
        acct.add(sinks[:1])
        events = EventLog()
        assert acct.finalize(events) == 0.0
        assert events.cam_searches == 0
        assert acct.total_groups == 0
