"""The shared functional execution: oracle checks and memo rules.

GaaS-X, GraphR and the workload traces all price one execution per
(graph, kernel, params), so engine-vs-engine agreement no longer says
anything about correctness. These checks hold the shared results
against the independent references (Dijkstra, CSR SpMV) instead, and
pin the memo's contract: read-only storage, copies to callers, the
reuse cache's bounds, content-keyed misses and invalidation.
"""

import numpy as np
import pytest

from repro.baselines import reference
from repro.baselines.graphr import GraphREngine, build_tile_layout
from repro.baselines.workload import trace_traversal
from repro.config import GraphRConfig
from repro.core.algorithms import execution
from repro.core.algorithms.cf import _scatter_rows, reference_epoch
from repro.core.cache import graph_fingerprint
from repro.core.engine import GaaSXEngine
from repro.core.reuse import ReuseCache, set_reuse_enabled
from repro.errors import AlgorithmError
from repro.graphs import Graph
from repro.graphs.generators import bipartite_ratings, rmat


#: Entry bound of the per-test reuse cache.
BOUND = 8


@pytest.fixture(autouse=True)
def cache(monkeypatch):
    """A fresh process reuse cache with a small entry bound."""
    fresh = ReuseCache(max_entries=BOUND)
    monkeypatch.setattr("repro.core.reuse._global_cache", fresh)
    yield fresh
    set_reuse_enabled(None)


def _traces(cache: ReuseCache) -> int:
    return sum(key[1] == execution.UNIT for key in cache._entries)


def _awkward_graph() -> Graph:
    """Self-loops, duplicate edges with distinct weights, a vertex with
    no out-edges and an island unreachable from vertex 0."""
    edges = np.array([
        [0, 1], [0, 1], [1, 2], [2, 2], [2, 3], [0, 3], [3, 4],
        [1, 4], [4, 4], [3, 1], [6, 7], [7, 6], [0, 5],
    ])
    weights = np.array(
        [5.0, 2.0, 1.5, 0.5, 2.0, 9.0, 1.0, 7.0, 3.0, 0.25, 1.0, 1.0, 4.0]
    )
    return Graph.from_edge_list(
        edges, weights, num_vertices=8, name="awkward", deduplicate=False
    )


def _same_distances(a: np.ndarray, b: np.ndarray) -> bool:
    finite = np.isfinite(b)
    return bool(
        np.array_equal(np.isfinite(a), finite)
        and np.allclose(a[finite], b[finite])
    )


class TestOracles:
    @pytest.mark.parametrize("source", [0, 3, 5, 6])
    def test_traversals_match_references(self, source):
        graph = _awkward_graph()
        bfs = execution.traversal(graph, source, weighted=False)
        sssp = execution.traversal(graph, source, weighted=True)
        assert _same_distances(bfs.values, reference.bfs(graph, source))
        assert _same_distances(sssp.values, reference.sssp(graph, source))

    def test_zero_out_degree_source(self):
        graph = _awkward_graph()
        trace = execution.traversal(graph, 5, weighted=True)
        assert trace.supersteps == 1
        assert trace.edges_per_step.tolist() == [0]
        assert np.isinf(np.delete(trace.values, 5)).all()

    def test_rmat_traversals_match_references(self, medium_rmat):
        for source in (0, 17):
            sssp = execution.traversal(medium_rmat, source, weighted=True)
            assert _same_distances(
                sssp.values, reference.sssp(medium_rmat, source)
            )
            bfs = execution.traversal(medium_rmat, source, weighted=False)
            assert _same_distances(
                bfs.values, reference.bfs(medium_rmat, source)
            )

    def test_frontiers_and_edges_consistent(self, medium_rmat):
        trace = execution.traversal(medium_rmat, 0, weighted=True)
        degrees = medium_rmat.out_degrees()
        assert trace.frontiers[0].tolist() == [0]
        for frontier, edges in zip(trace.frontiers, trace.edges_per_step):
            assert np.all(np.diff(frontier) > 0)  # sorted, unique
            assert int(degrees[frontier].sum()) == int(edges)

    @pytest.mark.parametrize("graph_name", ["awkward", "rmat"])
    def test_ranks_match_reference(self, graph_name, medium_rmat):
        graph = _awkward_graph() if graph_name == "awkward" else medium_rmat
        trace = execution.pagerank(graph, 0.85, 12, None)
        assert trace.iterations == 12
        assert np.allclose(
            trace.ranks, reference.pagerank(graph, 0.85, 12), atol=1e-12
        )

    def test_cf_matches_reference(self, small_bipartite):
        trace = execution.cf(small_bipartite, 8, 2, 0.002, 0.02, 4)
        users, items = reference.collaborative_filtering(
            small_bipartite, 8, 2, 0.002, 0.02, 4
        )
        assert np.allclose(trace.user_features, users)
        assert np.allclose(trace.item_features, items)

    def test_errors(self, medium_rmat, cache):
        with pytest.raises(AlgorithmError):
            execution.traversal(medium_rmat, medium_rmat.num_vertices, True)
        negative = Graph.from_edge_list([[0, 1]], [-1.0], num_vertices=2)
        with pytest.raises(AlgorithmError):
            execution.traversal(negative, 0, weighted=True)
        assert _traces(cache) == 0


class TestMemo:
    def test_stored_arrays_are_read_only(self, medium_rmat):
        trace = execution.traversal(medium_rmat, 0, weighted=True)
        arrays = [trace.values, trace.edges_per_step, *trace.frontiers]
        arrays.append(execution.pagerank(medium_rmat, 0.85, 3, None).ranks)
        assert not any(a.flags.writeable for a in arrays)

    def test_callers_get_copies(self, medium_rmat, small_bipartite):
        first = GaaSXEngine(medium_rmat).sssp(0).distances
        expected = first.copy()
        first[:] = -1.0
        again = GraphREngine(medium_rmat).sssp(0).distances
        assert np.array_equal(again, expected)
        assert np.array_equal(GaaSXEngine(medium_rmat).sssp(0).distances,
                              expected)

        ranks = GraphREngine(medium_rmat).pagerank(iterations=4).ranks
        kept = ranks.copy()
        ranks *= 7.0
        assert np.array_equal(
            GaaSXEngine(medium_rmat).pagerank(iterations=4).ranks, kept
        )

        cf = GaaSXEngine(small_bipartite).collaborative_filtering(8, 1)
        kept_users = cf.user_features.copy()
        cf.user_features[:] = 0.0
        again_cf = GraphREngine(small_bipartite).collaborative_filtering(8, 1)
        assert np.array_equal(again_cf.user_features, kept_users)

        workload = trace_traversal(medium_rmat, 0, weighted=True)
        workload.edges_per_pass[:] = 0
        assert trace_traversal(medium_rmat, 0, True).edges_per_pass.sum() > 0

    def test_one_execution_serves_every_platform(self, medium_rmat, cache):
        trace = execution.traversal(medium_rmat, 2, weighted=False)
        assert execution.traversal(medium_rmat, 2, weighted=False) is trace
        assert _traces(cache) == 1
        hits = cache.hits
        GaaSXEngine(medium_rmat).bfs(2)
        GraphREngine(medium_rmat).bfs(2)
        trace_traversal(medium_rmat, 2, weighted=False)
        assert _traces(cache) == 1
        assert cache.hits >= hits + 3

    def test_bounded_over_many_sources(self, medium_rmat, cache):
        first = execution.traversal(medium_rmat, 0, weighted=True)
        for source in range(1, 3 * BOUND):
            newest = execution.traversal(medium_rmat, source, weighted=True)
            assert _traces(cache) <= BOUND
        assert _traces(cache) == BOUND
        # Least recently used goes first: source 0 was evicted and is
        # executed again; the newest entry is still served.
        assert execution.traversal(medium_rmat, source, True) is newest
        again = execution.traversal(medium_rmat, 0, weighted=True)
        assert again is not first
        assert np.array_equal(again.values, first.values)

    def test_byte_budget_bounds_traces(self, medium_rmat, monkeypatch):
        one = execution.traversal(medium_rmat, 0, weighted=True)
        size = sum(a.nbytes for a in (one.values, one.edges_per_step,
                                      *one.frontiers))
        small = ReuseCache(max_bytes=3 * size)
        monkeypatch.setattr("repro.core.reuse._global_cache", small)
        for source in range(12):
            execution.traversal(medium_rmat, source, weighted=True)
            assert small.describe()["bytes"] <= 3 * size
        assert 0 < _traces(small) < 12

    def test_concurrent_callers(self, medium_rmat, cache):
        import sys
        import threading

        sources = range(2 * BOUND)
        expected = {s: reference.sssp(medium_rmat, s) for s in sources}
        wrong = []

        def worker(offset):
            for i in range(40):
                source = (i + offset) % len(sources)
                got = execution.traversal(medium_rmat, source, weighted=True)
                if not _same_distances(got.values, expected[source]):
                    wrong.append(source)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,))
                       for k in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert _traces(cache) == BOUND

    def test_mutated_graph_misses(self, medium_rmat, cache):
        before = execution.traversal(medium_rmat, 0, weighted=True)
        src = int(medium_rmat.edges.rows[0])
        dst = int(medium_rmat.edges.cols[0])
        mutated = medium_rmat.with_edges(inserts=[[src, dst, 1e-3]])
        after = execution.traversal(mutated, 0, weighted=True)
        assert after is not before
        assert _traces(cache) == 2
        assert _same_distances(after.values, reference.sssp(mutated, 0))
        # What a serve-session mutation does: drop the old graph's traces.
        assert cache.invalidate(graph_fingerprint(medium_rmat)) == 1
        assert execution.traversal(mutated, 0, weighted=True) is after

    def test_reuse_switch_bypasses_the_memo(self, medium_rmat, cache):
        set_reuse_enabled(False)
        first = execution.traversal(medium_rmat, 0, weighted=True)
        again = execution.traversal(medium_rmat, 0, weighted=True)
        assert again is not first
        assert np.array_equal(again.values, first.values)
        assert cache.describe()["entries"] == 0

    def test_clear_memo_keeps_other_entries(self, medium_rmat, cache):
        execution.traversal(medium_rmat, 0, weighted=True)
        cache.store("token", "gang", "fp", np.zeros(4))
        execution.clear_memo()
        assert _traces(cache) == 0
        assert cache.describe()["entries"] == 1

    def test_params_are_part_of_the_key(self, medium_rmat, cache):
        a = execution.pagerank(medium_rmat, 0.85, 5, None)
        b = execution.pagerank(medium_rmat, 0.85, 6, None)
        c = execution.pagerank(medium_rmat, 0.85, 50, 1e-3)
        pref = np.zeros(medium_rmat.num_vertices)
        pref[0] = float(medium_rmat.num_vertices)
        d = execution.pagerank(medium_rmat, 0.85, 5, None, base=pref)
        assert (a.iterations, b.iterations) == (5, 6)
        assert c.iterations < 50
        assert not np.array_equal(a.ranks, d.ranks)
        assert _traces(cache) == 4


class TestWcc:
    @staticmethod
    def _components(graph: Graph) -> np.ndarray:
        """Smallest vertex id of each vertex's weak component."""
        parent = list(range(graph.num_vertices))

        def root(v):
            while parent[v] != v:
                v = parent[v]
            return v

        for u, v in zip(graph.edges.rows, graph.edges.cols):
            a, b = sorted((root(int(u)), root(int(v))))
            parent[b] = a
        return np.array([root(v) for v in range(graph.num_vertices)])

    def test_labels_match_union_find(self, medium_rmat):
        for graph in (_awkward_graph(), medium_rmat):
            trace = execution.wcc(graph)
            assert np.array_equal(trace.values, self._components(graph))

    def test_gaasx_and_workload_share_the_cold_run(self, medium_rmat, cache):
        from repro.baselines.workload import trace_wcc

        run = GaaSXEngine(medium_rmat).wcc()
        workload = trace_wcc(medium_rmat)
        assert _traces(cache) == 1
        assert workload.passes == run.supersteps
        run.labels[:] = -1
        assert GaaSXEngine(medium_rmat).wcc().labels.min() >= 0

    def test_warm_start_is_not_stored(self, medium_rmat, cache):
        n = medium_rmat.num_vertices
        warm = GaaSXEngine(medium_rmat).wcc(
            warm_labels=np.arange(n), seed_vertices=np.arange(n)
        )
        assert _traces(cache) == 0
        assert np.array_equal(warm.labels, self._components(medium_rmat))


class TestGraphRRowGroups:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_groups_per_src_equals_sorted_groups(self, seed):
        rng = np.random.default_rng(seed)
        base = rmat(300, 2500, seed=seed)
        extra = rng.integers(0, 300, size=(200, 2))
        edges = np.concatenate(
            [np.stack([base.edges.rows, base.edges.cols], axis=1), extra,
             extra[:50]]
        )
        graph = Graph.from_edge_list(
            edges, rng.uniform(1, 5, len(edges)), num_vertices=300,
            deduplicate=False,
        )
        for tile in (4, 16):
            layout = build_tile_layout(graph, GraphRConfig(tile_size=tile))
            expected = np.bincount(
                layout.groups_by_src().vertex, minlength=300
            )
            assert np.array_equal(layout.groups_per_src(), expected)

    def test_empty_layout(self):
        graph = Graph.from_edge_list([], num_vertices=5)
        layout = build_tile_layout(graph, GraphRConfig())
        assert layout.groups_per_src().tolist() == [0] * 5


def test_cf_bincount_scatter_equals_add_at():
    ratings = bipartite_ratings(30, 9, 150, seed=3)
    users, items = ratings.ratings.rows, ratings.ratings.cols
    rng = np.random.default_rng(0)
    rows = rng.normal(size=(users.size, 6))
    for index, size in ((items, 9), (users, 30)):
        expected = np.zeros((size, 6))
        np.add.at(expected, index, rows)
        assert np.array_equal(_scatter_rows(index, rows, size), expected)
    # A whole epoch through both accumulations, bit for bit.
    p = rng.uniform(size=(30, 6))
    q = rng.uniform(size=(9, 6))
    data = ratings.ratings.data
    errors = data - np.einsum("ij,ij->i", p[users], q[items])
    grad = np.zeros_like(q)
    np.add.at(grad, items, errors[:, None] * p[users])
    deg = np.bincount(items, minlength=9).astype(np.float64)
    q_expected = q + 0.01 * (grad - 0.02 * deg[:, None] * q)
    _p, q_new = reference_epoch(users, items, data, p, q, 0.01, 0.02)
    assert np.array_equal(q_new, q_expected)
