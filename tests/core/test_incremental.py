"""Incremental recompute: delta PageRank / warm WCC vs. full runs.

The contract under test: for any graph and any mutation sequence, the
incremental kernels answer within epsilon of a from-scratch recompute
(PageRank) or exactly (WCC min-label propagation), and memoization
never perturbs the hardware accounting (EventLog / per-array counter
parity).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.algorithms.incremental import wcc_warm_state
from repro.core.engine import GaaSXEngine
from repro.core.micro import MicroGaaSX
from repro.core.reuse import reset_reuse_cache, set_reuse_enabled
from repro.errors import AlgorithmError
from repro.graphs import Graph
from repro.obs.hw import HwMonitor, check_parity


@pytest.fixture(autouse=True)
def fresh_reuse_state():
    reset_reuse_cache()
    set_reuse_enabled(None)
    yield
    reset_reuse_cache()
    set_reuse_enabled(None)


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
@st.composite
def graphs(draw, max_vertices=20, max_edges=50):
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    count = draw(st.integers(min_value=1, max_value=max_edges))
    pairs = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            min_size=count, max_size=count,
        )
    )
    return Graph.from_edge_list(np.array(pairs), num_vertices=n)


@st.composite
def mutations(draw, n, max_rows=8):
    def batch():
        rows = draw(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=n - 1),
                    st.integers(min_value=0, max_value=n - 1),
                ),
                min_size=0, max_size=max_rows,
            )
        )
        return np.array(
            [[s, d, 1.0] for s, d in rows], dtype=np.float64
        ).reshape(-1, 3)

    return batch(), batch()  # (inserts, deletes)


@st.composite
def graph_and_mutation_sequence(draw):
    graph = draw(graphs())
    steps = draw(st.integers(min_value=1, max_value=3))
    seq = [draw(mutations(graph.num_vertices)) for _ in range(steps)]
    return graph, seq


# ----------------------------------------------------------------------
# PageRank
# ----------------------------------------------------------------------
class TestIncrementalPageRank:
    @given(graph_and_mutation_sequence())
    @settings(max_examples=25, deadline=None)
    def test_matches_full_recompute_within_epsilon(self, data):
        graph, sequence = data
        # Enough iterations that both runs reach the 1e-10 fixed point
        # (worst-case contraction rate is alpha=0.85 per pass): the
        # epsilon-equivalence contract is about converged answers, not
        # mid-flight truncations.
        warm = GaaSXEngine(graph).pagerank(
            iterations=200, tolerance=1e-10
        ).ranks
        for inserts, deletes in sequence:
            graph = graph.with_edges(inserts=inserts, deletes=deletes)
            engine = GaaSXEngine(graph)
            full = engine.pagerank(iterations=200, tolerance=1e-10)
            incremental = engine.pagerank(
                iterations=200, tolerance=1e-10, incremental=True,
                warm_ranks=warm, epsilon=1e-9,
            )
            np.testing.assert_allclose(
                incremental.ranks, full.ranks, atol=1e-6,
            )
            warm = incremental.ranks

    def test_cold_incremental_matches_full(self, small_rmat):
        engine = GaaSXEngine(small_rmat)
        full = engine.pagerank(iterations=200, tolerance=1e-10)
        incremental = engine.pagerank(
            iterations=200, tolerance=1e-10, incremental=True,
            epsilon=1e-9,
        )
        np.testing.assert_allclose(
            incremental.ranks, full.ranks, atol=1e-6
        )

    def test_warm_restart_converges_early(self, small_rmat):
        engine = GaaSXEngine(small_rmat)
        warm = engine.pagerank(iterations=60, tolerance=1e-6).ranks
        restarted = engine.pagerank(
            iterations=60, tolerance=1e-6, incremental=True,
            warm_ranks=warm,
        )
        assert restarted.iterations < 60

    def test_disabled_reuse_still_runs_delta(self, small_rmat):
        """``REPRO_REUSE`` gates memoization only: with it off, the
        delta algorithm runs and answers exactly as it does with it on
        (ranks, iterations and EventLog)."""
        engine = GaaSXEngine(small_rmat)
        warm = engine.pagerank(iterations=5).ranks
        runs = []
        for enabled in (True, False):
            set_reuse_enabled(enabled)
            runs.append(engine.pagerank(
                iterations=30, tolerance=1e-8, incremental=True,
                warm_ranks=warm,
            ))
        on, off = runs
        assert np.array_equal(off.ranks, on.ranks)
        assert off.iterations == on.iterations
        assert off.stats.events.as_dict() == on.stats.events.as_dict()
        full = engine.pagerank(iterations=30, tolerance=1e-8)
        assert off.stats.events.as_dict() != full.stats.events.as_dict()

    def test_personalization_is_rejected(self, small_rmat):
        engine = GaaSXEngine(small_rmat)
        with pytest.raises(AlgorithmError):
            engine.pagerank(
                incremental=True,
                personalization=np.ones(small_rmat.num_vertices),
            )


# ----------------------------------------------------------------------
# WCC
# ----------------------------------------------------------------------
class TestIncrementalWcc:
    @given(graph_and_mutation_sequence())
    @settings(max_examples=25, deadline=None)
    def test_warm_labels_match_full_recompute(self, data):
        graph, sequence = data
        labels = GaaSXEngine(graph).wcc().labels
        for inserts, deletes in sequence:
            new_graph = graph.with_edges(
                inserts=inserts, deletes=deletes
            )
            warm_labels, seed = wcc_warm_state(
                labels, new_graph.num_vertices,
                inserts=inserts, deletes=deletes,
            )
            engine = GaaSXEngine(new_graph)
            warm = engine.wcc(
                warm_labels=warm_labels, seed_vertices=seed
            )
            full = engine.wcc()
            assert np.array_equal(warm.labels, full.labels)
            graph, labels = new_graph, warm.labels

    def test_warm_state_shape_is_validated(self):
        with pytest.raises(AlgorithmError):
            wcc_warm_state(np.zeros(3, dtype=np.int64), 5)

    def test_insert_only_seeds_endpoints(self):
        labels = np.arange(6, dtype=np.int64)
        warm, seed = wcc_warm_state(
            labels, 6, inserts=np.array([[2, 4, 1.0]])
        )
        assert np.array_equal(warm, labels)
        assert np.array_equal(seed, [2, 4])


# ----------------------------------------------------------------------
# Accounting parity under memoization
# ----------------------------------------------------------------------
class TestMemoizedParity:
    def test_warm_micro_run_keeps_counter_parity(self, medium_rmat):
        runs = []
        for _ in range(2):  # second run answers from the memo
            monitor = HwMonitor()
            ranks, events = MicroGaaSX(
                medium_rmat, hw=monitor
            ).pagerank(iterations=2)
            assert check_parity(monitor, events)["ok"]
            runs.append((ranks, events.as_dict()))
        (cold_ranks, cold_events), (warm_ranks, warm_events) = runs
        assert np.array_equal(cold_ranks, warm_ranks)
        assert cold_events == warm_events

    def test_incremental_engine_events_match_full_structure(
        self, small_rmat
    ):
        """The delta path charges real search/MAC events (nonzero),
        and its memoized accounting equals the unmemoized one."""
        engine = GaaSXEngine(small_rmat)
        incremental = engine.pagerank(
            iterations=10, incremental=True
        )
        assert incremental.stats.events.cam_searches > 0
        replayed = engine.pagerank(iterations=10, incremental=True)
        set_reuse_enabled(False)
        unmemoized = engine.pagerank(iterations=10, incremental=True)
        for run in (replayed, unmemoized):
            assert (
                run.stats.events.as_dict()
                == incremental.stats.events.as_dict()
            )
