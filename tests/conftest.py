"""Shared fixtures: small deterministic graphs and engines."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import ArchConfig
from repro.graphs import COOMatrix, Graph
from repro.graphs.generators import bipartite_ratings, grid_2d, rmat
from repro.storage.mmap_store import reset_store


@pytest.fixture(scope="session", autouse=True)
def _session_store(tmp_path_factory):
    """Root the mmap graph store in a session temp dir.

    ``load_dataset`` persists every square stand-in to the store, so
    without this the suite would write under ``~/.cache``.
    """
    patch = pytest.MonkeyPatch()
    patch.setenv("REPRO_STORE_DIR", str(tmp_path_factory.mktemp("store")))
    reset_store()
    yield
    patch.undo()
    reset_store()


@pytest.fixture(scope="session")
def small_rmat() -> Graph:
    """~300-edge scale-free graph; the workhorse for engine tests."""
    return rmat(64, 300, seed=42, name="small-rmat")


@pytest.fixture(scope="session")
def medium_rmat() -> Graph:
    """~2000-edge graph spanning several crossbars and shards."""
    return rmat(256, 2000, seed=7, name="medium-rmat")


@pytest.fixture()
def diamond_graph() -> Graph:
    """Tiny hand-checkable DAG: 0 -> {1, 2} -> 3 with known weights.

    Shortest paths from 0: dist(1)=1, dist(2)=4, dist(3)=3 (via 1).
    """
    edges = np.array([[0, 1], [0, 2], [1, 3], [2, 3]])
    weights = np.array([1.0, 4.0, 2.0, 1.0])
    return Graph.from_edge_list(edges, weights, num_vertices=4, name="diamond")


@pytest.fixture()
def figure7_graph() -> Graph:
    """The example graph of the paper's Figure 7(a)."""
    triples = [
        (1, 2, 6.0), (3, 2, 5.0), (4, 2, 8.0), (1, 3, 4.0),
        (5, 3, 6.0), (2, 4, 4.0), (3, 4, 2.0), (5, 4, 7.0),
    ]
    edges = np.array([(s, d) for s, d, _ in triples])
    weights = np.array([w for _, _, w in triples])
    return Graph.from_edge_list(edges, weights, num_vertices=6, name="fig7")


@pytest.fixture(scope="session")
def small_bipartite():
    """Small rating graph for collaborative-filtering tests."""
    return bipartite_ratings(40, 12, 200, seed=5, name="small-ratings")


@pytest.fixture(scope="session")
def road_grid() -> Graph:
    """8x8 weighted grid (planar, positive weights)."""
    return grid_2d(8, 8, seed=3, name="road-grid")


@pytest.fixture()
def tiny_config() -> ArchConfig:
    """A 4-crossbar machine so multi-batch paths get exercised."""
    return ArchConfig(num_crossbars=4)


def make_graph(edges, weights=None, n=None) -> Graph:
    """Terse helper for literal edge lists in tests."""
    arr = np.asarray(edges)
    return Graph.from_edge_list(arr, weights, num_vertices=n)
