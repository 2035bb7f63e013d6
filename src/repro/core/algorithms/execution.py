"""One functional execution per query, priced by every platform.

The numbers BFS/SSSP, WCC, PageRank and collaborative filtering produce
do not depend on the platform: GaaS-X, GraphR and the CPU/GPU models run
the same recurrences and differ only in how the work maps onto hardware
and what it costs. Each (graph fingerprint, kernel, params) is executed
here once and stored in the process-wide
:class:`~repro.core.reuse.ReuseCache` under the graph's fingerprint
token and unit :data:`UNIT`; the engines and workload traces only
*price* it. The trace entries share that cache's LRU entry and byte
bounds, its ``reuse.hits``/``reuse.misses`` counters, its
``REPRO_REUSE`` switch (off, every call executes afresh) and its
invalidation: a serve-session mutation drops the old graph's traces.

Stored arrays are read-only; engines hand their callers copies. The
oracles — :mod:`repro.baselines.reference` (Dijkstra) and the
array-level :class:`~repro.core.micro.MicroGaaSX` — never read the memo.
"""

from __future__ import annotations

import hashlib
from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np

from ...errors import AlgorithmError
from ...graphs.graph import BipartiteGraph, Graph
from ..cache import graph_fingerprint
from ..engine import gather_ranges, unique_vertices
from ..reuse import get_reuse_cache, reuse_enabled

#: The reuse-cache unit every functional trace is stored under.
UNIT = "execution"


class Wavefront(NamedTuple):
    """A synchronous frontier-driven propagation (BFS/SSSP, WCC).

    ``values`` are the final distances or component labels.
    ``frontiers[i]`` is superstep ``i``'s active vertices (sorted,
    unique) and ``edges_per_step[i]`` the edges they relaxed.
    """

    values: np.ndarray
    frontiers: Tuple[np.ndarray, ...]
    edges_per_step: np.ndarray

    @property
    def supersteps(self) -> int:
        return len(self.frontiers)

    @property
    def frontier_sizes(self) -> np.ndarray:
        return np.array([f.size for f in self.frontiers], dtype=np.int64)


class PageRankTrace(NamedTuple):
    ranks: np.ndarray
    iterations: int  # executed, <= requested under a tolerance


class CFTrace(NamedTuple):
    user_features: np.ndarray
    item_features: np.ndarray


def _memoized(token: str, params: str, compute: Callable[[], tuple]):
    if not reuse_enabled():
        return compute()
    reuse = get_reuse_cache()
    trace = reuse.lookup(token, UNIT, params)
    if trace is None:
        trace = compute()
        reuse.store(token, UNIT, params, trace)
    return trace


def clear_memo() -> None:
    """Drop every stored trace (no other reuse entry)."""
    get_reuse_cache().clear(UNIT)


def traversal(graph: Graph, source: int, weighted: bool) -> Wavefront:
    """The BFS (``weighted=False``) or SSSP Bellman-Ford wavefront;
    ``frontiers[0]`` is the source."""
    n = graph.num_vertices
    if not 0 <= source < n:
        raise AlgorithmError(f"source vertex {source} out of range [0, {n})")

    def compute() -> Wavefront:
        if weighted and graph.num_edges and graph.weights.min() < 0:
            raise AlgorithmError("SSSP requires non-negative edge weights")
        csr = graph.csr()
        dist = np.full(n, np.inf)
        dist[source] = 0.0
        return _propagate(dist, np.array([source]),
                          [(csr, csr.data if weighted else 1.0)])

    kernel = "sssp" if weighted else "bfs"
    return _memoized(graph_fingerprint(graph), f"{kernel}:{source}", compute)


def wcc(
    graph: Graph,
    labels: Optional[np.ndarray] = None,
    frontier: Optional[np.ndarray] = None,
) -> Wavefront:
    """Min-label propagation over out- and in-edges (weak connectivity).

    The cold run seeds every edge-touching vertex with its own id and
    is memoized. A warm start propagates the float ``labels`` (updated
    in place) from ``frontier`` (sorted unique ids) and is not stored.
    """
    if labels is not None:
        return _propagate(
            labels, frontier, [(graph.csr(), 0.0), (graph.csc(), 0.0)]
        )

    def cold() -> Wavefront:
        touched = np.zeros(graph.num_vertices, dtype=bool)
        touched[graph.edges.rows] = True
        touched[graph.edges.cols] = True
        labels = np.arange(graph.num_vertices, dtype=np.float64)
        return wcc(graph, labels, np.flatnonzero(touched))

    return _memoized(graph_fingerprint(graph), "wcc", cold)


def _propagate(
    values: np.ndarray, frontier: np.ndarray, adjacency
) -> Wavefront:
    """Synchronous min-propagation from ``frontier`` until it drains.

    Per superstep each frontier vertex ``u`` offers ``values[u] + w``
    to its neighbours in every ``(matrix, w)`` of ``adjacency`` (CSR or
    CSC; ``w`` the matrix's per-edge data or a constant); a vertex whose
    value dropped joins the next frontier. Every offer reads the
    superstep's starting values, so the scatter order cannot change the
    result.
    """
    scratch = np.zeros(values.size, dtype=bool)
    frontiers, edges = [], []
    while frontier.size:
        frontiers.append(frontier)
        targets, candidates = [], []
        for matrix, weight in adjacency:
            starts = matrix.indptr[frontier]
            degrees = matrix.indptr[frontier + 1] - starts
            idx = gather_ranges(starts, degrees)
            offers = np.repeat(values[frontier], degrees)
            offers += weight[idx] if np.ndim(weight) else weight
            targets.append(matrix.indices[idx])
            candidates.append(offers)
        targets = np.concatenate(targets)
        edges.append(targets.size)
        before = values[targets]
        np.minimum.at(values, targets, np.concatenate(candidates))
        frontier = unique_vertices(targets[values[targets] < before], scratch)
    return Wavefront(values, tuple(frontiers), np.array(edges, dtype=np.int64))


def pagerank(
    graph: Graph,
    alpha: float,
    iterations: int,
    tolerance: Optional[float],
    base: np.ndarray | float = 1.0,
) -> PageRankTrace:
    """Equation 3's power iterations; ``base`` is the teleport term
    (1.0, or a per-vertex vector for personalized PageRank)."""
    teleport = (
        hashlib.sha256(base.tobytes()).hexdigest()
        if isinstance(base, np.ndarray) else float(base)
    )
    params = f"pagerank:{alpha!r}:{iterations}:{tolerance!r}:{teleport}"

    def compute() -> PageRankTrace:
        from .pagerank import reference_iteration

        n = graph.num_vertices
        out_deg = graph.out_degrees().astype(np.float64)
        inv_outdeg = np.zeros(n, dtype=np.float64)
        nonzero = out_deg > 0
        inv_outdeg[nonzero] = 1.0 / out_deg[nonzero]
        ranks = np.ones(n, dtype=np.float64)
        executed = 0
        for _ in range(iterations):
            new_ranks = reference_iteration(
                ranks, graph.edges.rows, graph.edges.cols, inv_outdeg,
                alpha, base=base,
            )
            executed += 1
            delta = float(np.max(np.abs(new_ranks - ranks))) if n else 0.0
            ranks = new_ranks
            if tolerance is not None and delta < tolerance:
                break
        return PageRankTrace(ranks, executed)

    return _memoized(graph_fingerprint(graph), params, compute)


def cf(
    bipartite: BipartiteGraph,
    num_features: int,
    epochs: int,
    learning_rate: float,
    regularization: float,
    seed: int,
) -> CFTrace:
    """Equation 5's epochs from the seeded starting factors; the
    ratings are identified by the unified graph and the user count."""
    params = (f"cf:{bipartite.num_users}:{num_features}:{epochs}:"
              f"{learning_rate!r}:{regularization!r}:{seed}")

    def compute() -> CFTrace:
        from .cf import initial_factors, reference_epoch

        ratings = bipartite.ratings
        users, items = initial_factors(
            bipartite.num_users, bipartite.num_items, num_features, seed
        )
        for _ in range(epochs):
            users, items = reference_epoch(
                ratings.rows, ratings.cols, ratings.data, users, items,
                learning_rate, regularization,
            )
        return CFTrace(users, items)

    token = graph_fingerprint(bipartite.as_unified_graph())
    return _memoized(token, params, compute)
