"""Workload traces: the algorithm-level work every platform prices.

The CPU/GPU software baselines are analytical cost models (Section V-A
of the paper measures real machines; we have none), so all of them
consume the same :class:`WorkloadTrace` — how many passes the algorithm
ran and how many edges/vertices each pass touched. BFS/SSSP and WCC
traces are views of the shared functional execution
(:mod:`repro.core.algorithms.execution`) that GaaS-X and GraphR price
too, so every platform is priced on identical algorithmic work.
PageRank and CF touch every edge and vertex each pass, so their traces
follow from the graph alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.algorithms import execution
from ..graphs.graph import BipartiteGraph, Graph


@dataclass(frozen=True)
class WorkloadTrace:
    """Per-pass work of one algorithm execution."""

    algorithm: str
    num_vertices: int
    num_edges: int
    edges_per_pass: np.ndarray
    active_vertices_per_pass: np.ndarray

    @property
    def passes(self) -> int:
        """Iterations (PR, CF) or supersteps (BFS/SSSP)."""
        return int(self.edges_per_pass.size)

    @property
    def total_edges_processed(self) -> int:
        """Edge relaxations/aggregations summed over all passes."""
        return int(self.edges_per_pass.sum())


@dataclass(frozen=True)
class BaselineResult:
    """Modelled outcome of running a workload on one platform."""

    platform: str
    algorithm: str
    time_s: float
    energy_j: float


def trace_pagerank(graph: Graph, iterations: int = 10) -> WorkloadTrace:
    """PageRank touches every edge and every vertex each iteration."""
    e = np.full(iterations, graph.num_edges, dtype=np.int64)
    v = np.full(iterations, graph.num_vertices, dtype=np.int64)
    return WorkloadTrace("pagerank", graph.num_vertices, graph.num_edges, e, v)


def _per_superstep(name: str, graph: Graph, trace) -> WorkloadTrace:
    """A shared wavefront's edges and active vertices per superstep."""
    return WorkloadTrace(name, graph.num_vertices, graph.num_edges,
                         trace.edges_per_step.copy(), trace.frontier_sizes)


def trace_traversal(
    graph: Graph, source: int, weighted: bool
) -> WorkloadTrace:
    """Per superstep of the synchronous BFS/Bellman-Ford wavefront: the
    active frontier's out-edges and size."""
    trace = execution.traversal(graph, source, weighted)
    return _per_superstep("sssp" if weighted else "bfs", graph, trace)


def trace_wcc(graph: Graph) -> WorkloadTrace:
    """Per superstep of synchronous min-label propagation: the active
    set's out- and in-edges (undirected connectivity) and its size."""
    return _per_superstep("cc", graph, execution.wcc(graph))


def trace_cf(bipartite: BipartiteGraph, epochs: int = 1) -> WorkloadTrace:
    """CF touches every rating twice per epoch (item and user phase)."""
    r = bipartite.num_ratings
    e = np.full(epochs, 2 * r, dtype=np.int64)
    v = np.full(
        epochs, bipartite.num_users + bipartite.num_items, dtype=np.int64
    )
    return WorkloadTrace(
        "cf", bipartite.num_users + bipartite.num_items, r, e, v
    )
