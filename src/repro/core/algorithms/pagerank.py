"""PageRank on GaaS-X (Section IV, Figure 9c).

Mapping: (src, dst) pairs in CAM crossbars, reciprocal out-degrees in
the MAC crossbars, ranks in the attribute buffer. Shards stream in
column-major (destination interval) order. Per iteration, each
destination vertex present in a crossbar is CAM-searched; the hit
vector enables the matching rows and the MAC accumulates
``rank(u) / OutDeg(u)`` over the enabled edges (Equation 4); the SFU
applies the damping affine of Equation 3.

The paper's Equation 3 is the *unnormalized* PageRank recurrence
``rank(v) = (1 - alpha) + alpha * sum(rank(u) / OutDeg(u))`` — vertices
with zero out-degree simply contribute nothing (no dangling-mass
redistribution), and we reproduce exactly that.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from ...errors import AlgorithmError
from ...events import EventLog
from ..stats import PageRankResult
from . import execution

if TYPE_CHECKING:  # pragma: no cover
    from ..engine import GaaSXEngine


def reference_iteration(
    ranks: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
    inv_outdeg: np.ndarray,
    alpha: float,
    base: np.ndarray | float = 1.0,
) -> np.ndarray:
    """One synchronous PageRank step of Equation 3 (shared with tests).

    ``base`` scales the teleport term: 1.0 gives the paper's uniform
    recurrence; a per-vertex vector gives personalized PageRank (the
    teleport mass concentrates on the preference vertices).
    """
    contrib = np.bincount(
        dst, weights=ranks[src] * inv_outdeg[src], minlength=ranks.size
    )
    return (1.0 - alpha) * base + alpha * contrib


def run(
    engine: "GaaSXEngine",
    alpha: float = 0.85,
    iterations: int = 10,
    tolerance: Optional[float] = None,
    personalization: Optional[np.ndarray] = None,
) -> PageRankResult:
    """Execute PageRank and return ranks plus accounted statistics.

    ``personalization`` optionally gives a non-negative per-vertex
    teleport preference (normalized to mean 1 so magnitudes stay
    comparable to the uniform case) — personalized PageRank on the
    identical hardware dataflow, since only the SFU's affine offset
    changes.
    """
    graph = engine.graph
    n = graph.num_vertices
    if personalization is None:
        base: np.ndarray | float = 1.0
    else:
        base = np.asarray(personalization, dtype=np.float64)
        if base.shape != (n,):
            raise AlgorithmError(
                f"personalization must have one entry per vertex ({n})"
            )
        if base.size and base.min() < 0:
            raise AlgorithmError("personalization must be non-negative")
        total = base.sum()
        if total <= 0:
            raise AlgorithmError("personalization must have positive mass")
        base = base * (n / total)
    layout = engine.layout("col")
    groups = layout.groups_by("dst")

    events = EventLog()
    load_events = EventLog()
    load_time = engine._account_load(
        layout, load_events, mac_values_per_edge=1
    )

    trace = execution.pagerank(graph, alpha, iterations, tolerance, base)
    executed = trace.iterations

    # Every iteration performs the identical search/MAC pass; account
    # one pass and scale by the number of executed iterations. The
    # assembled pass is a pure function of the layout, so warm runs
    # (the serve session's second query onward) replay it from the
    # reuse cache instead of re-walking every group.
    from ..reuse import get_reuse_cache, layout_token, reuse_enabled

    reuse = get_reuse_cache() if reuse_enabled() else None
    cached = None
    if reuse is not None:
        token = layout_token(
            engine.graph, engine.interval_size, "col", engine.config
        )
        cached = reuse.lookup(token, "pagerank-pass", "full")
    if cached is None:
        pass_events = EventLog()
        pass_time = engine._account_search_pass(
            layout, groups, pass_events, cols_engaged=1
        )
        # Per hit: one rank read from the attribute buffer (MAC input).
        pass_events.buffer_reads += layout.num_edges
        # Per group: accumulate the crossbar partial into the sum.
        pass_events.sfu_ops += groups.num_groups
        # Per vertex: damping affine (mul + add) and rank writeback.
        pass_events.sfu_ops += 2 * n
        pass_events.buffer_writes += n
        if reuse is not None:
            reuse.store(
                token, "pagerank-pass", "full", (pass_events, pass_time)
            )
    else:
        pass_events, pass_time = cached
    events.merge(pass_events.scaled(executed))
    compute_time = pass_time * executed
    if engine.streaming:
        # No residency: the shards are re-streamed every iteration.
        events.merge(load_events.scaled(executed))
        load_time = load_time * executed
    else:
        events.merge(load_events)

    stats = engine._finalize(
        events,
        load_time,
        compute_time,
        passes=executed,
        batches=layout.num_batches,
    )
    return PageRankResult(
        ranks=trace.ranks.copy(), iterations=executed, stats=stats
    )
