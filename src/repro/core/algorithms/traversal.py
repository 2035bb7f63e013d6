"""BFS and SSSP on GaaS-X (Section IV, Figure 9b).

Both are frontier-driven relaxations of Equations 1 and 2: per
superstep, each *active* source vertex is CAM-searched in the crossbars
holding its edges; the MAC computes ``dist(u) + w(u, v)`` on the
enabled rows (``alpha x Eweight + dist(u) x 1`` against the constant-1
column), and the SFU takes the running minimum into the destination's
distance. A vertex whose distance improved becomes active for the next
superstep; the loop ends when the frontier drains (Bellman-Ford
wavefront order, synchronous within a superstep).

BFS is SSSP with the weight column preset to the constant 1, which
also removes the per-edge MAC attribute write at load time
(Section IV: "without the overhead of loading edge weights").

The wavefront itself is computed once per (graph, source, kernel) by
:func:`repro.core.algorithms.execution.traversal` and shared with
GraphR and the CPU/GPU models; this module only prices its frontiers.
Each superstep CAM-searches exactly the frontier's groups; in the
resident case all event/latency accounting is deferred into one
vectorized pass at the end
(:class:`~repro.core.engine.DeferredSearchAccounting`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ...events import EventLog
from ..engine import DeferredSearchAccounting
from ..stats import TraversalResult
from . import execution

if TYPE_CHECKING:  # pragma: no cover
    from ..engine import GaaSXEngine


def run(engine: "GaaSXEngine", source: int, weighted: bool) -> TraversalResult:
    """Execute BFS (``weighted=False``) or SSSP and return distances."""
    n = engine.graph.num_vertices
    trace = execution.traversal(engine.graph, source, weighted)
    layout = engine.layout("row")
    groups = layout.groups_by("src")

    events = EventLog()
    mac_values = 1 if weighted else 0
    if engine.streaming:
        # Re-stream every crossbar holding an active source's edges.
        load_time = 0.0
        compute_time = 0.0
        buffer_reads = 0
        for frontier in trace.frontiers:
            gids = groups.groups_of(frontier, n)
            xbar_mask = np.zeros(layout.num_xbars, dtype=bool)
            xbar_mask[groups.xbar[gids]] = True
            load_time += engine._account_load(
                layout, events,
                xbar_mask=xbar_mask, mac_values_per_edge=mac_values,
            )
            compute_time += engine._account_search_pass(
                layout, groups, events, group_ids=gids, cols_engaged=2
            )
            buffer_reads += int(gids.size)  # one dist(u) read per search
    else:
        load_time = engine._account_load(
            layout, events, mac_values_per_edge=mac_values
        )
        deferred = DeferredSearchAccounting(
            engine.config, layout, groups, n, cols_engaged=2
        )
        deferred.add(*trace.frontiers)
        compute_time = deferred.finalize(events)
        buffer_reads = deferred.total_groups
    # SFU/buffer accounting: one min-compare per candidate, one
    # select+writeback per improved destination (the next frontier).
    improved = int(trace.frontier_sizes[1:].sum())
    events.buffer_reads += buffer_reads
    events.buffer_writes += improved
    events.sfu_ops += int(trace.edges_per_step.sum()) + improved

    stats = engine._finalize(
        events,
        load_time,
        compute_time,
        passes=trace.supersteps,
        batches=layout.num_batches,
    )
    return TraversalResult(
        distances=trace.values.copy(),
        source=source,
        supersteps=trace.supersteps,
        stats=stats,
    )
