"""Weakly connected components on GaaS-X (extension kernel).

The paper positions GaaS-X as a *versatile* SpMV engine; WCC is the
classic min-label-propagation member of that family and maps onto the
same CAM + selective-MAC machinery as SSSP: per superstep, every active
vertex broadcasts its component label to its neighbours, which keep the
minimum.

Weak connectivity ignores edge direction, and this is where the ternary
CAM earns its keep: the *same* stored (src, dst) rows serve both
directions — searching the source field finds a vertex's out-edges,
searching the destination field finds its in-edges — with no transposed
copy of the graph (Section IV: "the ternary CAM operation enables the
flexibility to identify the edges corresponding to a particular source
or destination vertex").

The propagation itself is computed by
:func:`repro.core.algorithms.execution.wcc` (a cold run once per graph,
shared with the GAPBS model's workload trace); this module prices its
frontiers with one deferred search pass per direction.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from ...errors import AlgorithmError
from ...events import EventLog
from ..engine import DeferredSearchAccounting
from ..stats import ComponentsResult
from . import execution

if TYPE_CHECKING:  # pragma: no cover
    from ..engine import GaaSXEngine


def run(
    engine: "GaaSXEngine",
    warm_labels: Optional[np.ndarray] = None,
    seed_vertices: Optional[np.ndarray] = None,
) -> ComponentsResult:
    """Label-propagation WCC; returns per-vertex component labels.

    ``warm_labels`` + ``seed_vertices`` start incrementally from a
    previous run's labels (see
    :func:`repro.core.algorithms.incremental.wcc_warm_state`): only the
    seeded frontier re-propagates, so a run on an unchanged or lightly
    mutated graph costs supersteps proportional to what actually
    changed. With ``warm_labels=None`` every edge-touching vertex
    seeds, which is the full recompute.
    """
    n = engine.graph.num_vertices
    if warm_labels is None:
        trace = execution.wcc(engine.graph)
    else:
        warm_labels = np.asarray(warm_labels)
        if warm_labels.shape != (n,):
            raise AlgorithmError(
                f"warm_labels must have one entry per vertex ({n})"
            )
        frontier = np.unique(np.asarray(
            [] if seed_vertices is None else seed_vertices, dtype=np.int64
        ))
        if frontier.size and (frontier[0] < 0 or frontier[-1] >= n):
            raise AlgorithmError("seed vertex out of range")
        trace = execution.wcc(
            engine.graph, warm_labels.astype(np.float64), frontier
        )
    layout = engine.layout("row")

    events = EventLog()
    # Labels ride in the MAC attribute column, like SSSP distances.
    load_time = engine._account_load(layout, events, mac_values_per_edge=1)
    # Out-edges by a source-field search, in-edges by a destination one.
    searches = [
        DeferredSearchAccounting(
            engine.config, layout, layout.groups_by(field), n, cols_engaged=1
        )
        for field in ("src", "dst")
    ]
    for deferred in searches:
        deferred.add(*trace.frontiers)
    compute_time = searches[0].finalize(events) + searches[1].finalize(events)
    # One min-compare per candidate, one select+writeback per improved
    # vertex (the next frontier).
    improved = int(trace.frontier_sizes[1:].sum())
    events.buffer_reads += searches[0].total_groups + searches[1].total_groups
    events.buffer_writes += improved
    events.sfu_ops += int(trace.edges_per_step.sum()) + improved

    stats = engine._finalize(
        events, load_time, compute_time,
        passes=trace.supersteps, batches=layout.num_batches,
    )
    return ComponentsResult(
        labels=trace.values.astype(np.int64),
        supersteps=trace.supersteps,
        stats=stats,
    )
