"""The GaaS-X engine: vectorized event-accounting simulator.

This is the scalable counterpart of the array-level models in
:mod:`repro.xbar`. It executes the paper's five-phase execution model
(Section III-B) over a whole graph with numpy-vectorized accounting:

* **Initialization / data loading** — a :class:`CrossbarLayout` packs
  sub-shards into CAM/MAC crossbar pairs; programming cost is charged
  per crossbar row, serial within a crossbar, parallel across the 2048
  crossbars, batches serial.
* **CAM search** — one search per (crossbar, searched vertex) group.
* **MAC** — one operation per ``mac_accumulate_limit``-row chunk of a
  group's hit vector; the rows-accumulated histogram of every operation
  is recorded (Figure 13).
* **Special function** — scalar epilogue ops charged per element.

Latency model: within a batch the crossbar pipelines run concurrently,
so a batch's time is the *maximum* per-crossbar serial time; batches
are sequential; loading does not overlap compute. A graph whose edge
set fits one batch is *resident*: it is programmed once and every
subsequent iteration/superstep runs compute-only — the structural
advantage sparse mapping buys (Section II-D).

The algorithms themselves live in :mod:`repro.core.algorithms`; the
engine provides the machinery they share and is validated event-for-
event against the array-level simulator on small graphs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from ..storage.disk import DiskModel

import numpy as np

from ..config import ArchConfig
from ..energy.ledger import EnergyLedger
from ..errors import AlgorithmError
from ..events import EventLog
from ..graphs.graph import BipartiteGraph, Graph
from ..obs.metrics import observe_event_counts
from ..obs.trace import get_tracer
from .cache import get_cache
from .controller import build_plan, record_plan
from .loader import CrossbarLayout, GroupIndex
from .stats import (
    CFResult,
    ComponentsResult,
    GNNResult,
    PageRankResult,
    RunStats,
    TraversalResult,
)


def default_interval_size(num_vertices: int) -> int:
    """Default shard interval: a 64x64 grid, but never below 128.

    GridGraph-style frameworks pick the interval so the grid has a few
    thousand cells; 64 intervals keeps shard metadata small while still
    giving the streaming order locality.
    """
    return max(128, -(-num_vertices // 64))


def gather_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(s, s+l)`` for each (s, l) pair, vectorized.

    Only one output-sized array is ever materialized: the result starts
    as all-ones, range-opening positions are overwritten with jumps
    from the previous range's last element, and an in-place cumulative
    sum recovers every index. (The naive vectorization repeats the
    starts *and* an ``arange(total)`` — two extra output-sized
    temporaries that dominate peak memory on huge frontiers.)
    """
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    nonzero = lengths > 0
    if not nonzero.all():
        starts = starts[nonzero]
        lengths = lengths[nonzero]
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    out = np.ones(total, dtype=np.int64)
    out[0] = starts[0]
    if starts.size > 1:
        # Jump from the end of range i-1 (starts[i-1] + lengths[i-1] - 1)
        # to starts[i]; boundaries are distinct because zero-length
        # ranges were dropped above.
        boundaries = np.cumsum(lengths[:-1])
        out[boundaries] = starts[1:] - starts[:-1] - lengths[:-1] + 1
    np.cumsum(out, out=out)
    return out


def chunk_histogram(hits: np.ndarray, limit: int) -> Tuple[np.ndarray, np.ndarray]:
    """Split per-group hit counts into MAC-op chunks.

    Returns ``(ops_per_group, hist)`` where ``hist[i]`` counts MAC ops
    accumulating exactly ``i`` rows (index up to ``limit``).
    """
    hits = np.asarray(hits, dtype=np.int64)
    full = hits // limit
    rem = hits % limit
    ops = full + (rem > 0)
    hist = np.zeros(limit + 1, dtype=np.int64)
    hist[limit] += int(full.sum())
    if rem.size:
        rem_nonzero = rem[rem > 0]
        if rem_nonzero.size:
            hist[: rem_nonzero.max() + 1] += np.bincount(rem_nonzero)
    return ops, hist


def unique_vertices(ids: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Sorted unique vertex ids, sized to the input, not the graph.

    ``scratch`` is a caller-owned all-False boolean array over the
    vertex set; it is used (and reset) only when the candidate set is
    large enough that one linear scan beats sorting it. Small inputs
    take a sort-and-mask path instead, keeping the per-superstep cost
    of frontier deduplication O(frontier log frontier) rather than
    O(num_vertices). Both paths return identical arrays.
    """
    if ids.size == 0:
        return ids
    if ids.size * 32 < scratch.size:
        ids = np.sort(ids)
        keep = np.empty(ids.size, dtype=bool)
        keep[0] = True
        keep[1:] = ids[1:] != ids[:-1]
        return ids[keep]
    scratch[ids] = True
    out = np.flatnonzero(scratch)
    scratch[out] = False
    return out


class DeferredSearchAccounting:
    """Batched event/latency accounting for frontier-driven supersteps.

    A traversal superstep with a three-vertex frontier should cost
    three searches' worth of accounting — but even compact per-
    superstep accounting pays a few dozen numpy-call overheads per
    superstep, which dominates on high-diameter graphs (thousands of
    supersteps). This accumulator just records each superstep's
    frontier (the array the algorithm already holds — recording is
    O(1)) and performs the *entire* run's group expansion, event
    accounting, and latency reduction in one vectorized pass at the
    end.

    Latency semantics are identical to per-superstep
    :meth:`GaaSXEngine._account_search_pass`: within a superstep,
    per-crossbar serial time is maxed over each batch and the batch
    maxima are summed; supersteps are summed. Frontiers must hold
    unique in-range vertex ids.

    After :meth:`finalize`, :attr:`total_groups` holds the number of
    CAM searches accounted across all recorded supersteps (callers use
    it for their own per-search buffer-read accounting).
    """

    def __init__(
        self,
        config: ArchConfig,
        layout: "CrossbarLayout",
        groups: "GroupIndex",
        num_vertices: int,
        cols_engaged: int = 1,
    ) -> None:
        self._config = config
        self._layout = layout
        self._groups = groups
        self._num_vertices = num_vertices
        self._cols = cols_engaged
        self._frontiers: list = []
        #: CAM searches accounted by :meth:`finalize` (0 until then).
        self.total_groups = 0

    def add(self, *frontiers: np.ndarray) -> None:
        """Record supersteps' frontiers (unique vertex ids), in order."""
        self._frontiers.extend(f for f in frontiers if f.size)

    def finalize(self, events: EventLog) -> float:
        """Apply all deferred events to ``events``; return the summed
        compute latency of every recorded superstep."""
        if not self._frontiers:
            return 0.0
        config = self._config
        groups = self._groups
        sizes = np.array([f.size for f in self._frontiers], dtype=np.int64)
        verts = np.concatenate(self._frontiers)
        offsets, perm = groups.vertex_index(self._num_vertices)
        starts = offsets[verts]
        counts = offsets[verts + 1] - starts
        gids = perm[gather_ranges(starts, counts)]
        if gids.size == 0:
            return 0.0
        step_of_vert = np.repeat(np.arange(sizes.size), sizes)
        gids_per_step = np.bincount(
            step_of_vert, weights=counts, minlength=sizes.size
        ).astype(np.int64)
        step = np.repeat(np.arange(sizes.size), gids_per_step)
        xbar = groups.xbar[gids]
        hits = groups.count[gids]
        ops, hist = chunk_histogram(hits, config.mac_accumulate_limit)
        total_hits = int(hits.sum())
        total_ops = int(ops.sum())
        self.total_groups = int(gids.size)
        events.cam_searches += int(gids.size)
        events.mac_ops += total_ops
        events.mac_rows_accumulated += total_hits
        events.mac_cell_ops += total_hits * self._cols
        events._grow_hist(hist.size)
        events.mac_rows_hist[: hist.size] += hist
        events.dac_conversions += total_hits
        events.adc_conversions += total_ops * min(
            self._cols, config.mac_cols
        )
        return self._latency(step, xbar, ops, int(sizes.size))

    def _latency(
        self,
        step: np.ndarray,
        xbar: np.ndarray,
        ops: np.ndarray,
        num_steps: int,
    ) -> float:
        """Sum over supersteps of (max over batch of per-crossbar time).

        The common path bins searches and MAC ops onto a dense
        (superstep, crossbar) grid with ``bincount`` — no sorting —
        then folds the crossbar axis into (batch, crossbar-in-batch)
        and maxes it out. Crossbars a superstep never touched hold 0
        and cannot win a max against a touched crossbar's positive
        time; all-idle batches contribute exactly the 0 they would
        have contributed by not appearing at all.
        """
        tech = self._config.tech
        num_crossbars = self._config.num_crossbars
        num_batches = self._layout.num_batches
        width = num_batches * num_crossbars
        cells = num_steps * width
        if xbar.size * 8 >= cells and cells <= 32_000_000:
            # Dense enough that binning onto the full (superstep,
            # crossbar) grid beats sorting the group records.
            key = step * width + xbar
            searches = np.bincount(key, minlength=cells)
            seg_ops = np.bincount(key, weights=ops, minlength=cells)
            grid_time = searches * tech.cam_latency_s + seg_ops * (
                tech.mac_latency_s + tech.input_stage_latency_s
            )
            batch_time = grid_time.reshape(
                num_steps, num_batches, num_crossbars
            ).max(axis=2)
            return float(batch_time.sum())
        # Sparse (or huge-grid) fallback: sort by (superstep, crossbar)
        # and reduce over segment boundaries — O(G log G), O(G) memory.
        order = np.argsort(step * width + xbar, kind="stable")
        step = step[order]
        xbar = xbar[order]
        ops = ops[order]
        seg_head = np.empty(xbar.size, dtype=bool)
        seg_head[0] = True
        seg_head[1:] = (step[1:] != step[:-1]) | (xbar[1:] != xbar[:-1])
        seg_starts = np.flatnonzero(seg_head)
        searches = np.diff(np.append(seg_starts, xbar.size))
        seg_ops = np.add.reduceat(ops, seg_starts)
        seg_time = searches * tech.cam_latency_s + seg_ops * (
            tech.mac_latency_s + tech.input_stage_latency_s
        )
        seg_step = step[seg_starts]
        seg_batch = self._layout.batch_of_xbar(xbar[seg_starts])
        batch_head = np.empty(seg_batch.size, dtype=bool)
        batch_head[0] = True
        batch_head[1:] = (seg_step[1:] != seg_step[:-1]) | (
            seg_batch[1:] != seg_batch[:-1]
        )
        batch_time = np.maximum.reduceat(
            seg_time, np.flatnonzero(batch_head)
        )
        return float(batch_time.sum())


class GaaSXEngine:
    """GaaS-X accelerator bound to one input graph.

    Parameters
    ----------
    graph:
        A :class:`Graph` (PageRank/BFS/SSSP) or :class:`BipartiteGraph`
        (collaborative filtering).
    config:
        Machine configuration; defaults to the paper's Table I design.
    interval_size:
        Shard interval; defaults to a 64x64 grid over the vertex set.
    """

    def __init__(
        self,
        graph: Graph | BipartiteGraph,
        config: Optional[ArchConfig] = None,
        interval_size: Optional[int] = None,
        streaming: bool = False,
        disk: Optional["DiskModel"] = None,
    ) -> None:
        """``streaming=True`` disables the in-place residency model:
        the graph is re-streamed into the crossbars on every pass
        (whole graph per PageRank/CF iteration, active shards per
        traversal superstep). Used by the residency ablation to
        quantify what unified memory/compute arrays buy.

        ``disk`` optionally prices the shard fetches feeding each load;
        loading is then charged ``max(crossbar write time, disk stream
        time)`` since the two pipeline. The default (None) matches the
        paper's evaluation, which — like the accelerator literature it
        compares against — excludes host storage I/O from the modelled
        execution time; the ``abl-disk`` ablation quantifies when that
        assumption breaks.
        """
        self.config = config if config is not None else ArchConfig()
        self.streaming = streaming
        self.disk = disk
        self.ledger = EnergyLedger(self.config.tech)
        if isinstance(graph, BipartiteGraph):
            self.bipartite: Optional[BipartiteGraph] = graph
            self.graph = graph.as_unified_graph()
        else:
            self.bipartite = None
            self.graph = graph
        if interval_size is None:
            interval_size = default_interval_size(self.graph.num_vertices)
        self.interval_size = interval_size
        # Grids and layouts are shared through the process-wide
        # content-keyed cache: engines over equal (graph, interval,
        # order, config) tuples reuse one materialization.
        self._grid = get_cache().grid(self.graph, interval_size)
        self._layouts: dict = {}

    @property
    def attributes_fit_buffer(self) -> bool:
        """Whether one interval's vertex attributes fit the attribute
        buffer — the paper's stated operating assumption (Section
        III-B). Engines with huge intervals would in reality pay
        off-chip attribute traffic the model does not charge."""
        return self.interval_size <= self.config.max_resident_attributes

    # ------------------------------------------------------------------
    # Layout access
    # ------------------------------------------------------------------
    def layout(self, order: str) -> CrossbarLayout:
        """The pass layout for the given shard streaming order (cached)."""
        if order not in self._layouts:
            self._layouts[order] = get_cache().layout(
                self.graph, self._grid, order, self.config
            )
        return self._layouts[order]

    # ------------------------------------------------------------------
    # Accounting helpers shared by the kernels
    # ------------------------------------------------------------------
    def _account_load(
        self,
        layout: CrossbarLayout,
        events: EventLog,
        xbar_mask: Optional[np.ndarray] = None,
        mac_values_per_edge: int = 1,
    ) -> float:
        """Charge one (possibly partial) load and return its latency.

        ``xbar_mask`` restricts the load to a subset of crossbars (the
        superstep case: only shards containing active sources are
        streamed in). ``mac_values_per_edge`` is 0 for BFS (the weight
        column is preset to constant 1, Section IV) and 1 otherwise.
        """
        rows = layout.rows_per_xbar()
        if xbar_mask is not None:
            rows = np.where(xbar_mask, rows, 0)
        edges_loaded = int(rows.sum())
        if edges_loaded == 0:
            return 0.0
        # CAM side: one row write per edge; a TCAM bit is two cells.
        events.cam_row_writes += edges_loaded
        events.cam_cell_writes += edges_loaded * 2 * self.config.cam_width_bits
        # MAC side: one attribute row per edge.
        if mac_values_per_edge > 0:
            events.row_writes += edges_loaded
            events.cell_writes += (
                edges_loaded * mac_values_per_edge * self.config.bit_slices
            )
        # Latency: CAM and MAC arrays program concurrently; the crossbar
        # pair's load time is its row count (both sides write the same
        # number of rows). Crossbars in a batch program in parallel.
        num_batches = layout.num_batches
        batch_rows = np.zeros(num_batches, dtype=np.int64)
        xbar_ids = np.arange(layout.num_xbars)
        np.maximum.at(batch_rows, layout.batch_of_xbar(xbar_ids), rows)
        write_time = (
            float(batch_rows.sum()) * self.config.tech.write_row_latency_s
        )
        if self.disk is None:
            return write_time
        # Disk fetch pipelines with programming; loading takes the max.
        loaded = rows > 0
        seeks = int(np.count_nonzero(loaded[1:] & ~loaded[:-1])) + int(
            loaded[0] if loaded.size else 0
        )
        disk_time = self.disk.stream_time_s(edges_loaded, seeks)
        return max(write_time, disk_time)

    def _account_search_pass(
        self,
        layout: CrossbarLayout,
        groups: GroupIndex,
        events: EventLog,
        cols_engaged: int = 1,
        mac_segments: int = 1,
        group_ids: Optional[np.ndarray] = None,
    ) -> float:
        """Charge one CAM-search + MAC pass and return its latency.

        Every selected group costs one CAM search plus
        ``ceil(hits / limit)`` MAC operations; per-crossbar serial time
        is maxed within each batch. ``mac_segments`` repeats each MAC
        operation when a value spans several 16-column crossbar
        segments (feature vectors wider than one array, Section IV's
        collaborative filtering).

        Every group is searched (full-pass kernels) unless a compact
        *sorted* ``group_ids`` array selects some (frontier-driven
        kernels, from :meth:`~repro.core.loader.GroupIndex.groups_of`).
        The compact path touches only the selected groups' crossbars —
        cost O(selected groups), not O(all crossbars) — and charges
        exactly the events and latency a full pass over them would.
        """
        compact = group_ids is not None
        if compact:
            xbar = groups.xbar[group_ids]
            hits = groups.count[group_ids]
        else:
            xbar = groups.xbar
            hits = groups.count
        if xbar.size == 0:
            return 0.0
        limit = self.config.mac_accumulate_limit
        ops, hist = chunk_histogram(hits, limit)
        ops = ops * mac_segments
        hist = hist * mac_segments
        total_hits = int(hits.sum())
        total_ops = int(ops.sum())
        events.cam_searches += int(xbar.size)
        events.mac_ops += total_ops
        events.mac_rows_accumulated += total_hits * mac_segments
        events.mac_cell_ops += total_hits * cols_engaged
        events._grow_hist(hist.size)
        events.mac_rows_hist[: hist.size] += hist
        events.dac_conversions += total_hits * mac_segments
        events.adc_conversions += total_ops * min(
            cols_engaged, self.config.mac_cols
        )
        # Per-crossbar serial time, maxed per batch.
        tech = self.config.tech
        batch_time = np.zeros(layout.num_batches, dtype=np.float64)
        if compact:
            # group_ids ascending => crossbar ids non-decreasing:
            # segment per touched crossbar, scatter maxima into the
            # touched batches only.
            seg_head = np.empty(xbar.size, dtype=bool)
            seg_head[0] = True
            seg_head[1:] = xbar[1:] != xbar[:-1]
            seg_starts = np.flatnonzero(seg_head)
            searches_per_xbar = np.diff(np.append(seg_starts, xbar.size))
            ops_per_xbar = np.add.reduceat(ops, seg_starts).astype(
                np.float64
            )
            touched = xbar[seg_starts]
        else:
            searches_per_xbar = np.bincount(
                xbar, minlength=layout.num_xbars
            )
            ops_per_xbar = np.bincount(
                xbar,
                weights=ops.astype(np.float64),
                minlength=layout.num_xbars,
            )
            touched = np.arange(layout.num_xbars)
        xbar_time = (
            searches_per_xbar * tech.cam_latency_s
            + ops_per_xbar
            * (tech.mac_latency_s + tech.input_stage_latency_s)
        )
        np.maximum.at(
            batch_time, layout.batch_of_xbar(touched), xbar_time
        )
        return float(batch_time.sum())

    def _finalize(
        self,
        events: EventLog,
        load_time: float,
        compute_time: float,
        passes: int,
        batches: int,
    ) -> RunStats:
        stats = RunStats(
            events=events,
            load_time_s=load_time,
            compute_time_s=compute_time,
            passes=passes,
            batches_loaded=batches,
        )
        stats.energy = self.ledger.price(events, stats.total_time_s)
        # Tracing-gated: building the plan costs a few reductions, so
        # the disabled path never reaches the controller.
        if get_tracer().enabled:
            record_plan(build_plan(stats, self.config), engine="gaasx")
            observe_event_counts(events.as_dict())
        return stats

    # ------------------------------------------------------------------
    # Public kernels (implemented in repro.core.algorithms)
    # ------------------------------------------------------------------
    #: Unified dispatch names accepted by :meth:`run`.
    ALGORITHMS = ("pagerank", "bfs", "sssp", "wcc", "cf", "gnn")

    def run(self, algorithm: str, **params: object):
        """Run any kernel by name with uniform dispatch.

        ``algorithm`` is one of :data:`ALGORITHMS` (``"cf"`` is
        collaborative filtering, ``"gnn"`` the GCN forward pass);
        ``params`` pass through to the kernel method unchanged and the
        kernel's usual typed result comes back. Unknown names raise
        :class:`~repro.errors.AlgorithmError` listing the valid ones —
        this is the single entry point the experiment executor and CLI
        drive kernels through.
        """
        methods = {
            "pagerank": self.pagerank,
            "bfs": self.bfs,
            "sssp": self.sssp,
            "wcc": self.wcc,
            "cf": self.collaborative_filtering,
            "gnn": self.gnn_forward,
        }
        try:
            method = methods[algorithm]
        except KeyError:
            raise AlgorithmError(
                f"unknown algorithm {algorithm!r}; valid names: "
                f"{list(self.ALGORITHMS)}"
            ) from None
        with get_tracer().span(
            "engine.run", category="engine",
            engine="gaasx", algorithm=algorithm,
            vertices=self.graph.num_vertices,
            edges=self.graph.num_edges,
        ):
            return method(**params)

    def pagerank(
        self,
        alpha: float = 0.85,
        iterations: int = 10,
        tolerance: Optional[float] = None,
        personalization: Optional[np.ndarray] = None,
        incremental: bool = False,
        epsilon: float = 1e-6,
        warm_ranks: Optional[np.ndarray] = None,
    ) -> PageRankResult:
        """Run PageRank (Section IV, Equation 3); pass a
        ``personalization`` vector for personalized PageRank.

        ``incremental=True`` runs the delta formulation
        (:mod:`repro.core.algorithms.incremental`): one full seeding
        sweep, then passes that only re-process vertices whose rank
        moved by more than ``epsilon``, optionally warm-started from
        ``warm_ranks``. Results are epsilon-equivalent to the full
        kernel. It runs whether or not the reuse layer is enabled;
        ``REPRO_REUSE`` only decides whether its pass accounting is
        memoized. ``personalization`` requires the full kernel.
        """
        if incremental:
            if personalization is not None:
                raise AlgorithmError(
                    "incremental PageRank does not support personalization"
                )
            from .algorithms import incremental as inc

            return inc.pagerank(
                self,
                alpha=alpha,
                iterations=iterations,
                tolerance=tolerance,
                epsilon=epsilon,
                warm_ranks=warm_ranks,
            )
        from .algorithms import pagerank

        return pagerank.run(
            self,
            alpha=alpha,
            iterations=iterations,
            tolerance=tolerance,
            personalization=personalization,
        )

    def bfs(self, source: int) -> TraversalResult:
        """Run breadth-first search (Section IV, Equation 2)."""
        from .algorithms import traversal

        return traversal.run(self, source=source, weighted=False)

    def sssp(self, source: int) -> TraversalResult:
        """Run single-source shortest paths (Section IV, Equation 1)."""
        from .algorithms import traversal

        return traversal.run(self, source=source, weighted=True)

    def wcc(
        self,
        warm_labels: Optional[np.ndarray] = None,
        seed_vertices: Optional[np.ndarray] = None,
    ) -> "ComponentsResult":
        """Weakly connected components via min-label propagation.

        Extension kernel (not in the paper's evaluation); uses the
        ternary CAM's two searchable fields to propagate labels in both
        edge directions without a transposed graph copy.

        ``warm_labels``/``seed_vertices`` warm-start incrementally from
        a previous run (see
        :func:`repro.core.algorithms.incremental.wcc_warm_state`).
        """
        from .algorithms import wcc

        return wcc.run(
            self, warm_labels=warm_labels, seed_vertices=seed_vertices
        )

    def gnn_forward(
        self,
        features: np.ndarray,
        weights: Sequence[np.ndarray],
        activation: str = "relu",
    ) -> "GNNResult":
        """GCN-style forward inference (the paper's future-work workload)."""
        from .algorithms import gnn

        return gnn.run(self, features, weights, activation=activation)

    def collaborative_filtering(
        self,
        num_features: int = 32,
        epochs: int = 1,
        learning_rate: float = 0.002,
        regularization: float = 0.02,
        seed: int = 0,
    ) -> CFResult:
        """Run collaborative filtering (Section IV, Equation 5)."""
        if self.bipartite is None:
            raise AlgorithmError(
                "collaborative filtering requires a BipartiteGraph input"
            )
        from .algorithms import cf

        return cf.run(
            self,
            num_features=num_features,
            epochs=epochs,
            learning_rate=learning_rate,
            regularization=regularization,
            seed=seed,
        )
