"""GraphR engine: dense-mapping event accounting.

Mirrors :class:`repro.core.engine.GaaSXEngine` in structure, but with
GraphR's cost structure. The numerical results are GaaS-X's by
construction: both engines price the one functional execution of
:mod:`repro.core.algorithms.execution` (distances and per-superstep
frontiers, ranks, factors) and compute nothing themselves. GraphR's
costs:

* One-time COO storage into memory ReRAM (charged identically in kind
  to GaaS-X's one-time sparse load, so the comparison isolates the
  *redundant* work).
* Per pass, every processed sub-block is converted sparse -> dense into
  a scratch compute crossbar: ``tile_size`` row writes and
  ``tile_size^2`` value-cell writes per tile — the redundant writes of
  Figure 5.
* PageRank processes a whole dense tile with a single parallel MAC
  (GraphR's strength: "the parallelism ... for PageRank is
  significantly higher", Section V-B), engaging every cell including
  the zero-valued ones — the redundant computations of Figure 5.
* BFS/SSSP follow GraphR's published streaming Bellman-Ford: every
  superstep re-converts and processes *all* non-empty tiles, one *row
  MAC at a time* per tile row — without a CAM there is no hit vector to
  selectively enable word lines (Section V-B: "GraphR can process only
  one row at a time in the graph tile, leading to lower parallelism").
  Each superstep reads ``dist(u)`` once per (tile, src) row of a
  frontier source. Constructor flag ``frontier_tile_skipping=True``
  grants GraphR hypothetical tile-granular frontier skipping for
  ablation studies.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ...config import GraphRConfig
from ...core.algorithms import execution
from ...core.controller import build_plan, record_plan
from ...core.stats import CFResult, PageRankResult, RunStats, TraversalResult
from ...obs.metrics import observe_event_counts
from ...obs.trace import get_tracer
from ...energy.ledger import EnergyLedger
from ...errors import AlgorithmError
from ...events import EventLog
from ...graphs.graph import BipartiteGraph, Graph
from .tiles import TileLayout, build_tile_layout

#: Bits of one COO coordinate pair in memory ReRAM (two 32-bit ids,
#: single-level cells — plain storage, not TCAM).
COORD_BITS_PER_EDGE = 64


class GraphREngine:
    """GraphR accelerator bound to one input graph."""

    def __init__(
        self,
        graph: Graph | BipartiteGraph,
        config: Optional[GraphRConfig] = None,
        frontier_tile_skipping: bool = False,
    ) -> None:
        self.config = config if config is not None else GraphRConfig()
        self.frontier_tile_skipping = frontier_tile_skipping
        self.ledger = EnergyLedger(self.config.tech)
        if isinstance(graph, BipartiteGraph):
            self.bipartite: Optional[BipartiteGraph] = graph
            self.graph = graph.as_unified_graph()
        else:
            self.bipartite = None
            self.graph = graph
        self.layout: TileLayout = build_tile_layout(self.graph, self.config)

    # ------------------------------------------------------------------
    # Accounting helpers
    # ------------------------------------------------------------------
    def _account_storage(self, events: EventLog) -> float:
        """One-time COO store into memory ReRAM (coordinates + weight)."""
        edges = self.layout.num_edges
        if edges == 0:
            return 0.0
        events.cam_cell_writes += edges * COORD_BITS_PER_EDGE
        events.cell_writes += edges * self.config.bit_slices
        events.row_writes += edges
        # Same parallel-write model as GaaS-X's loader: one row per
        # edge, 2048 arrays programming concurrently, batches serial.
        rows_per_xbar = self.config.crossbar_rows
        arrays = self.config.num_crossbars
        batches = -(-edges // (rows_per_xbar * arrays))
        per_batch_rows = min(rows_per_xbar, -(-edges // arrays))
        return (
            batches * per_batch_rows * self.config.tech.write_row_latency_s
        )

    def _account_conversion(
        self, events: EventLog, tiles: np.ndarray
    ) -> float:
        """Sparse->dense conversion of the given tiles into scratch
        compute crossbars; returns the write latency."""
        if tiles.size == 0:
            return 0.0
        t = self.config.tile_size
        events.row_writes += int(tiles.size) * t
        events.cell_writes += int(tiles.size) * t * t * self.config.bit_slices
        # Reading the COO entries out of memory ReRAM for conversion.
        events.buffer_reads += int(self.layout.tile_nnz[tiles].sum())
        xbars = self.layout.xbar_of_tile(tiles)
        rows_per_xbar = np.bincount(xbars) * t
        batches = self.layout.batch_of_xbar(
            np.arange(rows_per_xbar.size)
        )
        batch_rows = np.zeros(int(batches.max()) + 1 if batches.size else 0,
                              dtype=np.int64)
        np.maximum.at(batch_rows, batches, rows_per_xbar)
        return float(batch_rows.sum()) * self.config.tech.write_row_latency_s

    def _account_tile_macs(
        self,
        events: EventLog,
        tiles: np.ndarray,
        macs_per_tile: int,
        rows_per_mac: int,
        cols_engaged: int,
    ) -> float:
        """Charge dense MAC operations on the given tiles."""
        if tiles.size == 0:
            return 0.0
        total_macs = int(tiles.size) * macs_per_tile
        events.mac_ops += total_macs
        events.mac_rows_accumulated += total_macs * rows_per_mac
        events.mac_cell_ops += total_macs * rows_per_mac * cols_engaged
        events._grow_hist(rows_per_mac + 1)
        events.mac_rows_hist[rows_per_mac] += total_macs
        events.dac_conversions += total_macs * rows_per_mac
        events.adc_conversions += total_macs * cols_engaged
        xbars = self.layout.xbar_of_tile(tiles)
        macs_per_xbar = np.bincount(xbars) * macs_per_tile
        xbar_time = macs_per_xbar * (
            self.config.tech.mac_latency_s
            + self.config.tech.input_stage_latency_s
        )
        batches = self.layout.batch_of_xbar(np.arange(xbar_time.size))
        batch_time = np.zeros(int(batches.max()) + 1 if batches.size else 0)
        np.maximum.at(batch_time, batches, xbar_time)
        return float(batch_time.sum())

    def _finalize(
        self,
        events: EventLog,
        load_time: float,
        compute_time: float,
        passes: int,
    ) -> RunStats:
        stats = RunStats(
            events=events,
            load_time_s=load_time,
            compute_time_s=compute_time,
            passes=passes,
            batches_loaded=self.layout.num_batches,
        )
        stats.energy = self.ledger.price(events, stats.total_time_s)
        # GraphRConfig duck-types ArchConfig for build_plan (it carries
        # the same TechnologyParams); gated exactly like GaaSXEngine.
        if get_tracer().enabled:
            record_plan(build_plan(stats, self.config), engine="graphr")
            observe_event_counts(events.as_dict())
        return stats

    # ------------------------------------------------------------------
    # Kernels: each prices the shared functional execution
    # ------------------------------------------------------------------
    def _span(self, algorithm: str):
        return get_tracer().span(
            "engine.run", category="engine",
            engine="graphr", algorithm=algorithm,
        )

    def pagerank(
        self,
        alpha: float = 0.85,
        iterations: int = 10,
        tolerance: Optional[float] = None,
    ) -> PageRankResult:
        """PageRank with GraphR's full-tile parallel MAC per sub-block."""
        with self._span("pagerank"):
            n = self.graph.num_vertices
            trace = execution.pagerank(
                self.graph, alpha, iterations, tolerance
            )
            executed = trace.iterations
            events = EventLog()
            load_time = self._account_storage(events)

            all_tiles = np.arange(self.layout.num_tiles)
            t = self.config.tile_size
            pass_events = EventLog()
            pass_time = self._account_conversion(pass_events, all_tiles)
            pass_time += self._account_tile_macs(
                pass_events, all_tiles, macs_per_tile=1,
                rows_per_mac=t, cols_engaged=t,
            )
            # Per tile: t partial-sum accumulations; per vertex: damping.
            pass_events.sfu_ops += self.layout.num_tiles * t + 2 * n
            pass_events.buffer_reads += self.layout.num_tiles * t  # ranks
            pass_events.buffer_writes += n
            events.merge(pass_events.scaled(executed))
            compute_time = pass_time * executed

            stats = self._finalize(events, load_time, compute_time, executed)
            return PageRankResult(
                ranks=trace.ranks.copy(), iterations=executed, stats=stats
            )

    def _traversal(self, source: int, weighted: bool) -> TraversalResult:
        with self._span("sssp" if weighted else "bfs"):
            trace = execution.traversal(self.graph, source, weighted)
            t = self.config.tile_size
            events = EventLog()
            load_time = self._account_storage(events)
            compute_time = 0.0
            touched = np.arange(self.layout.num_tiles)
            for frontier in trace.frontiers:
                if self.frontier_tile_skipping:
                    groups = self.layout.groups_by_src()
                    touched = np.unique(
                        groups.tile_pos[np.isin(groups.vertex, frontier)]
                    )
                # Re-convert every processed tile this superstep (scratch
                # compute arrays), then stream its rows one MAC at a time.
                compute_time += self._account_conversion(events, touched)
                compute_time += self._account_tile_macs(
                    events, touched, macs_per_tile=t,
                    rows_per_mac=1, cols_engaged=t,
                )
                # SFU: one min-compare per produced candidate (t per row
                # MAC, valid or not — dense output has no validity bits).
                events.sfu_ops += int(touched.size) * t * t
                # One dist(u) read per (tile, src) row of the frontier.
                events.buffer_reads += int(
                    self.layout.groups_per_src()[frontier].sum()
                )
            # One min-select and writeback per improved destination.
            improved = int(trace.frontier_sizes[1:].sum())
            events.sfu_ops += improved
            events.buffer_writes += improved

            stats = self._finalize(
                events, load_time, compute_time, trace.supersteps
            )
            return TraversalResult(
                distances=trace.values.copy(),
                source=source,
                supersteps=trace.supersteps,
                stats=stats,
            )

    def bfs(self, source: int) -> TraversalResult:
        """Breadth-first search (unit weights)."""
        return self._traversal(source, weighted=False)

    def sssp(self, source: int) -> TraversalResult:
        """Single-source shortest paths."""
        return self._traversal(source, weighted=True)

    def collaborative_filtering(
        self,
        num_features: int = 32,
        epochs: int = 1,
        learning_rate: float = 0.002,
        regularization: float = 0.02,
        seed: int = 0,
    ) -> CFResult:
        """Collaborative filtering over dense-mapped rating tiles.

        Each epoch re-converts every non-empty rating tile and runs the
        two phases with dense row MACs: per tile and phase, one error
        MAC sweep and one accumulation sweep over all ``tile_size``
        rows, every feature column engaged.
        """
        bi = self.bipartite
        if bi is None:
            raise AlgorithmError("collaborative filtering needs a bipartite graph")
        with self._span("cf"):
            trace = execution.cf(
                bi, num_features, epochs, learning_rate, regularization, seed
            )
            ratings = bi.num_ratings
            vertices = bi.num_users + bi.num_items
            events = EventLog()
            load_time = self._account_storage(events)
            segments = -(-num_features // 16)
            events.row_writes += vertices * segments
            events.cell_writes += (
                vertices * num_features * self.config.bit_slices
            )
            load_time += (
                vertices * segments
                / self.config.num_crossbars
                * self.config.tech.write_row_latency_s
            )

            all_tiles = np.arange(self.layout.num_tiles)
            t = self.config.tile_size
            pass_events = EventLog()
            pass_time = self._account_conversion(pass_events, all_tiles)
            # Two phases x (error sweep + accumulate sweep), dense rows.
            for _sweep in range(4):
                pass_time += self._account_tile_macs(
                    pass_events, all_tiles,
                    macs_per_tile=t * segments,
                    rows_per_mac=1, cols_engaged=num_features,
                )
            pass_events.sfu_ops += 2 * ratings
            pass_events.sfu_ops += 3 * num_features * vertices
            pass_events.buffer_reads += 2 * ratings * segments
            pass_events.buffer_writes += vertices * segments
            events.merge(pass_events.scaled(epochs))
            compute_time = pass_time * epochs

            stats = self._finalize(events, load_time, compute_time, epochs)
            return CFResult(
                user_features=trace.user_features.copy(),
                item_features=trace.item_features.copy(),
                epochs=epochs,
                stats=stats,
            )
