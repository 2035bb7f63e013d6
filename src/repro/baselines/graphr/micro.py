"""Array-level GraphR micro engine: ground truth for the baseline.

Mirrors :class:`repro.core.micro.MicroGaaSX` for the GraphR side: each
non-empty dense tile is materialized inside a real
:class:`~repro.xbar.mac_array.MacCrossbar` (sparse-to-dense conversion
with genuine programming events), PageRank runs one full-tile MAC per
tile, and BFS/SSSP stream each tile's rows one MAC at a time — the
exact cost structure :class:`GraphREngine` accounts vectorized. The
test suite asserts the two produce identical event logs and identical
results on small graphs.

The tiles count their array events on one per-run counter board
(:class:`~repro.obs.hw.HwMonitor`); a run's :class:`EventLog` is the
board's column sums plus the run's own storage, SFU and buffer
counts.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ...config import GraphRConfig
from ...errors import AlgorithmError
from ...events import EventLog
from ...graphs.graph import Graph
from ...obs.hw import HwMonitor
from ...xbar.mac_array import MacCrossbar
from .engine import COORD_BITS_PER_EDGE
from .tiles import TileLayout, build_tile_layout


class _DenseTile:
    """One converted tile, ready for full-row or row-serial MACs."""

    def __init__(
        self,
        layout: TileLayout,
        position: int,
        board: HwMonitor,
    ) -> None:
        config = layout.config
        t = config.tile_size
        self.t = t
        self.row_base = int(layout.tile_row[position]) * t
        self.col_base = int(layout.tile_col[position]) * t
        lo, hi = layout.tile_offsets[position], layout.tile_offsets[position + 1]
        self.src = layout.src[lo:hi]
        self.dst = layout.dst[lo:hi]
        self.weight = layout.weight[lo:hi]
        self.mac = MacCrossbar(
            rows=t, cols=t, accumulate_limit=t, hw=board,
            cell_bits=config.cell_bits,
        )

    def convert(self, values: np.ndarray, events: EventLog) -> None:
        """Sparse-to-dense conversion: program every tile cell.

        ``values`` holds the per-edge value to densify (edge weight for
        SSSP, 1/out-degree for PageRank). Every cell of the tile is
        written — including the zeros — matching the engine's
        ``tile_size`` row writes and ``tile_size^2`` cell writes.
        """
        dense = np.zeros((self.t, self.t))
        dense[self.src - self.row_base, self.dst - self.col_base] = values
        self.mac.write_rows(np.arange(self.t), dense)
        events.buffer_reads += int(self.src.size)  # COO reads


class MicroGraphR:
    """Slow, honest GraphR built from the array-level components."""

    def __init__(
        self, graph: Graph, config: Optional[GraphRConfig] = None
    ) -> None:
        self.config = config if config is not None else GraphRConfig()
        self.graph = graph
        self.layout = build_tile_layout(graph, self.config)

    def _account_storage(self, events: EventLog) -> None:
        edges = self.layout.num_edges
        events.cam_cell_writes += edges * COORD_BITS_PER_EDGE
        events.cell_writes += edges * self.config.bit_slices
        events.row_writes += edges

    def _build_tiles(self, board: HwMonitor) -> List[_DenseTile]:
        return [
            _DenseTile(self.layout, pos, board)
            for pos in range(self.layout.num_tiles)
        ]

    # ------------------------------------------------------------------
    def pagerank(
        self, alpha: float = 0.85, iterations: int = 10
    ) -> Tuple[np.ndarray, EventLog]:
        """Full-tile-parallel PageRank (Figure 4b)."""
        n = self.graph.num_vertices
        events = EventLog()
        self._account_storage(events)
        out_deg = self.graph.out_degrees().astype(np.float64)
        inv = np.divide(1.0, out_deg, out=np.zeros(n), where=out_deg > 0)
        board = HwMonitor()
        tiles = self._build_tiles(board)
        t = self.config.tile_size
        ranks = np.ones(n)
        for _ in range(iterations):
            contrib = np.zeros(n)
            for tile in tiles:
                # Re-conversion every iteration (scratch compute arrays).
                tile.convert(inv[tile.src], events)
                inputs = ranks[tile.row_base : tile.row_base + t]
                padded = np.zeros(t)
                padded[: inputs.size] = inputs
                events.buffer_reads += t  # rank inputs
                summed = tile.mac.mac(padded)  # whole dense tile at once
                cols = min(n - tile.col_base, t)
                contrib[tile.col_base : tile.col_base + cols] += summed[:cols]
                events.sfu_ops += t  # per-column partial accumulate
            ranks = (1.0 - alpha) + alpha * contrib
            events.sfu_ops += 2 * n
            events.buffer_writes += n
        return ranks, events.merge(board.events())

    # ------------------------------------------------------------------
    def _traversal(
        self, source: int, weighted: bool
    ) -> Tuple[np.ndarray, EventLog]:
        n = self.graph.num_vertices
        if not 0 <= source < n:
            raise AlgorithmError(f"source {source} out of range [0, {n})")
        events = EventLog()
        self._account_storage(events)
        board = HwMonitor()
        tiles = self._build_tiles(board)
        t = self.config.tile_size
        dist = np.full(n, np.inf)
        dist[source] = 0.0
        active = np.zeros(n, dtype=bool)
        active[source] = True
        groups = self.layout.groups_by_src()
        while active.any():
            new_dist = dist.copy()
            for tile in tiles:
                values = tile.weight if weighted else np.ones(tile.src.size)
                tile.convert(values, events)
                # Row-serial streaming: one MAC per tile row, active or
                # not — without a CAM, GraphR cannot skip word lines.
                for local_row in range(t):
                    one_hot = np.zeros(t)
                    one_hot[local_row] = 1.0
                    row_mask = np.zeros(t, dtype=bool)
                    row_mask[local_row] = True
                    row_values = tile.mac.mac(one_hot, row_mask=row_mask)
                    events.sfu_ops += t  # min-compare per dense output
                    u = tile.row_base + local_row
                    if u >= n or not active[u]:
                        continue
                    hits = tile.src == u
                    if not hits.any():
                        continue
                    # Valid columns only: zero cells are non-edges the
                    # dense mapping must not relax through.
                    cols = tile.dst[hits] - tile.col_base
                    # BFS tiles were converted with all-ones values, so
                    # the same expression yields dist(u) + 1 there.
                    candidates = row_values[cols] + dist[u]
                    np.minimum.at(new_dist, tile.dst[hits], candidates)
            improved = new_dist < dist
            events.buffer_reads += int(active[groups.vertex].sum())
            events.sfu_ops += int(improved.sum())
            events.buffer_writes += int(improved.sum())
            dist = new_dist
            active = improved
        return dist, events.merge(board.events())

    def bfs(self, source: int) -> Tuple[np.ndarray, EventLog]:
        """Breadth-first search."""
        return self._traversal(source, weighted=False)

    def sssp(self, source: int) -> Tuple[np.ndarray, EventLog]:
        """Single-source shortest paths."""
        return self._traversal(source, weighted=True)
