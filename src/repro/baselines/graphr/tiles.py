"""Dense-tile decomposition of the adjacency matrix for GraphR.

GraphR cuts the adjacency matrix into ``tile_size x tile_size``
sub-blocks, skips the all-zero ones, and converts each non-empty block
from the stored COO into a dense matrix inside a compute crossbar
(Figure 4a/b of the GaaS-X paper). This module materializes the
non-empty tile index with the groupings its engine needs, fully
vectorized.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from ...config import GraphRConfig
from ...graphs.graph import Graph


@dataclass
class TileGroupIndex:
    """Edges grouped by (tile, source vertex) — one row of one tile."""

    tile_pos: np.ndarray  # index into the layout's tile arrays, per group
    vertex: np.ndarray  # source vertex per group
    count: np.ndarray  # edges per group

    @property
    def num_groups(self) -> int:
        """Number of (tile, src) groups."""
        return int(self.tile_pos.size)


@dataclass
class TileLayout:
    """The non-empty tiles of a graph under GraphR's dense mapping.

    Edge arrays are sorted by (tile, dst, src); tile ``t``'s edges are
    ``[tile_offsets[t], tile_offsets[t+1])``. Tiles are assigned to
    crossbars in index order (``tiles_per_crossbar`` each) and crossbars
    to batches of ``num_crossbars``.
    """

    config: GraphRConfig
    num_vertices: int
    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray
    tile_row: np.ndarray  # per non-empty tile
    tile_col: np.ndarray
    tile_nnz: np.ndarray
    tile_offsets: np.ndarray
    _groups: Dict[str, TileGroupIndex] = field(default_factory=dict)
    _groups_per_src: Optional[np.ndarray] = None

    @property
    def num_tiles(self) -> int:
        """Non-empty tiles."""
        return int(self.tile_row.size)

    @property
    def num_edges(self) -> int:
        """Edges (graph edge count)."""
        return int(self.src.size)

    @property
    def dense_cells_per_tile(self) -> int:
        """Values materialized per dense tile."""
        return self.config.tile_size * self.config.tile_size

    def xbar_of_tile(self, tiles: np.ndarray) -> np.ndarray:
        """Compute-crossbar id holding each tile (by load order)."""
        return tiles // self.config.tiles_per_crossbar

    def batch_of_xbar(self, xbars: np.ndarray) -> np.ndarray:
        """Batch index of each crossbar id."""
        return xbars // self.config.num_crossbars

    @property
    def num_batches(self) -> int:
        """Sequential batch loads for one full pass over all tiles."""
        if self.num_tiles == 0:
            return 0
        return -(-self.num_tiles // self.config.tiles_per_batch)

    # ------------------------------------------------------------------
    def groups_per_src(self) -> np.ndarray:
        """``bincount(groups_by_src().vertex)`` without the sort (cached):
        ``tile * tile_size + src % tile_size`` numbers the (tile, src)
        pairs densely, so one marking pass dedupes them."""
        if self._groups_per_src is None:
            t = self.config.tile_size
            rows = np.zeros(self.num_tiles * t, dtype=bool)
            rows[
                np.repeat(np.arange(self.num_tiles) * t, self.tile_nnz)
                + self.src % t
            ] = True
            row_ids = np.flatnonzero(rows)
            vertex = self.tile_row[row_ids // t] * t + row_ids % t
            self._groups_per_src = np.bincount(
                vertex, minlength=self.num_vertices
            )
        return self._groups_per_src

    def groups_by_src(self) -> TileGroupIndex:
        """Group edges by (tile, src): the rows GraphR's traversal
        kernels process one MAC at a time (cached)."""
        if "src" not in self._groups:
            tile_of_edge = np.repeat(np.arange(self.num_tiles), self.tile_nnz)
            perm = np.lexsort((self.src, tile_of_edge))
            tile, src = tile_of_edge[perm], self.src[perm]
            head = np.ones(src.size, dtype=bool)
            head[1:] = (tile[1:] != tile[:-1]) | (src[1:] != src[:-1])
            starts = np.flatnonzero(head)
            self._groups["src"] = TileGroupIndex(
                tile_pos=tile[starts],
                vertex=src[starts],
                count=np.diff(np.append(starts, src.size)),
            )
        return self._groups["src"]


def build_tile_layout(graph: Graph, config: GraphRConfig) -> TileLayout:
    """Decompose ``graph`` into GraphR's non-empty dense tiles."""
    t = config.tile_size
    n = graph.num_vertices
    k = -(-n // t) if n else 0
    edges = graph.edges
    tile_ids = (edges.rows // t) * k + (edges.cols // t)
    perm = np.lexsort((edges.rows, edges.cols, tile_ids))
    src = edges.rows[perm]
    dst = edges.cols[perm]
    weight = edges.data[perm]
    sorted_tiles = tile_ids[perm]
    unique_tiles, starts = np.unique(sorted_tiles, return_index=True)
    offsets = np.append(starts, sorted_tiles.size)
    return TileLayout(
        config=config,
        num_vertices=n,
        src=src,
        dst=dst,
        weight=weight,
        tile_row=unique_tiles // k if k else unique_tiles,
        tile_col=unique_tiles % k if k else unique_tiles,
        tile_nnz=np.diff(offsets),
        tile_offsets=offsets,
    )
