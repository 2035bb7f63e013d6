"""Data-loading phase: packing sub-shards into crossbar pairs.

Section III-B: the central controller streams sub-shards from disk in
row-major or column-major interval order and fills CAM/MAC crossbar
pairs — 128 edges per pair, (src, dst) into the CAM, the edge attribute
into the MAC row. A crossbar holds edges of exactly one shard (the
controller tracks the vertex range loaded into each crossbar, which is
what lets it route searches), so shard boundaries force a new crossbar.
``num_crossbars`` pairs form one *batch*; batches are streamed
sequentially.

:class:`CrossbarLayout` materializes that assignment for a whole pass
over the graph as flat numpy arrays (edge order, per-edge crossbar id),
plus the grouping indexes the engine's event accounting needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from ..config import ArchConfig
from ..errors import ConfigError
from ..graphs.partition import ShardGrid


@dataclass
class GroupIndex:
    """Edges grouped by (crossbar, key-field vertex).

    A *group* is the unit of one CAM search: all edges in one crossbar
    whose searched field (src or dst) equals one vertex. Arrays are
    parallel, one entry per group, ordered by (crossbar, vertex).

    ``edge_perm``/``group_offsets`` recover the member edges: group
    ``g``'s edges are ``edge_perm[group_offsets[g]:group_offsets[g+1]]``
    (indices into the layout's edge arrays).
    """

    xbar: np.ndarray  # crossbar id per group
    vertex: np.ndarray  # searched vertex id per group
    count: np.ndarray  # edges (CAM hits) per group
    edge_perm: np.ndarray
    group_offsets: np.ndarray
    #: lazily built vertex -> groups CSR: (offsets, group-id permutation)
    _vertex_index: Optional[Tuple[np.ndarray, np.ndarray]] = None
    #: lazily built vertex -> member-edges CSR: (offsets, edge ids)
    _edge_index: Optional[Tuple[np.ndarray, np.ndarray]] = None

    @property
    def num_groups(self) -> int:
        """Number of (crossbar, vertex) groups."""
        return int(self.xbar.size)

    def vertex_index(self, num_vertices: int) -> Tuple[np.ndarray, np.ndarray]:
        """CSR index from vertex id to the groups searching it (cached).

        Returns ``(offsets, perm)`` with ``offsets`` of length
        ``num_vertices + 1``: the groups whose searched vertex is ``v``
        are ``perm[offsets[v]:offsets[v + 1]]``. This is what lets a
        frontier-driven kernel select its active groups in
        O(frontier + groups selected) instead of masking every group.
        """
        index = self._vertex_index
        if index is None or index[0].size != num_vertices + 1:
            perm = np.argsort(self.vertex, kind="stable")
            offsets = np.zeros(num_vertices + 1, dtype=np.int64)
            counts = np.bincount(self.vertex, minlength=num_vertices)
            np.cumsum(counts, out=offsets[1:])
            index = (offsets, perm)
            self._vertex_index = index
        return index

    def groups_of(self, vertices: np.ndarray, num_vertices: int) -> np.ndarray:
        """Group ids searching any of ``vertices``, in ascending order.

        ``vertices`` must be unique in-range vertex ids (a frontier).
        The result is sorted, so crossbar ids are non-decreasing along
        it (groups are ordered by (crossbar, vertex)).
        """
        from .engine import gather_ranges

        offsets, perm = self.vertex_index(num_vertices)
        starts = offsets[vertices]
        counts = offsets[vertices + 1] - starts
        selected = perm[gather_ranges(starts, counts)]
        selected.sort()
        return selected

    def edge_index(self, num_vertices: int) -> Tuple[np.ndarray, np.ndarray]:
        """CSR index from vertex id straight to its member edges (cached).

        Returns ``(offsets, edges)`` with ``offsets`` of length
        ``num_vertices + 1``: the layout-edge ids whose searched field
        equals ``v`` are ``edges[offsets[v]:offsets[v + 1]]``. This
        collapses the two-hop vertex -> groups -> edges walk into one
        gather for the frontier-driven functional kernels, which do not
        care about crossbar boundaries (accounting, which does, uses
        :meth:`vertex_index`).
        """
        from .engine import gather_ranges

        index = self._edge_index
        if index is None or index[0].size != num_vertices + 1:
            _, vperm = self.vertex_index(num_vertices)
            edges = self.edge_perm[
                gather_ranges(self.group_offsets[vperm], self.count[vperm])
            ]
            counts = np.bincount(
                self.vertex, weights=self.count, minlength=num_vertices
            ).astype(np.int64)
            offsets = np.zeros(num_vertices + 1, dtype=np.int64)
            np.cumsum(counts, out=offsets[1:])
            index = (offsets, edges)
            self._edge_index = index
        return index


@dataclass
class CrossbarLayout:
    """One pass's assignment of edges to crossbars.

    Edge arrays are ordered shard-by-shard (in the requested interval
    order) and, within a shard, by (dst, src) — the paper's sub-shard
    sort. ``xbar_of_edge[e]`` is the crossbar pair holding edge ``e``;
    crossbar ids increase with load order, and crossbar ``x`` belongs to
    batch ``x // config.num_crossbars``.
    """

    config: ArchConfig
    order: str
    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray
    xbar_of_edge: np.ndarray
    num_xbars: int
    _groups: Dict[str, GroupIndex] = field(default_factory=dict)

    @property
    def num_edges(self) -> int:
        """Edges in the pass (the whole graph)."""
        return int(self.src.size)

    @property
    def num_batches(self) -> int:
        """Sequential batch loads needed for one full pass."""
        if self.num_xbars == 0:
            return 0
        return -(-self.num_xbars // self.config.num_crossbars)

    @property
    def resident(self) -> bool:
        """True when the whole graph fits in one batch.

        A resident graph is loaded once and stays in the crossbars for
        every subsequent iteration/superstep — the case where GaaS-X's
        sparse mapping eliminates all re-write traffic.
        """
        return self.num_batches <= 1

    def batch_of_xbar(self, xbar: np.ndarray) -> np.ndarray:
        """Batch index of each crossbar id."""
        return xbar // self.config.num_crossbars

    def rows_per_xbar(self) -> np.ndarray:
        """Occupied rows in each crossbar (<= cam_rows)."""
        return np.bincount(self.xbar_of_edge, minlength=self.num_xbars)

    # ------------------------------------------------------------------
    def groups_by(self, fieldname: str) -> GroupIndex:
        """Group edges by (crossbar, src) or (crossbar, dst); cached.

        These groups are the CAM searches of one full pass: destination
        grouping drives PageRank-style gather, source grouping drives
        BFS/SSSP-style scatter.
        """
        if fieldname not in ("src", "dst"):
            raise ConfigError(f"unknown group field {fieldname!r}")
        if fieldname in self._groups:
            return self._groups[fieldname]
        keys = self.src if fieldname == "src" else self.dst
        span = int(keys.max()) + 1 if keys.size else 1
        if self.num_xbars * span < 2**63:  # Python ints: no overflow.
            # One stable sort of the composite (crossbar, key) rank:
            # the lexsort's permutation, several times faster.
            perm = np.argsort(
                self.xbar_of_edge * np.int64(span) + keys, kind="stable"
            )
        else:
            perm = np.lexsort((keys, self.xbar_of_edge))
        sorted_xbar = self.xbar_of_edge[perm]
        sorted_keys = keys[perm]
        if sorted_keys.size == 0:
            index = GroupIndex(
                xbar=np.empty(0, dtype=np.int64),
                vertex=np.empty(0, dtype=np.int64),
                count=np.empty(0, dtype=np.int64),
                edge_perm=perm,
                group_offsets=np.zeros(1, dtype=np.int64),
            )
            self._groups[fieldname] = index
            return index
        boundary = np.empty(sorted_keys.size, dtype=bool)
        boundary[0] = True
        boundary[1:] = (sorted_xbar[1:] != sorted_xbar[:-1]) | (
            sorted_keys[1:] != sorted_keys[:-1]
        )
        starts = np.flatnonzero(boundary)
        offsets = np.append(starts, sorted_keys.size)
        index = GroupIndex(
            xbar=sorted_xbar[starts],
            vertex=sorted_keys[starts],
            count=np.diff(offsets),
            edge_perm=perm,
            group_offsets=offsets,
        )
        self._groups[fieldname] = index
        return index


def build_layout(
    grid: ShardGrid, order: str, config: ArchConfig
) -> CrossbarLayout:
    """Assign every edge of ``grid`` to a crossbar for one pass.

    ``order`` is ``"row"`` (source-interval major — BFS/SSSP) or
    ``"col"`` (destination-interval major — PageRank), matching the
    paper's algorithm-dependent shard streaming direction.

    Cheap enough that layouts are never stored: the row layout is the
    grid's own edge order and shares its arrays; the col layout is one
    gather of the grid's shard slices in col order.
    """
    from .engine import gather_ranges

    positions = grid.shard_positions(order)
    sizes = grid.shard_edge_counts()[positions]
    if order == "row":
        src, dst, weight = grid.src, grid.dst, grid.weight
    else:
        edges = gather_ranges(grid._starts[positions], sizes)
        src, dst, weight = grid.src[edges], grid.dst[edges], grid.weight[edges]
    # Every crossbar is full except each shard's last (grid shards are
    # never empty), so crossbar ids expand from per-crossbar row counts.
    rows = config.cam_rows
    xbars_per_shard = -(-sizes // rows)
    num_xbars = int(xbars_per_shard.sum())
    rows_per_xbar = np.full(num_xbars, rows, dtype=np.int64)
    rows_per_xbar[np.cumsum(xbars_per_shard) - 1] = (
        sizes - (xbars_per_shard - 1) * rows
    )
    return CrossbarLayout(
        config=config,
        order=order,
        src=src,
        dst=dst,
        weight=weight,
        xbar_of_edge=np.repeat(
            np.arange(num_xbars, dtype=np.int64), rows_per_xbar
        ),
        num_xbars=num_xbars,
    )
