"""Interval partitioning of a graph into sub-shards.

Section II-B of the paper: the vertex set is split into disjoint
intervals of a fixed size; the edges whose source lies in interval *i*
and destination in interval *j* form sub-shard *(i, j)*, stored
contiguously (Figure 2). GaaS-X adopts this storage model from
GridGraph/GraphChi/NXGraph, assumes edges within a sub-shard are sorted
by destination vertex, and streams shards in row-major (increasing
source interval) or column-major (increasing destination interval)
order depending on the algorithm.

The implementation keeps every edge of the graph in three sorted arrays
and exposes shards as zero-copy views, so partitioning a multi-million
edge graph stays cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

import numpy as np

from ..errors import PartitionError
from .graph import Graph


@dataclass(frozen=True)
class IntervalPartition:
    """A division of ``0 .. num_vertices-1`` into fixed-size intervals."""

    num_vertices: int
    interval_size: int

    def __post_init__(self) -> None:
        if self.num_vertices <= 0:
            raise PartitionError("num_vertices must be positive")
        if self.interval_size <= 0:
            raise PartitionError("interval_size must be positive")

    @property
    def num_intervals(self) -> int:
        """Number of intervals (last one may be short)."""
        return -(-self.num_vertices // self.interval_size)

    def interval_of(self, vertex: int | np.ndarray) -> int | np.ndarray:
        """Interval index containing ``vertex`` (vectorized)."""
        return vertex // self.interval_size

    def bounds(self, interval: int) -> Tuple[int, int]:
        """Half-open vertex range ``[lo, hi)`` of ``interval``."""
        if not 0 <= interval < self.num_intervals:
            raise PartitionError(
                f"interval {interval} out of range [0, {self.num_intervals})"
            )
        lo = interval * self.interval_size
        hi = min(lo + self.interval_size, self.num_vertices)
        return lo, hi


@dataclass(frozen=True)
class Shard:
    """Edges of one (source interval, destination interval) cell.

    ``src``/``dst``/``weight`` are views into the grid's sorted arrays,
    ordered by destination vertex (then source) as the paper assumes.
    """

    src_interval: int
    dst_interval: int
    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray

    @property
    def num_edges(self) -> int:
        """Edges in this shard."""
        return int(self.src.size)

    def __repr__(self) -> str:
        return (
            f"Shard(({self.src_interval}, {self.dst_interval}), "
            f"edges={self.num_edges})"
        )


class ShardGrid:
    """All non-empty sub-shards of a graph under an interval partition."""

    def __init__(self, graph: Graph, partition: IntervalPartition) -> None:
        if partition.num_vertices != graph.num_vertices:
            raise PartitionError(
                "partition covers a different vertex count than the graph"
            )
        self.graph = graph
        self.partition = partition
        k = partition.num_intervals
        edges = graph.edges
        si = edges.rows // partition.interval_size
        dj = edges.cols // partition.interval_size
        keys = si * k + dj
        # Row-major shard order; inside a shard sort by (dst, src).
        perm = np.lexsort((edges.rows, edges.cols, keys))
        self.src = edges.rows[perm]
        self.dst = edges.cols[perm]
        self.weight = edges.data[perm]
        sorted_keys = keys[perm]
        unique_keys, starts = np.unique(sorted_keys, return_index=True)
        self._keys = unique_keys
        self._starts = np.append(starts, sorted_keys.size)

    @classmethod
    def from_sorted_arrays(
        cls,
        graph: Graph,
        interval_size: int,
        src: np.ndarray,
        dst: np.ndarray,
        weight: np.ndarray,
        keys: np.ndarray,
        starts: np.ndarray,
    ) -> "ShardGrid":
        """Rehydrate a grid from previously sorted arrays.

        Used by the layout cache to skip the lexsort when an identical
        (graph content, interval size) grid was already materialized —
        the arrays must come from a grid built over an equal graph.
        """
        grid = cls.__new__(cls)
        grid.graph = graph
        grid.partition = IntervalPartition(graph.num_vertices, interval_size)
        grid.src = np.asarray(src, dtype=np.int64)
        grid.dst = np.asarray(dst, dtype=np.int64)
        grid.weight = np.asarray(weight, dtype=np.float64)
        grid._keys = np.asarray(keys, dtype=np.int64)
        grid._starts = np.asarray(starts, dtype=np.int64)
        if grid.src.size != graph.num_edges:
            raise PartitionError(
                "cached shard arrays do not cover the graph's edge set"
            )
        return grid

    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        """Number of non-empty shards."""
        return int(self._keys.size)

    @property
    def num_edges(self) -> int:
        """Total edges (equals the graph's edge count)."""
        return int(self.src.size)

    def _shard_at(self, pos: int) -> Shard:
        key = int(self._keys[pos])
        k = self.partition.num_intervals
        lo, hi = int(self._starts[pos]), int(self._starts[pos + 1])
        return Shard(
            src_interval=key // k,
            dst_interval=key % k,
            src=self.src[lo:hi],
            dst=self.dst[lo:hi],
            weight=self.weight[lo:hi],
        )

    def shard(self, src_interval: int, dst_interval: int) -> Optional[Shard]:
        """Return shard ``(src_interval, dst_interval)`` or None if empty."""
        k = self.partition.num_intervals
        if not (0 <= src_interval < k and 0 <= dst_interval < k):
            raise PartitionError("shard coordinates out of range")
        key = src_interval * k + dst_interval
        pos = int(np.searchsorted(self._keys, key))
        if pos >= self._keys.size or self._keys[pos] != key:
            return None
        return self._shard_at(pos)

    def shard_positions(self, order: str = "row") -> np.ndarray:
        """Positions of the non-empty shards in streaming ``order``.

        ``order="row"`` walks increasing source interval (then
        destination), the layout suited to source-driven algorithms;
        ``order="col"`` walks increasing destination interval, suited to
        destination-driven ones (PageRank). Positions index the
        row-major shard arrays (:meth:`shard_edge_counts`).
        """
        if order == "row":
            return np.arange(self.num_shards, dtype=np.int64)
        if order == "col":
            k = self.partition.num_intervals
            return np.lexsort((self._keys // k, self._keys % k))
        raise PartitionError(f"unknown shard order: {order!r}")

    def iter_shards(self, order: str = "row") -> Iterator[Shard]:
        """Iterate non-empty shards in streaming ``order``
        (see :meth:`shard_positions`)."""
        for pos in self.shard_positions(order):
            yield self._shard_at(int(pos))

    def shard_edge_counts(self) -> np.ndarray:
        """Edges per non-empty shard, in row-major order."""
        return np.diff(self._starts)

    def __repr__(self) -> str:
        return (
            f"ShardGrid(intervals={self.partition.num_intervals}, "
            f"nonempty_shards={self.num_shards}, edges={self.num_edges})"
        )


def partition_graph(graph: Graph, interval_size: int) -> ShardGrid:
    """Partition ``graph`` into sub-shards with the given interval size."""
    part = IntervalPartition(graph.num_vertices, interval_size)
    return ShardGrid(graph, part)


def mutate_grid(
    old_grid: ShardGrid,
    new_graph: Graph,
    inserts=None,
    deletes=None,
) -> ShardGrid:
    """Derive ``new_graph``'s shard grid from an already-sorted old one.

    ``new_graph`` must be ``old_grid.graph.with_edges(inserts, deletes)``
    (same batches). Instead of re-lexsorting all E edges, the deleted
    and upserted pairs are masked out of the old grid's sorted arrays
    and the insert batch — typically tiny — is merge-inserted at its
    sorted positions, so the cost is O(E + k log k) for a k-edge batch.
    The sort rank of an edge is the composite integer
    ``(shard_key * n + dst) * n + src``, exactly the lexsort order
    :class:`ShardGrid` establishes; when that rank cannot fit an int64
    (enormous vertex counts) we fall back to a full rebuild.
    """
    from .graph import normalize_mutation

    interval_size = old_grid.partition.interval_size
    n = new_graph.num_vertices
    if old_grid.graph.num_vertices != n:
        raise PartitionError(
            "mutate_grid requires an unchanged vertex count"
        )
    k = old_grid.partition.num_intervals
    if k * k * n * n >= 2**63:  # Python ints: no silent overflow.
        return partition_graph(new_graph, interval_size)

    ins = normalize_mutation(inserts, n)
    dels = normalize_mutation(deletes, n)
    ins_pair = ins[:, 0].astype(np.int64) * n + ins[:, 1].astype(np.int64)
    if ins_pair.size:
        # Last-wins pair dedupe, matching COO "last" semantics: a
        # stable sort keeps original order within equal keys, so the
        # final element of each run is the batch's last occurrence.
        order = np.argsort(ins_pair, kind="stable")
        run_last = np.ones(order.size, dtype=bool)
        sorted_pair = ins_pair[order]
        run_last[:-1] = sorted_pair[1:] != sorted_pair[:-1]
        ins = ins[order[run_last]]
        ins_pair = sorted_pair[run_last]
    remove = np.concatenate(
        [dels[:, 0].astype(np.int64) * n + dels[:, 1].astype(np.int64),
         ins_pair]
    )
    old_pair = old_grid.src * np.int64(n) + old_grid.dst
    keep = (
        ~np.isin(old_pair, remove)
        if remove.size
        else np.ones(old_pair.size, dtype=bool)
    )
    kept_src = old_grid.src[keep]
    kept_dst = old_grid.dst[keep]
    kept_w = old_grid.weight[keep]
    kept_key = (kept_src // interval_size) * k + kept_dst // interval_size
    kept_rank = (kept_key * n + kept_dst) * n + kept_src

    if ins.shape[0]:
        ins_src = ins[:, 0].astype(np.int64)
        ins_dst = ins[:, 1].astype(np.int64)
        ins_key = (ins_src // interval_size) * k + ins_dst // interval_size
        ins_rank = (ins_key * n + ins_dst) * n + ins_src
        by_rank = np.argsort(ins_rank, kind="stable")
        ins_src, ins_dst = ins_src[by_rank], ins_dst[by_rank]
        ins_w = ins[:, 2][by_rank]
        pos = np.searchsorted(kept_rank, ins_rank[by_rank])
        src = np.insert(kept_src, pos, ins_src)
        dst = np.insert(kept_dst, pos, ins_dst)
        weight = np.insert(kept_w, pos, ins_w)
    else:
        src, dst, weight = kept_src, kept_dst, kept_w

    shard_key = (src // interval_size) * k + dst // interval_size
    if shard_key.size:
        # The merged arrays are rank-sorted, so shard keys are already
        # non-decreasing: run starts come from one diff, no re-sort.
        starts = np.concatenate(
            [[0], np.flatnonzero(np.diff(shard_key)) + 1]
        ).astype(np.int64)
        keys = shard_key[starts]
    else:
        starts = np.empty(0, dtype=np.int64)
        keys = np.empty(0, dtype=np.int64)
    return ShardGrid.from_sorted_arrays(
        new_graph,
        interval_size,
        src=src,
        dst=dst,
        weight=weight,
        keys=keys,
        starts=np.append(starts, shard_key.size),
    )
