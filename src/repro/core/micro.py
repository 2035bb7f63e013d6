"""Array-level micro engine: ground truth for the vectorized engine.

:class:`MicroGaaSX` executes PageRank / BFS / SSSP by instantiating a
real :class:`~repro.xbar.cam_array.EdgeCam` and
:class:`~repro.xbar.mac_array.MacCrossbar` pair per occupied crossbar
and driving the actual search / selective-MAC / SFU operations edge by
edge. It is orders of magnitude slower than
:class:`~repro.core.engine.GaaSXEngine` and exists for two reasons:

* **Validation** — on any small graph, its :class:`EventLog` must be
  *identical* (every counter, including the Figure 13 histogram) to
  the vectorized engine's, and its numerical results must agree with
  the golden references. The test suite asserts both.
* **Exposition** — its control flow is a direct transcription of the
  paper's Figures 7 and 9.

Array events are counted once, on a per-array counter board
(:class:`~repro.obs.hw.HwMonitor`) every crossbar charges. A run's
:class:`EventLog` is the board's delta over the run plus the run's own
SFU and buffer counts — the scalar pipeline and SRAM buffers are
shared units, not arrays.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..config import ArchConfig
from ..errors import AlgorithmError
from ..events import EventLog
from ..graphs.graph import Graph
from ..graphs.partition import partition_graph
from ..obs.hw import HwMonitor
from ..xbar.cam_array import CamBank, EdgeCam, pack_edge_keys
from ..xbar.cells import FixedPointFormat
from ..xbar.mac_array import MacBank, MacCrossbar
from .engine import default_interval_size
from .loader import CrossbarLayout, build_layout
from .reuse import (
    frontier_fingerprint,
    get_reuse_cache,
    layout_token,
    reuse_enabled,
)


class _CrossbarPair:
    """One loaded CAM/MAC crossbar pair plus its edge bookkeeping."""

    def __init__(
        self,
        config: ArchConfig,
        src: np.ndarray,
        dst: np.ndarray,
        weight: np.ndarray,
        board: HwMonitor,
        load_weights: bool,
        search_field: str = "src",
        exact: bool = True,
        packed=None,
    ) -> None:
        # Each CAM field spans half the 128-bit row, matching the
        # engine's cam_cell_writes = 2 bits-per-cell-pair x width.
        self.cam = EdgeCam(
            rows=config.cam_rows,
            vertex_bits=config.cam_width_bits // 2,
            hw=board,
        )
        self.mac = MacCrossbar(
            rows=config.mac_rows,
            cols=config.mac_cols,
            value_format=FixedPointFormat(
                config.value_bits, config.value_bits // 2
            ),
            cell_bits=config.cell_bits,
            accumulate_limit=config.mac_accumulate_limit,
            adc_bits=config.adc_bits,
            exact=exact,
            hw=board,
        )
        self.src = src
        self.dst = dst
        self.weight = weight
        # Distinct searched ids with their packed key encodings,
        # precomputed once: every superstep searches a subset of these,
        # never anything else, and the encodings never change. A warm
        # build hands the content-keyed product in via ``packed``.
        if packed is None:
            searched = src if search_field == "src" else dst
            self.search_vertices = np.unique(searched)
            self.search_keys = self.cam.pack_keys(
                self.search_vertices, search_field
            )
        else:
            self.search_vertices, key_words, mask_words = packed
            self.search_keys = (key_words, mask_words)
        self.cam.load_edges(src, dst)
        k = src.size
        if load_weights:
            self.mac.write(
                np.arange(k), np.zeros(k, dtype=np.int64), weight
            )
        # Constant-1 column for the SpMV-add distance term (preset, no
        # programming events).
        ones = self.mac.stored_values()
        ones[:, 1] = 1.0
        if not load_weights:
            # BFS: the weight column itself is preset to constant 1.
            ones[:k, 0] = 1.0
        self.mac.preset(ones)


class MicroGaaSX:
    """Slow, honest GaaS-X built from the array-level components."""

    def __init__(
        self,
        graph: Graph,
        config: Optional[ArchConfig] = None,
        interval_size: Optional[int] = None,
        quantized: bool = False,
        hw=None,
        reuse: Optional[bool] = None,
    ) -> None:
        """``quantized=True`` runs the MAC arrays through the honest
        fixed-point pipeline (2-bit cells, bit-serial inputs, ADC)
        instead of exact float arithmetic; results then carry bounded
        quantization error instead of matching references exactly.

        ``hw`` takes the :class:`repro.obs.hw.HwMonitor` the crossbars
        count on: every crossbar pair registers a ``cam``/``mac`` array
        slot on it and the algorithms close one timeline bin per
        superstep on it. Without one, each run counts on a private
        board and records no timeline.
        Either way a run's :class:`EventLog` holds that run's events
        only.

        ``reuse`` overrides the cross-superstep memo layer
        (:mod:`repro.core.reuse`) for this engine; ``None`` follows the
        process default (on unless ``REPRO_REUSE=0``). Memoized runs
        charge identical events — only wall-clock changes.
        """
        self.config = config if config is not None else ArchConfig()
        self.quantized = quantized
        self.hw = hw
        self.graph = graph
        if interval_size is None:
            interval_size = default_interval_size(graph.num_vertices)
        self.interval_size = interval_size
        self._grid = partition_graph(graph, interval_size)
        self._reuse = get_reuse_cache() if reuse_enabled(reuse) else None

    def _token(self, order: str) -> Optional[str]:
        """Reuse-cache namespace of this engine's ``order`` layout."""
        if self._reuse is None:
            return None
        return layout_token(
            self.graph, self.interval_size, order, self.config
        )

    def _board(self) -> HwMonitor:
        """The board a run's crossbars count on."""
        return self.hw if self.hw is not None else HwMonitor()

    def _build(
        self,
        order: str,
        board: HwMonitor,
        load_weights: bool,
        search_field: str,
    ) -> Tuple[CrossbarLayout, list]:
        layout = build_layout(self._grid, order, self.config)
        token = self._token(order)
        vertex_bits = self.config.cam_width_bits // 2
        pairs = []
        for x in range(layout.num_xbars):
            sel = layout.xbar_of_edge == x
            src = layout.src[sel]
            dst = layout.dst[sel]
            packed = None
            if token is not None:
                # Content-keyed packed keys: a warm rebuild of the same
                # graph/layout/config skips the np.unique + bit packing
                # per crossbar (and a mutated graph's untouched shards
                # keep theirs via reuse migration).
                searched = src if search_field == "src" else dst

                def _pack(searched=searched):
                    vertices = np.unique(searched)
                    key_words, mask_words = pack_edge_keys(
                        vertices, search_field, vertex_bits
                    )
                    return vertices, key_words, mask_words

                packed = self._reuse.packed_keys(
                    token, x, search_field, _pack
                )
            pairs.append(
                _CrossbarPair(
                    self.config,
                    src,
                    dst,
                    layout.weight[sel],
                    board,
                    load_weights,
                    search_field=search_field,
                    exact=not self.quantized,
                    packed=packed,
                )
            )
        return layout, pairs

    # ------------------------------------------------------------------
    def pagerank(
        self, alpha: float = 0.85, iterations: int = 10
    ) -> Tuple[np.ndarray, EventLog]:
        """PageRank driven search-by-search (Figure 9c)."""
        n = self.graph.num_vertices
        board = self._board()
        since = board.snapshot()
        events = EventLog()
        out_deg = self.graph.out_degrees().astype(np.float64)
        inv = np.divide(1.0, out_deg, out=np.zeros(n), where=out_deg > 0)
        layout, pairs = self._build(
            "col", board, load_weights=False, search_field="dst"
        )
        # MAC column 0 holds 1/OutDeg(src) per edge row (counted as the
        # per-edge attribute write, like the engine's loader).
        for pair in pairs:
            k = pair.src.size
            pair.mac.write(
                np.arange(k), np.zeros(k, dtype=np.int64), inv[pair.src]
            )
        ranks = np.ones(n)
        col0 = np.array([0])
        inputs = np.zeros(self.config.mac_rows)
        token = self._token("col")
        if token is not None:
            # PageRank searches every pair's full destination set every
            # iteration: one fingerprint per pair covers the whole run.
            pair_fps = [
                frontier_fingerprint(pair.search_vertices) for pair in pairs
            ]
        for _ in range(iterations):
            contrib = np.zeros(n)
            for i, pair in enumerate(pairs):
                inputs[: pair.src.size] = ranks[pair.src]
                inputs[pair.src.size :] = 0.0
                events.buffer_reads += int(pair.src.size)  # rank reads
                # One batched broadcast: every destination group's CAM
                # search, then its selective MAC, in one call each.
                # The search result is constant across iterations, so
                # after the first it comes from the reuse cache with
                # the identical events charged (charge_search).
                hits = None
                if token is not None:
                    hits = self._reuse.lookup(token, i, pair_fps[i])
                if hits is None:
                    hits = pair.cam.search_packed(*pair.search_keys)
                    if token is not None:
                        self._reuse.store(token, i, pair_fps[i], hits)
                else:
                    pair.cam.charge_search(int(pair.search_vertices.size))
                summed = pair.mac.mac_many(inputs, hits, col_mask=col0)
                contrib[pair.search_vertices] += summed[:, 0]
                events.sfu_ops += int(pair.search_vertices.size)  # accums
            ranks = (1.0 - alpha) + alpha * contrib
            events.sfu_ops += 2 * n  # damping affine per vertex
            events.buffer_writes += n
            if self.hw is not None:
                self.hw.end_step()
        return ranks, events.merge(board.events(since))

    # ------------------------------------------------------------------
    def _traversal(
        self, source: int, weighted: bool
    ) -> Tuple[np.ndarray, EventLog]:
        n = self.graph.num_vertices
        if not 0 <= source < n:
            raise AlgorithmError(f"source {source} out of range [0, {n})")
        board = self._board()
        since = board.snapshot()
        events = EventLog()
        _layout, pairs = self._build(
            "row", board, load_weights=weighted, search_field="src"
        )
        # Gang the loaded pairs: the hardware searches every crossbar
        # in parallel, so one bank call per superstep resolves all the
        # active sources' searches (and their selective MACs) at once.
        # Banks snapshot array contents — safe here because traversal
        # never reloads a pair after the initial edge load.
        if pairs:
            cam_bank = CamBank([pair.cam.cam for pair in pairs])
            mac_bank = MacBank([pair.mac for pair in pairs])
            all_src = np.concatenate(
                [pair.search_vertices for pair in pairs]
            )
            member = np.repeat(
                np.arange(len(pairs)),
                [pair.search_vertices.size for pair in pairs],
            )
            key_words = np.concatenate(
                [pair.search_keys[0] for pair in pairs], axis=0
            )
            mask_words = pairs[0].search_keys[1]
            dst_rows = np.stack([pair.cam.stored_dst() for pair in pairs])
        else:
            all_src = np.empty(0, dtype=np.int64)
        dist = np.full(n, np.inf)
        dist[source] = 0.0
        active = np.zeros(n, dtype=bool)
        active[source] = True
        cols01 = np.array([0, 1])
        token = self._token("row")
        while active.any():
            new_dist = dist.copy()
            sel = active[all_src]
            srcs = all_src[sel]
            searches = int(srcs.size)
            candidates_count = 0
            if searches:
                mem = member[sel]
                # Supersteps are memoized on the activity mask: a warm
                # re-run of the same query (or an identical frontier in
                # another traversal on this graph) reuses the gang hit
                # matrix and only charges the search events.
                hits = None
                if token is not None:
                    step_fp = frontier_fingerprint(sel)
                    hits = self._reuse.lookup(token, "gang", step_fp)
                if hits is None:
                    hits = cam_bank.search_packed(
                        mem, key_words[sel], mask_words
                    )
                    if token is not None:
                        self._reuse.store(token, "gang", step_fp, hits)
                else:
                    cam_bank.charge_search(mem)
                # alpha=1 drives the weight column, dist(u) drives the
                # constant-1 column (Figure 9b) — one input row per
                # active source, one gang MAC for the whole superstep.
                inputs = np.zeros((searches, self.config.mac_cols))
                inputs[:, 0] = 1.0
                inputs[:, 1] = dist[srcs]
                cand = mac_bank.mac_rowwise_many(
                    mem, inputs, hits, col_mask=cols01
                )
                query, rows = np.nonzero(hits)
                candidates_count = int(rows.size)
                np.minimum.at(
                    new_dist, dst_rows[mem[query], rows], cand[query, rows]
                )
            improved_any = new_dist < dist
            events.buffer_reads += searches  # dist(u) per search
            events.sfu_ops += candidates_count + int(improved_any.sum())
            events.buffer_writes += int(improved_any.sum())
            dist = new_dist
            active = improved_any
            if self.hw is not None:
                self.hw.end_step()
        return dist, events.merge(board.events(since))

    def bfs(self, source: int) -> Tuple[np.ndarray, EventLog]:
        """Breadth-first search hop distances."""
        return self._traversal(source, weighted=False)

    def sssp(self, source: int) -> Tuple[np.ndarray, EventLog]:
        """Single-source shortest-path distances."""
        return self._traversal(source, weighted=True)
