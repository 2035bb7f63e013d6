"""Array-level micro engine: ground truth for the vectorized engine.

:class:`MicroGaaSX` executes PageRank / BFS / SSSP on real array
models: each layout is loaded into a stacked
:class:`~repro.xbar.cam_array.CamBank` and
:class:`~repro.xbar.mac_array.MacBank` (one member per occupied
crossbar, each charging its own board slots), and every superstep
issues the actual search / selective-MAC / SFU operations as one gang
call per bank — the lockstep broadcast of the paper's Figures 7 and 9.
It is orders of magnitude slower than
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

from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np

from ..config import ArchConfig
from ..errors import AlgorithmError
from ..events import EventLog
from ..graphs.graph import Graph
from ..graphs.partition import partition_graph
from ..obs.hw import HwMonitor
from ..xbar.cam_array import CamBank, pack_edge_keys
from ..xbar.cells import FixedPointFormat
from ..xbar.mac_array import MacBank, MacCrossbar, hit_entries
from .engine import default_interval_size
from .loader import CrossbarLayout, build_layout
from .reuse import (
    frontier_fingerprint,
    get_reuse_cache,
    layout_token,
    reuse_enabled,
)


class LoadedLayout(NamedTuple):
    """One layout loaded into stacked CAM/MAC bank storage.

    Bank member ``x`` is crossbar ``x``. Edge ``e`` of the layout sits
    in row ``row[e]`` of member ``layout.xbar_of_edge[e]``; ``src`` and
    ``dst`` are the ``(members, rows)`` stored endpoint ids (-1 where
    empty). The search keys are every member's distinct searched
    vertices, member-major: ``key_member[i]`` / ``key_vertex[i]``, with
    their packed CAM encodings.
    """

    layout: CrossbarLayout
    cam: CamBank
    mac: MacBank
    row: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    key_member: np.ndarray
    key_vertex: np.ndarray
    key_words: np.ndarray
    mask_words: np.ndarray


def _search_keys(
    layout: CrossbarLayout, field: str, vertex_bits: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(key_member, key_vertex, key_words, mask_words)``: each
    crossbar's distinct ``field`` ids, from one unique pass over
    ``(crossbar, vertex)`` keys, packed in one call."""
    searched = layout.src if field == "src" else layout.dst
    span = int(searched.max()) + 1 if searched.size else 1
    # Sort + boundary scan is np.unique; the keys arrive nearly sorted
    # (crossbar-major), where it beats np.unique's hash path ~30x.
    keys = np.sort(layout.xbar_of_edge * span + searched)
    keys = keys[np.append(True, keys[1:] != keys[:-1])] if keys.size else keys
    vertices = keys % span
    key_words, mask_words = pack_edge_keys(vertices, field, vertex_bits)
    return keys // span, vertices, key_words, mask_words


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
        count on: every loaded crossbar registers a ``cam`` then a
        ``mac`` array slot on it, in crossbar order, and the algorithms
        close one timeline bin per superstep on it. Without one, each
        run counts on a private board and records no timeline.
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
        search_field: str,
        weights: Optional[Callable[[CrossbarLayout], np.ndarray]],
    ) -> LoadedLayout:
        """Load the ``order`` layout into bank storage in one pass.

        Every crossbar registers a ``cam`` then a ``mac`` slot on
        ``board``, so the per-bank index is the crossbar id. Each CAM
        member holds its crossbar's ``(src, dst)`` rows; each MAC
        member has the constant-1 SpMV-add column 1 preset (no
        programming events) and column 0 either programmed with
        ``weights(layout)`` per edge row — charged like
        :meth:`~repro.xbar.mac_array.MacCrossbar.write` — or, when
        ``weights`` is None (BFS), preset to constant 1 as well.
        """
        config = self.config
        layout = build_layout(self._grid, order, config)
        members = layout.num_xbars
        member = layout.xbar_of_edge
        # Crossbar ids are sorted in load order, so each crossbar's
        # edges are one contiguous run: row = offset into its run.
        counts = np.bincount(member, minlength=members)
        starts = np.cumsum(counts) - counts
        row = np.arange(member.size) - starts[member]
        slots = board.register_many(
            ["cam", "mac"] * members,
            accumulate_limit=config.mac_accumulate_limit,
        ).reshape(members, 2)
        vertex_bits = config.cam_width_bits // 2
        cam = CamBank.load_edges(
            board, slots[:, 0], config.cam_rows, vertex_bits,
            member, row, layout.src, layout.dst,
        )
        # Geometry and numeric mode of every MAC member.
        like = MacCrossbar(
            rows=config.mac_rows,
            cols=config.mac_cols,
            value_format=FixedPointFormat(
                config.value_bits, config.value_bits // 2
            ),
            cell_bits=config.cell_bits,
            accumulate_limit=config.mac_accumulate_limit,
            adc_bits=config.adc_bits,
            exact=not self.quantized,
        )
        preset = np.zeros((members, config.mac_rows, config.mac_cols))
        preset[:, :, 1] = 1.0
        if weights is None:
            preset[member, row, 0] = 1.0
        mac = MacBank.preset_stack(like, board, slots[:, 1], preset)
        if weights is not None:
            mac.write(member, row, 0, weights(layout))
        stored = np.full((2, members, config.cam_rows), -1, dtype=np.int64)
        stored[0, member, row] = layout.src
        stored[1, member, row] = layout.dst
        token = self._token(order)
        if token is None:
            keys = _search_keys(layout, search_field, vertex_bits)
        else:
            # Content-keyed packed keys, one entry per layout and
            # field: a warm rebuild of the same graph/layout/config
            # skips the np.unique + bit packing.
            keys = self._reuse.packed_keys(
                token, "layout", search_field,
                lambda: _search_keys(layout, search_field, vertex_bits),
            )
        return LoadedLayout(layout, cam, mac, row, stored[0], stored[1], *keys)

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
        # MAC column 0 holds 1/OutDeg(src) per edge row (counted as the
        # per-edge attribute write, like the engine's loader).
        loaded = self._build(
            "col", board, "dst", lambda layout: inv[layout.src]
        )
        layout = loaded.layout
        member = layout.xbar_of_edge
        ranks = np.ones(n)
        col0 = np.array([0])
        inputs = np.zeros(loaded.src.shape)
        token = self._token("col")
        if token is not None:
            # PageRank searches every crossbar's full destination set
            # every iteration: one gang entry covers the whole run.
            gang_fp = frontier_fingerprint(
                np.ones(loaded.key_member.size, dtype=bool)
            )
        for _ in range(iterations):
            inputs[member, loaded.row] = ranks[layout.src]
            events.buffer_reads += layout.num_edges  # rank reads
            # One lockstep broadcast: every crossbar's destination
            # searches, then their selective MACs, in one gang call
            # each. The search result is constant across iterations,
            # so after the first it comes from the reuse cache with
            # the identical events charged (charge_search).
            hits = None
            if token is not None:
                hits = self._reuse.lookup(token, "gang", gang_fp)
            if hits is None:
                hits = loaded.cam.search_packed(
                    loaded.key_member, loaded.key_words, loaded.mask_words
                )
                if token is not None:
                    self._reuse.store(token, "gang", gang_fp, hits)
            else:
                loaded.cam.charge_search(loaded.key_member)
            summed = loaded.mac.mac_many(
                loaded.key_member, inputs, hits, col_mask=col0
            )
            contrib = np.bincount(
                loaded.key_vertex, weights=summed[:, 0], minlength=n
            )
            events.sfu_ops += int(loaded.key_vertex.size)  # accums
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
        loaded = self._build(
            "row", board, "src",
            (lambda layout: layout.weight) if weighted else None,
        )
        # The hardware searches every crossbar in parallel, so one bank
        # call per superstep resolves all the active sources' searches
        # (and their selective MACs) at once.
        all_src = loaded.key_vertex
        member = loaded.key_member
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
                    hits = loaded.cam.search_packed(
                        mem, loaded.key_words[sel], loaded.mask_words
                    )
                    if token is not None:
                        self._reuse.store(token, "gang", step_fp, hits)
                else:
                    loaded.cam.charge_search(mem)
                # alpha=1 drives the weight column, dist(u) drives the
                # constant-1 column (Figure 9b) — one input row per
                # active source, one gang MAC for the whole superstep.
                inputs = np.zeros((searches, self.config.mac_cols))
                inputs[:, 0] = 1.0
                inputs[:, 1] = dist[srcs]
                cand = loaded.mac.mac_rowwise_many(
                    mem, inputs, hits, col_mask=cols01
                )
                query, rows = hit_entries(hits)
                candidates_count = int(rows.size)
                np.minimum.at(
                    new_dist, loaded.dst[mem[query], rows], cand[query, rows]
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
