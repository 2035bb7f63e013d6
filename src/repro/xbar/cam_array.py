"""CAM crossbar: ternary content-addressable search.

A :class:`CamCrossbar` stores one bit pattern per row (128 x 128 bits in
Table I, one bit per complementary ReRAM cell pair, Figure 3b). A
search broadcasts a key with a ternary mask; every unmasked bit is
XNOR-compared in parallel and a row's sense amplifier raises a hit when
all unmasked bits match. :class:`EdgeCam` layers the paper's edge
layout on top: each row holds a ``(src, dst)`` vertex-id pair and
searches target either field, producing the hit vector that drives the
MAC crossbar's word lines.

Rows are mirrored into packed 64-bit words so a search is a handful of
word-wide XOR/AND reductions instead of a boolean matrix sweep, and
:meth:`CamCrossbar.search_many` broadcasts a whole batch of keys in one
call — the searched-field values of every active vertex of a superstep
— which is what lets :class:`~repro.core.micro.MicroGaaSX` stay
array-faithful without a Python loop per vertex.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..errors import CapacityError, ConfigError
from ..events import EventLog
from ..obs.hw import HwMonitor, attach


def encode_ids(values: np.ndarray, bits: int) -> np.ndarray:
    """Encode non-negative ids as MSB-first bit matrices.

    Returns a boolean array of shape ``(len(values), bits)``. The
    vectorized replacement for encoding one value at a time, one bit
    at a time.
    """
    values = np.asarray(values, dtype=np.int64)
    if values.size:
        low = int(values.min())
        high = int(values.max())
        if low < 0 or (bits < 64 and high >= (1 << bits)):
            bad = low if low < 0 else high
            raise ConfigError(f"value {bad} does not fit in {bits} bits")
    # Big-endian bytes unpack to the 64 bits MSB first; keep the low
    # ``bits`` of them (zero-extended past 64).
    raw = np.unpackbits(
        values.astype(">u8").view(np.uint8).reshape(-1, 8), axis=1
    ).view(bool)
    if bits <= 64:
        return raw[:, 64 - bits :]
    return np.concatenate(
        [np.zeros((raw.shape[0], bits - 64), dtype=bool), raw], axis=1
    )


def _pack_words(bits: np.ndarray) -> np.ndarray:
    """Pack boolean bit rows into 64-bit words (shape ``(k, words)``).

    The mapping from bit position to word lane only has to be
    consistent between stored rows and search keys — equality survives
    any fixed permutation — so the byte order ``view`` imposes is
    irrelevant.
    """
    k, width = bits.shape
    words = -(-width // 64)
    padded = np.zeros((k, words * 64), dtype=bool)
    padded[:, :width] = bits
    return np.packbits(padded, axis=1).view(np.uint64)


def pack_edge_keys(
    values: np.ndarray, field: str, vertex_bits: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Packed ``(key_words, mask_words)`` for an edge-CAM field search.

    Identical to :meth:`EdgeCam.pack_keys` but computable without an
    array instance — the packed-key cache in :mod:`repro.core.reuse`
    rebuilds entries for crossbars that have not been constructed yet.
    """
    if field not in ("src", "dst"):
        raise ConfigError(f"unknown CAM field {field!r}")
    mask = np.zeros(2 * vertex_bits, dtype=bool)
    encoded = encode_ids(np.asarray(values, dtype=np.int64), vertex_bits)
    blank = np.zeros_like(encoded)
    if field == "src":
        mask[:vertex_bits] = True
        keys = np.concatenate([encoded, blank], axis=1)
    else:
        mask[vertex_bits:] = True
        keys = np.concatenate([blank, encoded], axis=1)
    return _pack_words(keys), _pack_words(mask[None, :])[0]


class CamCrossbar:
    """A ternary CAM array of ``rows`` x ``width_bits`` bit cells.

    Events are charged to slot :attr:`slot` of the counter board
    :attr:`hw` (a :class:`~repro.obs.hw.HwMonitor`; a private one-slot
    board when ``hw`` is None), registered in bank ``"cam"``.
    """

    def __init__(
        self,
        rows: int = 128,
        width_bits: int = 128,
        hw: Optional[HwMonitor] = None,
    ) -> None:
        if rows <= 0 or width_bits <= 0:
            raise ConfigError("CAM dimensions must be positive")
        self.rows = rows
        self.width_bits = width_bits
        self.hw, self.slot = attach(hw, "cam")
        self._bits = np.zeros((rows, width_bits), dtype=bool)
        self._valid = np.zeros(rows, dtype=bool)
        self._words = _pack_words(self._bits)

    @property
    def events(self) -> EventLog:
        """The board's column sums (this array's own events when the
        board is private)."""
        return self.hw.events()

    def _encode(self, value: int, bits: int) -> np.ndarray:
        if value < 0 or value >= (1 << bits):
            raise ConfigError(f"value {value} does not fit in {bits} bits")
        return encode_ids(np.array([value], dtype=np.int64), bits)[0]

    def write_row(self, row: int, pattern: np.ndarray) -> None:
        """Program one row with a boolean bit pattern (MSB first)."""
        if not 0 <= row < self.rows:
            raise CapacityError(f"row {row} outside CAM bounds")
        pattern = np.asarray(pattern, dtype=bool)
        if pattern.shape != (self.width_bits,):
            raise ConfigError(f"pattern must have {self.width_bits} bits")
        self._bits[row] = pattern
        self._words[row] = _pack_words(pattern[None, :])[0]
        self._valid[row] = True
        self._charge_writes(1)

    def write_rows(self, first_row: int, patterns: np.ndarray) -> None:
        """Program a contiguous row block in one operation.

        Equivalent (in contents and event counts) to calling
        :meth:`write_row` once per pattern, without the per-row Python
        and packing overhead.
        """
        patterns = np.asarray(patterns, dtype=bool)
        if patterns.ndim != 2 or patterns.shape[1] != self.width_bits:
            raise ConfigError(f"patterns must have {self.width_bits} bits")
        count = patterns.shape[0]
        if first_row < 0 or first_row + count > self.rows:
            raise CapacityError("row block outside CAM bounds")
        block = slice(first_row, first_row + count)
        self._bits[block] = patterns
        self._words[block] = _pack_words(patterns)
        self._valid[block] = True
        self._charge_writes(count)

    def _charge_writes(self, rows: int) -> None:
        self.hw.add(self.slot, "cam_row_writes", rows)
        # Each TCAM bit uses two complementary cells.
        self.hw.add(self.slot, "cam_cell_writes", 2 * self.width_bits * rows)

    def invalidate(self) -> None:
        """Mark every row empty (no write cost; rows are overwritten)."""
        self._valid[:] = False

    def search(
        self, key: np.ndarray, mask: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Parallel ternary search; returns the boolean hit vector.

        ``key`` is a full-width bit pattern; ``mask`` selects the bits
        that must match (None = all bits). Invalid (never written) rows
        never hit. Counts one CAM search event.
        """
        key = np.asarray(key, dtype=bool)
        if key.shape != (self.width_bits,):
            raise ConfigError(f"key must have {self.width_bits} bits")
        return self.search_many(key[None, :], mask)[0]

    def search_many(
        self, keys: np.ndarray, mask: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Broadcast a batch of keys; returns the hit matrix.

        ``keys`` has shape ``(q, width_bits)``; the result has shape
        ``(q, rows)``, row ``i`` being exactly what ``search(keys[i],
        mask)`` returns. Counts ``q`` CAM search events (the hardware
        still performs one broadcast per key; batching is a simulation
        speedup, not a hardware semantic change).
        """
        keys = np.asarray(keys, dtype=bool)
        if keys.ndim != 2 or keys.shape[1] != self.width_bits:
            raise ConfigError(f"keys must have {self.width_bits} bits")
        if mask is None:
            mask_words = None
            # Bits past width_bits are zero in rows and keys alike, so
            # leaving them enabled in the mask cannot produce a mismatch.
        else:
            mask = np.asarray(mask, dtype=bool)
            if mask.shape != (self.width_bits,):
                raise ConfigError(f"mask must have {self.width_bits} bits")
            mask_words = _pack_words(mask[None, :])[0]
        return self.search_packed(_pack_words(keys), mask_words)

    def charge_search(self, queries: int) -> None:
        """Charge the events of ``queries`` searches without running them.

        The memoized path in :mod:`repro.core.reuse` calls this when a
        cached hit matrix answers a search: the hardware would still
        perform one broadcast per key, so the counters must advance
        exactly as if the fold had run.
        """
        self.hw.add(self.slot, "cam_searches", int(queries))

    def search_packed(
        self,
        key_words: np.ndarray,
        mask_words: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Search pre-packed key words; the re-encoding-free fast path.

        ``key_words`` has shape ``(q, words)`` as produced by packing
        full-width keys; ``mask_words`` is one packed mask row (None =
        every bit must match). Hit semantics and event counts are
        exactly those of :meth:`search_many` on the unpacked
        equivalents. Batched drivers cache the packed keys once — the
        CAM contents change between supersteps, the key encodings
        never do.
        """
        key_words = np.asarray(key_words, dtype=np.uint64)
        if key_words.ndim != 2 or key_words.shape[1] != self._words.shape[1]:
            raise ConfigError("key words do not match the CAM word count")
        if mask_words is None:
            mask_words = np.full(
                self._words.shape[1], ~np.uint64(0), dtype=np.uint64
            )
        self.charge_search(key_words.shape[0])
        # XNOR per cell, AND along the match line — on packed words:
        # a row hits when no unmasked bit differs in any word. Lanes
        # whose mask word is zero cannot mismatch, so a field search
        # (mask = one vertex-id field) touches a single 64-bit lane;
        # the fold is an explicit | chain over 2D slices, never a 3D
        # intermediate.
        lanes = np.flatnonzero(mask_words != 0)
        if lanes.size == 0:
            return np.tile(self._valid, (key_words.shape[0], 1))
        folded = (
            self._words[None, :, lanes[0]] ^ key_words[:, None, lanes[0]]
        ) & mask_words[lanes[0]]
        for lane in lanes[1:]:
            folded = folded | (
                (self._words[None, :, lane] ^ key_words[:, None, lane])
                & mask_words[lane]
            )
        return (folded == 0) & self._valid


class CamBank:
    """Lockstep gang of same-geometry CAM crossbars in stacked storage.

    GaaS-X broadcasts a superstep's searches to every crossbar in
    parallel (Figure 7); a bank holds its members' packed words in one
    ``(members, rows, words)`` tensor so one :meth:`search_packed` call
    resolves a batch of searches routed to *different* members without
    a Python loop per crossbar. Members share one counter board, and
    each member is charged exactly what issuing the same searches
    member by member would charge.

    A bank either snapshots existing arrays (the constructor — rebuild
    it after reloading any of them) or is loaded bank-native
    (:meth:`load_edges`).
    """

    def __init__(self, cams: Sequence[CamCrossbar]) -> None:
        cams = list(cams)
        if not cams:
            raise ConfigError("a CAM bank needs at least one member")
        first = cams[0]
        for cam in cams:
            if cam.rows != first.rows or cam.width_bits != first.width_bits:
                raise ConfigError("bank members must share one geometry")
            if cam.hw is not first.hw:
                raise ConfigError("bank members must share one board")
        self.hw = first.hw
        self._slots = np.array([cam.slot for cam in cams], dtype=np.int64)
        self._words = np.stack([cam._words for cam in cams])
        self._valid = np.stack([cam._valid for cam in cams])

    @classmethod
    def load_edges(
        cls,
        hw: HwMonitor,
        slots: np.ndarray,
        rows: int,
        vertex_bits: int,
        member_ids: np.ndarray,
        row_indices: np.ndarray,
        src: np.ndarray,
        dst: np.ndarray,
    ) -> "CamBank":
        """A bank-native edge-CAM bank in one vectorized pass.

        Member ``m`` charges ``slots[m]`` of ``hw``; edge ``i`` is
        written to row ``row_indices[i]`` of member ``member_ids[i]``
        in the :class:`EdgeCam` layout. Every edge's words are encoded
        and packed in one call and scattered into the stacked storage,
        and each member is charged what :meth:`EdgeCam.load_edges` of
        its own edges charges.
        """
        slots = np.asarray(slots, dtype=np.int64)
        member_ids = np.asarray(member_ids, dtype=np.int64)
        row_indices = np.asarray(row_indices, dtype=np.int64)
        if row_indices.size and (
            row_indices.min() < 0 or row_indices.max() >= rows
        ):
            raise CapacityError(f"edge rows exceed CAM capacity {rows}")
        width_bits = 2 * vertex_bits
        patterns = np.concatenate(
            [encode_ids(src, vertex_bits), encode_ids(dst, vertex_bits)],
            axis=1,
        )
        words = _pack_words(patterns)
        bank = cls.__new__(cls)
        bank.hw = hw
        bank._slots = slots
        bank._words = np.zeros(
            (slots.size, rows, -(-width_bits // 64)), dtype=np.uint64
        )
        bank._words[member_ids, row_indices] = words
        bank._valid = np.zeros((slots.size, rows), dtype=bool)
        bank._valid[member_ids, row_indices] = True
        charged = slots[member_ids]
        hw.add(charged, "cam_row_writes", 1)
        # Each TCAM bit uses two complementary cells.
        hw.add(charged, "cam_cell_writes", 2 * width_bits)
        return bank

    @property
    def events(self) -> EventLog:
        """The shared board's column sums."""
        return self.hw.events()

    def charge_search(self, member_ids: np.ndarray) -> None:
        """Charge the events of one gang search without running it.

        ``member_ids`` routes query ``i`` to member ``member_ids[i]``;
        each member is charged one search per query routed to it,
        exactly as :meth:`search_packed` would have charged. Used by
        the memoized traversal path in :mod:`repro.core.reuse`.
        """
        member_ids = np.asarray(member_ids, dtype=np.int64)
        self.hw.add(self._slots[member_ids], "cam_searches", 1)

    def search_packed(
        self,
        member_ids: np.ndarray,
        key_words: np.ndarray,
        mask_words: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Gang search: query ``i`` runs on member ``member_ids[i]``.

        ``key_words`` has shape ``(q, words)``; returns the ``(q,
        rows)`` hit matrix, row ``i`` exactly what member
        ``member_ids[i]``'s :meth:`CamCrossbar.search_packed` returns
        for ``key_words[i]``. Counts ``q`` CAM search events.
        """
        member_ids = np.asarray(member_ids, dtype=np.int64)
        key_words = np.asarray(key_words, dtype=np.uint64)
        if key_words.ndim != 2 or key_words.shape[1] != self._words.shape[2]:
            raise ConfigError("key words do not match the CAM word count")
        if member_ids.shape != (key_words.shape[0],):
            raise ConfigError("need exactly one member id per key")
        if mask_words is None:
            mask_words = np.full(
                self._words.shape[2], ~np.uint64(0), dtype=np.uint64
            )
        self.charge_search(member_ids)
        # Only lanes with a nonzero mask word can mismatch. Per lane, a
        # row matches when its masked word equals the masked key: the
        # stored lane is masked once for every member, then gathered
        # per query and compared straight to a boolean.
        hits = self._valid[member_ids]
        for lane in np.flatnonzero(mask_words != 0):
            mask = mask_words[lane]
            stored = self._words[:, :, lane] & mask
            hits &= stored[member_ids] == (key_words[:, lane] & mask)[:, None]
        return hits


class EdgeCam:
    """A CAM crossbar storing (src, dst) vertex-id pairs, one per row.

    The source id occupies the high bit field, the destination the low
    field; ternary masking restricts a search to either field, exactly
    how GaaS-X finds "all edges with destination v" (Figure 7b).
    """

    def __init__(
        self,
        rows: int = 128,
        vertex_bits: int = 32,
        hw: Optional[HwMonitor] = None,
    ) -> None:
        if 2 * vertex_bits > 128:
            raise ConfigError("two vertex ids must fit the 128-bit CAM row")
        self.vertex_bits = vertex_bits
        self.cam = CamCrossbar(rows, 2 * vertex_bits, hw=hw)
        self._src = np.full(rows, -1, dtype=np.int64)
        self._dst = np.full(rows, -1, dtype=np.int64)

    @property
    def rows(self) -> int:
        """Row capacity."""
        return self.cam.rows

    @property
    def events(self) -> EventLog:
        """The underlying array's board column sums."""
        return self.cam.events

    def load_edges(self, src: np.ndarray, dst: np.ndarray) -> None:
        """Load edge endpoint pairs starting at row 0.

        Replaces previous contents; at most ``rows`` edges fit.
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.shape != dst.shape:
            raise ConfigError("src and dst must have the same length")
        if src.size > self.rows:
            raise CapacityError(
                f"{src.size} edges exceed CAM capacity {self.rows}"
            )
        self.cam.invalidate()
        self._src[:] = -1
        self._dst[:] = -1
        vb = self.vertex_bits
        if src.size:
            patterns = np.concatenate(
                [encode_ids(src, vb), encode_ids(dst, vb)], axis=1
            )
            self.cam.write_rows(0, patterns)
        self._src[: src.size] = src
        self._dst[: dst.size] = dst

    def _field_mask(self, field: str) -> np.ndarray:
        mask = np.zeros(2 * self.vertex_bits, dtype=bool)
        if field == "src":
            mask[: self.vertex_bits] = True
        elif field == "dst":
            mask[self.vertex_bits :] = True
        else:
            raise ConfigError(f"unknown CAM field {field!r}")
        return mask

    def _keys(self, vertices: np.ndarray, field: str) -> np.ndarray:
        encoded = encode_ids(vertices, self.vertex_bits)
        blank = np.zeros_like(encoded)
        parts = [encoded, blank] if field == "src" else [blank, encoded]
        return np.concatenate(parts, axis=1)

    def pack_keys(
        self, vertices: np.ndarray, field: str
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Pre-packed ``(key_words, mask_words)`` for one searched field.

        Row subsets of ``key_words`` feed :meth:`search_packed`
        directly, so a driver that searches varying subsets of a fixed
        vertex set every superstep encodes each key exactly once.
        """
        return pack_edge_keys(vertices, field, self.vertex_bits)

    def charge_search(self, queries: int) -> None:
        """Charge ``queries`` searches without running them (memo path)."""
        self.cam.charge_search(queries)

    def search_packed(
        self, key_words: np.ndarray, mask_words: np.ndarray
    ) -> np.ndarray:
        """Search pre-packed keys from :meth:`pack_keys`."""
        return self.cam.search_packed(key_words, mask_words)

    def search_many(self, vertices: np.ndarray, field: str) -> np.ndarray:
        """Hit matrix ``(len(vertices), rows)`` for one searched field.

        Row ``i`` equals ``search_src(vertices[i])`` (or ``_dst``);
        counts one CAM search per vertex.
        """
        return self.search_packed(*self.pack_keys(vertices, field))

    def search_src(self, vertex: int) -> np.ndarray:
        """Hit vector of rows whose source id equals ``vertex``."""
        return self.search_many(np.array([vertex]), "src")[0]

    def search_dst(self, vertex: int) -> np.ndarray:
        """Hit vector of rows whose destination id equals ``vertex``."""
        return self.search_many(np.array([vertex]), "dst")[0]

    def stored_src(self) -> np.ndarray:
        """Loaded source ids (-1 where empty)."""
        return self._src.copy()

    def stored_dst(self) -> np.ndarray:
        """Loaded destination ids (-1 where empty)."""
        return self._dst.copy()
