"""MAC crossbar: selective analog multiply-accumulate.

One :class:`MacCrossbar` models a single ReRAM array from Table I
(128 rows x 16 value columns, 2 bits/cell, so 8 bit-slices per value).
Its defining operation here is the *selective* MAC of Section III: the
hit vector from a CAM search enables a subset of word lines and the
bit-line currents sum only those rows. At most ``accumulate_limit``
rows are summed per operation (the paper fixes 16 so a 6-bit ADC
suffices); larger hit sets are split into multiple operations, each
charged to the array's slot on its counter board
(:class:`~repro.obs.hw.HwMonitor`).

Two numeric modes:

* ``exact`` (default) — float64 arithmetic. Used when validating the
  engine against golden references; all events are still counted.
* quantized — the honest ISAAC-style pipeline: weights in fixed point
  across 2-bit cells, inputs streamed one bit per phase, every per-phase
  per-slice bit-line sum pushed through the 6-bit ADC, partial sums
  recombined by shift-and-add.

Event conventions (shared with the vectorized engine): one MAC op with
``k`` enabled rows and ``m`` engaged columns records ``k`` DAC
activations, ``m`` ADC samples and ``k * m`` cell-level multiplies.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..errors import CapacityError, ConfigError
from ..events import EventLog
from ..obs.hw import HwMonitor, attach
from .adc import ADC
from .cells import FixedPointFormat, slice_values


def split_macs(hit_counts: np.ndarray, limit: int):
    """Chunk selective MACs at the accumulation ``limit``.

    Query ``i`` enabling ``hit_counts[i]`` rows runs as ``k // limit``
    full operations plus one remainder operation. Returns
    ``(op_rows, op_query)``: each operation's row count and the query
    it belongs to.
    """
    hits = np.asarray(hit_counts, dtype=np.int64)
    full = hits // limit
    rem = hits % limit
    partial = np.flatnonzero(rem)
    full_query = np.repeat(np.arange(hits.size), full)
    op_rows = np.concatenate(
        [np.full(full_query.size, limit, dtype=np.int64), rem[partial]]
    )
    return op_rows, np.concatenate([full_query, partial])


def hit_entries(hit_rows: np.ndarray):
    """``(query, row)`` of every enabled entry of a ``(q, rows)`` hit
    matrix, row-major — :func:`numpy.nonzero`, via a flat scan."""
    flat = np.flatnonzero(hit_rows)
    return np.divmod(flat, hit_rows.shape[1])


def _bit_serial_mac(
    fmt: FixedPointFormat,
    cell_bits: int,
    codes: np.ndarray,
    inputs: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    adc: ADC,
) -> np.ndarray:
    """Bit-serial, bit-sliced MAC of one accumulation chunk through the
    real ADC path: ``rows`` x ``cols`` of the stored ``codes`` against
    ``inputs[rows]``, every per-phase per-slice sum digitized by
    ``adc`` (which charges its own slot)."""
    slices = fmt.total_bits // cell_bits
    in_codes = fmt.quantize(inputs[rows])  # (k,)
    w_slices = slice_values(
        codes[np.ix_(rows, cols)], cell_bits, slices
    )  # (k, m, slices) most-significant first
    total = np.zeros(cols.size, dtype=np.int64)
    for phase in range(fmt.total_bits - 1, -1, -1):
        bits = (in_codes >> phase) & 1  # (k,)
        if not bits.any():
            continue
        for s in range(slices):
            analog = bits @ w_slices[:, :, s]  # per-column sums
            digital = adc.convert(analog)
            shift = phase + (slices - 1 - s) * cell_bits
            total += digital.astype(np.int64) << shift
    # Combined scale: input frac bits + weight frac bits.
    return total / (fmt.scale * fmt.scale)


class MacCrossbar:
    """A single MAC-capable crossbar array.

    Events are charged to slot :attr:`slot` of the counter board
    :attr:`hw` (a :class:`~repro.obs.hw.HwMonitor`; a private one-slot
    board when ``hw`` is None), registered in bank ``"mac"`` with this
    array's ``accumulate_limit``. The internal ADC charges the same
    slot.
    """

    def __init__(
        self,
        rows: int = 128,
        cols: int = 16,
        value_format: Optional[FixedPointFormat] = None,
        cell_bits: int = 2,
        accumulate_limit: int = 16,
        adc_bits: int = 6,
        exact: bool = True,
        hw: Optional[HwMonitor] = None,
    ) -> None:
        if rows <= 0 or cols <= 0:
            raise ConfigError("crossbar dimensions must be positive")
        if accumulate_limit <= 0:
            raise ConfigError("accumulate_limit must be positive")
        self.rows = rows
        self.cols = cols
        self.fmt = value_format if value_format is not None else FixedPointFormat()
        if self.fmt.total_bits % cell_bits != 0:
            raise ConfigError("value bits must be a multiple of cell_bits")
        self.cell_bits = cell_bits
        self.accumulate_limit = accumulate_limit
        self.exact = exact
        self.hw, self.slot = attach(
            hw, "mac", accumulate_limit=accumulate_limit
        )
        self._adc = ADC(adc_bits, hw=self.hw, slot=self.slot)
        self._weights = np.zeros((rows, cols), dtype=np.float64)
        self._codes = np.zeros((rows, cols), dtype=np.int64)

    @property
    def events(self) -> EventLog:
        """The board's column sums (this array's own events when the
        board is private)."""
        return self.hw.events()

    @property
    def bit_slices(self) -> int:
        """Physical cells per stored value."""
        return self.fmt.total_bits // self.cell_bits

    # ------------------------------------------------------------------
    # Programming
    # ------------------------------------------------------------------
    def write(
        self,
        row_indices: np.ndarray,
        col_indices: np.ndarray,
        values: np.ndarray,
    ) -> None:
        """Program individual cells (scattered write).

        Counts one row-level write pulse per distinct row touched and
        ``bit_slices`` programmed cells per value.
        """
        row_indices = np.asarray(row_indices, dtype=np.int64)
        col_indices = np.asarray(col_indices, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if not (row_indices.shape == col_indices.shape == values.shape):
            raise ConfigError("write arrays must have matching shapes")
        if row_indices.size and (
            row_indices.max() >= self.rows or col_indices.max() >= self.cols
        ):
            raise CapacityError("write outside crossbar bounds")
        codes = self.fmt.quantize(values)
        self._codes[row_indices, col_indices] = codes
        stored = self.fmt.dequantize(codes) if not self.exact else values
        self._weights[row_indices, col_indices] = stored
        self._charge_writes(np.unique(row_indices).size, values.size)

    def write_rows(self, row_indices: np.ndarray, values: np.ndarray) -> None:
        """Program whole rows: ``values`` has shape ``(len(rows), cols)``."""
        row_indices = np.asarray(row_indices, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (row_indices.size, self.cols):
            raise ConfigError(
                f"expected values of shape ({row_indices.size}, {self.cols})"
            )
        if row_indices.size and row_indices.max() >= self.rows:
            raise CapacityError("row index outside crossbar bounds")
        codes = self.fmt.quantize(values)
        self._codes[row_indices] = codes
        self._weights[row_indices] = (
            values if self.exact else self.fmt.dequantize(codes)
        )
        self._charge_writes(row_indices.size, values.size)

    def _charge_writes(self, rows: int, values: int) -> None:
        self.hw.add(self.slot, "row_writes", int(rows))
        self.hw.add(self.slot, "cell_writes", int(values) * self.bit_slices)

    def stored_values(self) -> np.ndarray:
        """Copy of the stored value matrix (as the array would compute)."""
        return self._weights.copy()

    # ------------------------------------------------------------------
    # Compute
    # ------------------------------------------------------------------
    def _normalize_mask(self, mask: Optional[np.ndarray], size: int) -> np.ndarray:
        """Accept boolean masks or index arrays; return sorted indices."""
        if mask is None:
            return np.arange(size)
        mask = np.asarray(mask)
        if mask.dtype == bool:
            if mask.shape != (size,):
                raise ConfigError("boolean mask has the wrong length")
            return np.flatnonzero(mask)
        indices = mask.astype(np.int64, copy=False)
        if indices.size > 1:
            indices = np.sort(indices)
            keep = np.empty(indices.size, dtype=bool)
            keep[0] = True
            np.not_equal(indices[1:], indices[:-1], out=keep[1:])
            indices = indices[keep]
        if indices.size and (indices[0] < 0 or indices[-1] >= size):
            raise ConfigError("mask index outside crossbar bounds")
        return indices

    def mac(
        self,
        inputs: np.ndarray,
        row_mask: Optional[np.ndarray] = None,
        col_mask: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Selective MAC: ``out[c] = sum_{r in mask} inputs[r] * W[r, c]``.

        ``inputs`` has one entry per crossbar row (entries outside the
        mask are ignored). Returns a dense vector of length ``cols``
        with zeros in unengaged columns. Hit sets larger than the
        accumulate limit are split into multiple operations whose
        partial sums the SFU adds digitally (counted as ADC samples per
        op, not extra SFU ops — the shift-and-add units handle it).
        """
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.shape != (self.rows,):
            raise ConfigError(f"inputs must have length {self.rows}")
        rows = self._normalize_mask(row_mask, self.rows)
        cols = self._normalize_mask(col_mask, self.cols)
        out = np.zeros(self.cols, dtype=np.float64)
        if rows.size == 0 or cols.size == 0:
            return out
        for chunk in self._chunks(rows, cols.size):
            if self.exact:
                partial = inputs[chunk] @ self._weights[np.ix_(chunk, cols)]
            else:
                partial = _bit_serial_mac(
                    self.fmt, self.cell_bits, self._codes, inputs, chunk,
                    cols, self._adc,
                )
            out[cols] += partial
        return out

    def _chunks(self, lines: np.ndarray, engaged: int) -> list:
        """Split the enabled ``lines`` into accumulation chunks and
        charge one MAC op per chunk over ``engaged`` bit lines."""
        limit = self.accumulate_limit
        chunks = [
            lines[start : start + limit]
            for start in range(0, lines.size, limit)
        ]
        self.hw.record_macs(
            self.slot, [chunk.size for chunk in chunks], engaged
        )
        return chunks

    def _record_batch_macs(
        self, hit_counts: np.ndarray, num_cols: int
    ) -> None:
        """Charge one selective MAC per hit-count entry.

        Identical counts (including the Figure 13 histogram) to running
        the queries one at a time: :func:`split_macs` chunks each at
        this array's accumulation limit.
        """
        op_rows, _query = split_macs(hit_counts, self.accumulate_limit)
        self.hw.record_macs(self.slot, op_rows, num_cols)

    def mac_many(
        self,
        inputs: np.ndarray,
        hit_rows: np.ndarray,
        col_mask: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Batched selective MAC: one :meth:`mac` per hit-matrix row.

        ``hit_rows`` has shape ``(q, rows)`` (CAM hit vectors, e.g.
        from :meth:`~repro.xbar.cam_array.CamCrossbar.search_many`);
        the result has shape ``(q, cols)`` with row ``i`` equal to
        ``mac(inputs, row_mask=hit_rows[i], col_mask)`` up to partial-
        sum association order. Event totals are identical to the
        sequential calls. Quantized mode falls back to the per-query
        bit-serial pipeline.
        """
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.shape != (self.rows,):
            raise ConfigError(f"inputs must have length {self.rows}")
        hit_rows = np.asarray(hit_rows, dtype=bool)
        if hit_rows.ndim != 2 or hit_rows.shape[1] != self.rows:
            raise ConfigError(f"hit matrix must have {self.rows} columns")
        if not self.exact:
            if hit_rows.shape[0] == 0:
                return np.zeros((0, self.cols), dtype=np.float64)
            return np.stack(
                [
                    self.mac(inputs, row_mask=hits, col_mask=col_mask)
                    for hits in hit_rows
                ]
            )
        cols = self._normalize_mask(col_mask, self.cols)
        out = np.zeros((hit_rows.shape[0], self.cols), dtype=np.float64)
        if hit_rows.shape[0] == 0 or cols.size == 0:
            return out
        out[:, cols] = hit_rows @ (inputs[:, None] * self._weights[:, cols])
        self._record_batch_macs(hit_rows.sum(axis=1), int(cols.size))
        return out

    def mac_rowwise_many(
        self,
        inputs: np.ndarray,
        hit_rows: np.ndarray,
        col_mask: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Batched per-row MAC: one :meth:`mac_rowwise` per query.

        ``inputs`` has shape ``(q, cols)`` (each query drives its own
        column inputs — e.g. its source vertex's distance) and
        ``hit_rows`` shape ``(q, rows)``; the result has shape
        ``(q, rows)``, row ``i`` equal to ``mac_rowwise(inputs[i],
        row_mask=hit_rows[i], col_mask)``. Like :meth:`mac_rowwise`,
        the two-operand SpMV-add runs at full precision in both modes
        (weights are read at their stored values), so no quantized
        fallback is needed.
        """
        inputs = np.asarray(inputs, dtype=np.float64)
        hit_rows = np.asarray(hit_rows, dtype=bool)
        if hit_rows.ndim != 2 or hit_rows.shape[1] != self.rows:
            raise ConfigError(f"hit matrix must have {self.rows} columns")
        if inputs.shape != (hit_rows.shape[0], self.cols):
            raise ConfigError(
                f"inputs must have shape ({hit_rows.shape[0]}, {self.cols})"
            )
        cols = self._normalize_mask(col_mask, self.cols)
        if hit_rows.shape[0] == 0 or cols.size == 0:
            return np.zeros((hit_rows.shape[0], self.rows), dtype=np.float64)
        candidates = inputs[:, cols] @ self._weights[:, cols].T
        self._record_batch_macs(hit_rows.sum(axis=1), int(cols.size))
        return np.where(hit_rows, candidates, 0.0)

    def mac_transposed(
        self,
        inputs: np.ndarray,
        col_mask: Optional[np.ndarray] = None,
        row_mask: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Column-direction MAC on a transposable crossbar.

        ``out[r] = sum_{c in mask} inputs[c] * W[r, c]`` — used when the
        accumulation runs over vertex-attribute columns (collaborative
        filtering's feature vectors, Section III-A's "transposable
        crossbars"). Accumulation chunks apply to columns here.
        """
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.shape != (self.cols,):
            raise ConfigError(f"inputs must have length {self.cols}")
        cols = self._normalize_mask(col_mask, self.cols)
        rows = self._normalize_mask(row_mask, self.rows)
        out = np.zeros(self.rows, dtype=np.float64)
        if rows.size == 0 or cols.size == 0:
            return out
        for chunk in self._chunks(cols, rows.size):
            if self.exact:
                partial = self._weights[np.ix_(rows, chunk)] @ inputs[chunk]
            else:
                partial = self._quantized_mac_t(inputs, rows, chunk)
            out[rows] += partial
        return out

    def preset(self, values: np.ndarray) -> None:
        """Initialize the whole array without programming events.

        Models factory/initialization-time constants such as the
        all-ones column BFS multiplies distances against (Section IV:
        BFS runs "without the overhead of loading edge weights into MAC
        crossbars but setting the edge weight columns to a fixed value
        of 1").
        """
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (self.rows, self.cols):
            raise ConfigError(
                f"preset expects shape ({self.rows}, {self.cols})"
            )
        codes = self.fmt.quantize(values)
        self._codes[:] = codes
        self._weights[:] = values if self.exact else self.fmt.dequantize(codes)

    def mac_rowwise(
        self,
        inputs: np.ndarray,
        row_mask: Optional[np.ndarray] = None,
        col_mask: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Per-row MAC: ``out[r] = sum_{c in mask} inputs[c] * W[r, c]``
        for each enabled row — the SpMV-add shape of SSSP/BFS
        (Figure 9b: every enabled edge row yields its own candidate
        ``alpha x weight + dist(u) x 1``).

        Event convention matches the engine's op-level abstraction: one
        MAC op per ``accumulate_limit`` rows enabled, recording the
        enabled-row count in the Figure 13 histogram and charging one
        ADC sample per engaged column per op.

        In quantized mode the weights are read at their stored
        fixed-point values; the two-operand SpMV-add itself is computed
        at full precision (its operands — a distance and a weight — are
        digital inputs, not bit-line sums needing an ADC).
        """
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.shape != (self.cols,):
            raise ConfigError(f"inputs must have length {self.cols}")
        rows = self._normalize_mask(row_mask, self.rows)
        cols = self._normalize_mask(col_mask, self.cols)
        out = np.zeros(self.rows, dtype=np.float64)
        if rows.size == 0 or cols.size == 0:
            return out
        for chunk in self._chunks(rows, cols.size):
            out[chunk] = self._weights[np.ix_(chunk, cols)] @ inputs[cols]
        return out

    # ------------------------------------------------------------------
    # Quantized pipeline
    # ------------------------------------------------------------------
    def _quantized_mac_t(
        self, inputs: np.ndarray, rows: np.ndarray, cols: np.ndarray
    ) -> np.ndarray:
        """Transposed-direction quantized MAC."""
        in_codes = self.fmt.quantize(inputs[cols])  # (k,)
        w_slices = slice_values(
            self._codes[np.ix_(rows, cols)], self.cell_bits, self.bit_slices
        )  # (r, k, slices)
        total = np.zeros(rows.size, dtype=np.int64)
        for phase in range(self.fmt.total_bits - 1, -1, -1):
            bits = (in_codes >> phase) & 1
            if not bits.any():
                continue
            for s in range(self.bit_slices):
                analog = w_slices[:, :, s] @ bits
                digital = self._adc.convert(analog)
                shift = phase + (self.bit_slices - 1 - s) * self.cell_bits
                total += digital.astype(np.int64) << shift
        return total / (self.fmt.scale * self.fmt.scale)


class MacBank:
    """Lockstep gang of same-geometry MAC crossbars in stacked storage.

    The MAC companion of :class:`~repro.xbar.cam_array.CamBank`: member
    weights live in one ``(members, rows, cols)`` tensor, so one
    :meth:`mac_many` / :meth:`mac_rowwise_many` call resolves a batch of
    MACs routed to *different* members without a Python loop per
    crossbar. Members share one counter board and each is charged, on
    its own slot, exactly what issuing the same operations member by
    member would charge.

    A bank either snapshots existing arrays (the constructor — rebuild
    it after reprogramming any of them) or is bank-native
    (:meth:`preset_stack`), programmed through :meth:`write`.
    """

    def __init__(self, macs: Sequence[MacCrossbar]) -> None:
        macs = list(macs)
        if not macs:
            raise ConfigError("a MAC bank needs at least one member")
        first = macs[0]
        for mac in macs:
            if (
                mac.rows != first.rows
                or mac.cols != first.cols
                or mac.accumulate_limit != first.accumulate_limit
                or mac.exact != first.exact
            ):
                raise ConfigError("bank members must share one geometry")
            if mac.hw is not first.hw:
                raise ConfigError("bank members must share one board")
        self._ref = first
        self.hw = first.hw
        self._slots = np.array([mac.slot for mac in macs], dtype=np.int64)
        self._weights = np.stack([mac._weights for mac in macs])
        self._codes = (
            None if first.exact else np.stack([mac._codes for mac in macs])
        )

    @classmethod
    def preset_stack(
        cls,
        like: MacCrossbar,
        hw: HwMonitor,
        slots: np.ndarray,
        values: np.ndarray,
    ) -> "MacBank":
        """A bank-native bank: member ``m`` charges ``slots[m]`` of
        ``hw`` and holds ``values[m]``, preset without programming
        events (:meth:`MacCrossbar.preset`).

        ``like`` supplies the geometry and numeric mode only; its own
        board and contents are not used. In exact mode the bank adopts
        ``values`` (shape ``(members, rows, cols)``) as its storage, and
        stores no fixed-point codes — only the quantized pipeline reads
        them.
        """
        values = np.asarray(values, dtype=np.float64)
        slots = np.asarray(slots, dtype=np.int64)
        if values.shape != (slots.size, like.rows, like.cols):
            raise ConfigError(
                f"preset expects shape ({slots.size}, {like.rows}, "
                f"{like.cols})"
            )
        bank = cls.__new__(cls)
        bank._ref = like
        bank.hw = hw
        bank._slots = slots
        if like.exact:
            bank._codes = None
            bank._weights = values
        else:
            bank._codes = like.fmt.quantize(values)
            bank._weights = like.fmt.dequantize(bank._codes)
        return bank

    @property
    def events(self) -> EventLog:
        """The shared board's column sums."""
        return self.hw.events()

    def write(
        self,
        member_ids: np.ndarray,
        row_indices: np.ndarray,
        col_indices: np.ndarray,
        values: np.ndarray,
    ) -> None:
        """Scattered write: entry ``i`` programs cell ``(row_indices[i],
        col_indices[i])`` of member ``member_ids[i]`` (a scalar
        ``col_indices`` applies to every entry).

        Each member is charged what :meth:`MacCrossbar.write` of its own
        entries charges: one row write per distinct row it touches and
        ``bit_slices`` programmed cells per value.
        """
        ref = self._ref
        member_ids = np.asarray(member_ids, dtype=np.int64)
        row_indices = np.asarray(row_indices, dtype=np.int64)
        col_indices = np.broadcast_to(
            np.asarray(col_indices, dtype=np.int64), row_indices.shape
        )
        values = np.asarray(values, dtype=np.float64)
        if not (member_ids.shape == row_indices.shape == values.shape):
            raise ConfigError("write arrays must have matching shapes")
        if row_indices.size and (
            row_indices.max() >= ref.rows or col_indices.max() >= ref.cols
        ):
            raise CapacityError("write outside crossbar bounds")
        cells = (member_ids, row_indices, col_indices)
        codes = ref.fmt.quantize(values)
        if self._codes is not None:
            self._codes[cells] = codes
        self._weights[cells] = (
            values if ref.exact else ref.fmt.dequantize(codes)
        )
        touched = np.zeros(self._weights.shape[:2], dtype=bool)
        touched[member_ids, row_indices] = True
        self.hw.add(self._slots[np.nonzero(touched)[0]], "row_writes", 1)
        self.hw.add(self._slots[member_ids], "cell_writes", ref.bit_slices)

    def _check_queries(
        self, member_ids: np.ndarray, hit_rows: np.ndarray
    ) -> None:
        rows = self._ref.rows
        if hit_rows.ndim != 2 or hit_rows.shape[1] != rows:
            raise ConfigError(f"hit matrix must have {rows} columns")
        if member_ids.shape != (hit_rows.shape[0],):
            raise ConfigError("need exactly one member id per query")

    def mac_many(
        self,
        member_ids: np.ndarray,
        inputs: np.ndarray,
        hit_rows: np.ndarray,
        col_mask: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Gang selective MAC: query ``i`` runs on ``member_ids[i]``.

        ``inputs`` has shape ``(members, rows)`` — each member's word
        line inputs — and ``hit_rows`` shape ``(q, rows)``. Row ``i`` of
        the ``(q, cols)`` result is what member ``member_ids[i]``'s
        :meth:`MacCrossbar.mac_many` returns for ``hit_rows[i]`` under
        its inputs row (exact mode: up to partial-sum association
        order), with identical per-member events: :func:`split_macs`
        chunks every query at the accumulation limit. Quantized mode
        runs each chunk through the bit-serial ADC pipeline, whose
        conversions charge the member's slot.
        """
        ref = self._ref
        member_ids = np.asarray(member_ids, dtype=np.int64)
        inputs = np.asarray(inputs, dtype=np.float64)
        hit_rows = np.asarray(hit_rows, dtype=bool)
        self._check_queries(member_ids, hit_rows)
        if inputs.shape != (self._slots.size, ref.rows):
            raise ConfigError(
                f"inputs must have shape ({self._slots.size}, {ref.rows})"
            )
        cols = ref._normalize_mask(col_mask, ref.cols)
        out = np.zeros((hit_rows.shape[0], ref.cols), dtype=np.float64)
        if hit_rows.shape[0] == 0 or cols.size == 0:
            return out
        # Sparse over the hit entries: each query enables a handful of
        # rows, so the work is O(hits), never O(q x rows x cols).
        query, rows = hit_entries(hit_rows)
        op_rows, op_query = split_macs(
            np.bincount(query, minlength=hit_rows.shape[0]),
            ref.accumulate_limit,
        )
        self.hw.record_macs(
            self._slots[member_ids[op_query]], op_rows, int(cols.size)
        )
        if not ref.exact:
            self._bit_serial_many(member_ids, inputs, query, rows, cols, out)
            return out
        members = member_ids[query]
        products = (
            inputs[members, rows][:, None]
            * self._weights[members[:, None], rows[:, None], cols]
        )
        for j, col in enumerate(cols):
            out[:, col] = np.bincount(
                query, weights=products[:, j], minlength=out.shape[0]
            )
        return out

    def _bit_serial_many(
        self,
        member_ids: np.ndarray,
        inputs: np.ndarray,
        query: np.ndarray,
        rows: np.ndarray,
        cols: np.ndarray,
        out: np.ndarray,
    ) -> None:
        """Quantized :meth:`mac_many` values, one query at a time."""
        ref = self._ref
        limit = ref.accumulate_limit
        bounds = np.searchsorted(query, np.arange(out.shape[0] + 1))
        for i in np.flatnonzero(np.diff(bounds)):
            member = member_ids[i]
            lines = rows[bounds[i] : bounds[i + 1]]
            adc = ADC(ref._adc.bits, hw=self.hw, slot=int(self._slots[member]))
            for start in range(0, lines.size, limit):
                out[i, cols] += _bit_serial_mac(
                    ref.fmt, ref.cell_bits, self._codes[member],
                    inputs[member], lines[start : start + limit], cols, adc,
                )

    def mac_rowwise_many(
        self,
        member_ids: np.ndarray,
        inputs: np.ndarray,
        hit_rows: np.ndarray,
        col_mask: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Gang per-row MAC: query ``i`` runs on ``member_ids[i]``.

        Shapes and semantics match
        :meth:`MacCrossbar.mac_rowwise_many`, except each query reads
        the weights of its own member array. Like the single-array
        method, the two-operand SpMV-add runs at full precision in
        both numeric modes.
        """
        ref = self._ref
        member_ids = np.asarray(member_ids, dtype=np.int64)
        inputs = np.asarray(inputs, dtype=np.float64)
        hit_rows = np.asarray(hit_rows, dtype=bool)
        self._check_queries(member_ids, hit_rows)
        if inputs.shape != (hit_rows.shape[0], ref.cols):
            raise ConfigError(
                f"inputs must have shape ({hit_rows.shape[0]}, {ref.cols})"
            )
        cols = ref._normalize_mask(col_mask, ref.cols)
        out = np.zeros((hit_rows.shape[0], ref.rows), dtype=np.float64)
        if hit_rows.shape[0] == 0 or cols.size == 0:
            return out
        # Only enabled rows yield a candidate: gather the engaged
        # weights at the hit entries, never a (q, rows, cols) tensor.
        query, rows = hit_entries(hit_rows)
        weights = self._weights[member_ids[query][:, None], rows[:, None], cols]
        out[query, rows] = (weights * inputs[query][:, cols]).sum(axis=1)
        op_rows, op_query = split_macs(
            np.bincount(query, minlength=hit_rows.shape[0]),
            ref.accumulate_limit,
        )
        self.hw.record_macs(
            self._slots[member_ids[op_query]], op_rows, int(cols.size)
        )
        return out
