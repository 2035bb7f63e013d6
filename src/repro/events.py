"""Hardware event accounting.

Every model in this repository — the array-level crossbar simulators,
the vectorized GaaS-X engine, and the GraphR baseline — reports its work
as an :class:`EventLog`: how many CAM searches, MAC operations, cell
writes, converter activations, SFU scalar operations and buffer accesses
occurred. The energy ledger (:mod:`repro.energy.ledger`) later prices
these events; engines separately compute latency from their parallelism
model.

Keeping the event vocabulary in one place is what allows the test suite
to assert that the scalable vectorized engine and the slow-but-honest
array-level simulator count *exactly* the same events on small graphs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np


@dataclass
class EventLog:
    """Cumulative counts of hardware events.

    Attributes
    ----------
    cam_searches:
        CAM search operations (one broadcast over one crossbar).
    mac_ops:
        Analog MAC operations (one selective accumulate on one
        crossbar's bit-line set).
    mac_rows_accumulated:
        Total rows summed across all MAC ops; with ``mac_ops`` this
        gives the average, and :attr:`mac_rows_hist` the distribution
        (Figure 13).
    mac_cell_ops:
        Cell-level multiply events — rows engaged x columns engaged.
        This is the "computations" axis of Figure 5: a dense mapping
        engages every cell of a tile, a sparse mapping only real edges.
    cell_writes / row_writes:
        MAC-side ReRAM programming events, counted per physical cell
        (value cells x bit slices) and per row-level write pulse. These
        are the "writes" axis of Figure 5.
    cam_cell_writes / cam_row_writes:
        CAM-side programming events ((src, dst) pair loads; a TCAM bit
        is a complementary cell pair). Tracked separately so the
        dense-vs-sparse value-write comparison stays clean.
    adc_conversions / dac_conversions:
        Converter activations.
    adc_saturations:
        ADC samples whose analog input exceeded full scale and clipped
        to ``max_code``. Only the quantized array models digitize real
        values, so exact-mode runs keep this at zero.
    sfu_ops:
        Scalar special-function operations (min, add, mul, compare).
    buffer_reads / buffer_writes:
        On-chip SRAM buffer accesses (attribute/input/output buffers).
    """

    cam_searches: int = 0
    mac_ops: int = 0
    mac_rows_accumulated: int = 0
    mac_cell_ops: int = 0
    cell_writes: int = 0
    row_writes: int = 0
    cam_cell_writes: int = 0
    cam_row_writes: int = 0
    adc_conversions: int = 0
    adc_saturations: int = 0
    dac_conversions: int = 0
    sfu_ops: int = 0
    buffer_reads: int = 0
    buffer_writes: int = 0
    #: histogram of rows-accumulated per MAC op; index i = i rows.
    mac_rows_hist: np.ndarray = field(
        default_factory=lambda: np.zeros(1, dtype=np.int64)
    )

    # ------------------------------------------------------------------
    def record_mac(self, rows_accumulated: np.ndarray | int, cols: int = 1) -> None:
        """Record one or many MAC operations.

        ``rows_accumulated`` is the number of rows summed per operation
        (scalar or array of per-op counts); ``cols`` the number of value
        columns engaged by each of those operations.
        """
        rows = np.atleast_1d(np.asarray(rows_accumulated, dtype=np.int64))
        if rows.size == 0:
            return
        self.mac_ops += int(rows.size)
        total_rows = int(rows.sum())
        self.mac_rows_accumulated += total_rows
        self.mac_cell_ops += total_rows * int(cols)
        hist = np.bincount(rows)
        self._grow_hist(hist.size)
        self.mac_rows_hist[: hist.size] += hist

    def _grow_hist(self, size: int) -> None:
        if size > self.mac_rows_hist.size:
            grown = np.zeros(size, dtype=np.int64)
            grown[: self.mac_rows_hist.size] = self.mac_rows_hist
            self.mac_rows_hist = grown

    # ------------------------------------------------------------------
    def merge(self, other: "EventLog") -> "EventLog":
        """Accumulate ``other`` into this log (returns self)."""
        for name in COUNTERS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self._grow_hist(other.mac_rows_hist.size)
        self.mac_rows_hist[: other.mac_rows_hist.size] += other.mac_rows_hist
        return self

    def __iadd__(self, other: "EventLog") -> "EventLog":
        return self.merge(other)

    def scaled(self, factor: int) -> "EventLog":
        """Return a copy with every counter multiplied by ``factor``.

        Used when one accounted pass repeats identically (PageRank
        iterations process every destination every time).
        """
        if factor < 0:
            raise ValueError("scale factor must be non-negative")
        log = EventLog(**{k: v * factor for k, v in self.as_dict().items()})
        log.mac_rows_hist = self.mac_rows_hist * factor
        return log

    # ------------------------------------------------------------------
    def rows_hist_cdf(self) -> np.ndarray:
        """Cumulative fraction of MAC ops accumulating <= i rows.

        Index 0 corresponds to 0 rows (should stay empty in practice);
        this is the Figure 13 curve.
        """
        total = self.mac_rows_hist.sum()
        if total == 0:
            return np.zeros(self.mac_rows_hist.size)
        return np.cumsum(self.mac_rows_hist) / total

    def rows_occupancy(self, limit: int) -> dict:
        """Row-utilization statistics against an accumulation bound.

        ``limit`` is the architecture's MAC accumulation cap (16 rows
        in Table I — the ADC bound). Derived entirely from
        :attr:`mac_rows_hist` so merged and scaled logs stay
        consistent. Returns:

        * ``mean_rows`` — average rows engaged per MAC operation;
        * ``occupancy`` — ``mean_rows / limit``, the fraction of the
          accumulation window actually used;
        * ``full_frac`` — fraction of MAC ops engaging >= ``limit``
          rows (exactly ``limit`` when the engine enforces the cap);
        * ``cdf_at_limit`` — :meth:`rows_hist_cdf` evaluated at
          ``limit`` (1.0 whenever the cap is respected).

        An empty log yields all zeros.
        """
        if limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        hist = self.mac_rows_hist
        total = int(hist.sum())
        if total == 0:
            return {
                "mean_rows": 0.0,
                "occupancy": 0.0,
                "full_frac": 0.0,
                "cdf_at_limit": 0.0,
            }
        mean_rows = float(
            (np.arange(hist.size) * hist).sum() / total
        )
        full = int(hist[min(limit, hist.size):].sum())
        cdf = self.rows_hist_cdf()
        cdf_at_limit = float(cdf[limit]) if limit < cdf.size else 1.0
        return {
            "mean_rows": mean_rows,
            "occupancy": mean_rows / limit,
            "full_frac": full / total,
            "cdf_at_limit": cdf_at_limit,
        }

    def as_dict(self) -> dict:
        """Scalar counters as a plain dict (histogram excluded)."""
        return {name: getattr(self, name) for name in COUNTERS}

    def counters_equal(self, other: "EventLog") -> bool:
        """True when all scalar counters and histograms agree."""
        return self.as_dict() == other.as_dict() and hists_equal(
            self.mac_rows_hist, other.mac_rows_hist
        )

    def __repr__(self) -> str:
        parts = ", ".join(f"{k}={v}" for k, v in self.as_dict().items() if v)
        return f"EventLog({parts})"


#: The scalar counter names, in declaration order (the histogram is
#: handled separately by every method that walks the counters).
COUNTERS = tuple(
    f.name for f in fields(EventLog) if f.name != "mac_rows_hist"
)


def hists_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """True when two rows histograms agree once zero-padded to one width."""
    size = max(a.size, b.size)
    return bool(
        np.array_equal(
            np.pad(a, (0, size - a.size)), np.pad(b, (0, size - b.size))
        )
    )
