"""Per-array hardware performance counters and energy attribution.

:class:`~repro.events.EventLog` aggregates one global total per event
kind, which is exactly right for validating engines against each other
— and exactly wrong for asking *which* crossbar was hot, which arrays
sat idle through a superstep, and where ADC saturation concentrated.
An :class:`HwMonitor` answers those questions: it is a dense counter
board, one row per physical array and one column per
:data:`HW_COUNTERS` event kind, plus a per-array histogram of rows
engaged per MAC operation.

The board is the **only** place array events are counted. Every array
model in :mod:`repro.xbar` owns a slot on a board (a private one-slot
board when it is built without one) and charges its events to that
row and nothing else. An array's ``events`` — and each
:class:`~repro.core.micro.MicroGaaSX` run's array-side
:class:`~repro.events.EventLog` — is read back off the board as column
sums, so per-array counters sum to the global totals by construction;
:func:`check_parity` states the identity for a report.

Design constraints, in order:

* **One count per event.** A MAC is chunked once, at the array's own
  accumulation limit, by the array that runs it; the board records
  the resulting operations as given.
* **Vectorized attribution on the gang paths.** The
  :class:`~repro.xbar.cam_array.CamBank` /
  :class:`~repro.xbar.mac_array.MacBank` fast paths resolve a whole
  superstep in one call; their per-member charges are ``bincount``
  scatters onto the board, not a Python loop per query.
* **The same event vocabulary.** Counter names are the
  :class:`~repro.events.EventLog` field names (the array-attributable
  subset in :data:`HW_COUNTERS`), so joining with the
  :class:`~repro.energy.ledger.EnergyLedger` constants and the
  five-phase controller mapping needs no translation table.

On top of the board sit the reporting joins: per-array occupancy
histograms at the MAC accumulation bound (the 16-row / 6-bit-ADC limit
of Table I, read from the registered MAC arrays), superstep-binned
utilization timelines (:meth:`HwMonitor.end_step`, driven by
:class:`~repro.core.micro.MicroGaaSX`), per-array/per-phase energy
attribution priced with :class:`~repro.config.TechnologyParams`, and
publication as per-bank-labelled OpenMetrics counters
(:func:`publish_counters` → ``repro_hw_<counter>_total{bank=...,
array=...}``). The ``repro hw-report`` CLI renders all of it.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..config import ArchConfig, TechnologyParams
from ..errors import ConfigError
from ..events import EventLog, hists_equal
from .context import current_trace_id

#: Array-attributable event counters, in :class:`~repro.events.EventLog`
#: vocabulary; one board column each, in this order. SFU ops and buffer
#: accesses are deliberately absent: the scalar pipeline and SRAM
#: buffers are shared units, not per-array hardware, so the engines
#: count them themselves.
HW_COUNTERS = (
    "cam_searches",
    "cam_row_writes",
    "cam_cell_writes",
    "mac_ops",
    "mac_rows_accumulated",
    "mac_cell_ops",
    "row_writes",
    "cell_writes",
    "adc_conversions",
    "adc_saturations",
    "dac_conversions",
)

_COLUMN = {name: i for i, name in enumerate(HW_COUNTERS)}

#: Board columns one MAC operation charges, in :meth:`HwMonitor.
#: record_macs` order: the op, its rows, rows x cols cell multiplies,
#: one DAC activation per row, one ADC sample per engaged column.
_MAC_COLUMNS = [
    _COLUMN[name]
    for name in (
        "mac_ops",
        "mac_rows_accumulated",
        "mac_cell_ops",
        "dac_conversions",
        "adc_conversions",
    )
]

#: Occupancy bound of a board with no MAC array registered (Table I).
_DEFAULT_LIMIT = ArchConfig().mac_accumulate_limit

#: Where a charge lands: one slot, or one slot per charged item.
Slots = Union[int, np.ndarray]


def attach(
    hw: Optional["HwMonitor"],
    bank: str,
    accumulate_limit: int = 0,
    slot: Optional[int] = None,
) -> Tuple["HwMonitor", int]:
    """``(board, slot)`` for a new array model in ``bank``.

    ``slot`` of ``hw`` when given (a converter charging its array's
    slot); otherwise a new slot on ``hw``, or on a private one-slot
    board when ``hw`` is None — every array counts on some board.
    """
    if slot is not None:
        return hw, slot
    board = hw if hw is not None else HwMonitor()
    return board, board.register(bank, accumulate_limit=accumulate_limit)

#: The five-phase mapping used for per-array energy attribution —
#: mirrors :func:`repro.core.controller.build_plan`: loading owns the
#: programming energy, CAM search the search energy, MAC the analog
#: compute plus both converters. Initialization and the (shared) SFU
#: phase carry no array-attributable energy.
PHASE_ENERGY_CATEGORIES = {
    "Data loading": ("write_j",),
    "CAM search": ("cam_j",),
    "MAC operation": ("mac_j", "adc_j", "dac_j"),
}


class HwMonitor:
    """A dense per-array hardware counter board.

    An ``int64`` matrix of arrays x :data:`HW_COUNTERS` plus a per-array
    rows-engaged histogram. Arrays :meth:`register` a slot and charge
    it through :meth:`add` and :meth:`record_macs`; everything else
    reads the board.

    A monitor may observe any number of runs: each
    :class:`~repro.core.micro.MicroGaaSX` run reads its own
    :class:`~repro.events.EventLog` as the board's delta over the run
    (:meth:`snapshot` / :meth:`events`), so reusing a monitor never
    mixes two runs' logs. The monitor stamps the ambient
    :func:`repro.obs.context.current_trace_id` at creation so a report
    generated inside a traced request carries the request's identity.
    """

    def __init__(self) -> None:
        self.trace_id: Optional[str] = current_trace_id()
        self._n = 0
        self._limit = 0
        capacity = 8
        self._banks: List[str] = []
        self._indices: List[int] = []
        self._bank_sizes: Dict[str, int] = {}
        self._counts = np.zeros((capacity, len(HW_COUNTERS)), dtype=np.int64)
        #: per-slot occupancy histogram: column r = MAC ops engaging
        #: exactly r rows.
        self._hist = np.zeros((capacity, 1), dtype=np.int64)
        #: superstep timeline: per-step per-slot operation deltas.
        self._steps: List[Dict[str, Any]] = []
        self._step_base = np.zeros(capacity, dtype=np.int64)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, bank: str, accumulate_limit: int = 0) -> int:
        """Allocate a board row for one array; returns its slot.

        ``bank`` labels the gang the array belongs to (``"cam"`` /
        ``"mac"`` in the micro engine); the array's index within the
        bank is its per-bank registration order. MAC arrays pass their
        ``accumulate_limit``: the board's occupancy bound is the largest
        one registered.
        """
        return int(self.register_many([bank], accumulate_limit)[0])

    def register_many(
        self, banks: Sequence[str], accumulate_limit: int = 0
    ) -> np.ndarray:
        """Allocate one board row per entry of ``banks``, in order;
        returns their slots.

        The same as calling :meth:`register` once per entry, without
        the per-call overhead; ``accumulate_limit`` is the bound of the
        MAC arrays among them.
        """
        first = self._n
        while first + len(banks) > self._counts.shape[0]:
            self._grow_slots()
        sizes = self._bank_sizes
        for bank in banks:
            index = sizes.get(bank, 0)
            sizes[bank] = index + 1
            self._banks.append(str(bank))
            self._indices.append(index)
        self._n += len(banks)
        if accumulate_limit:
            self._limit = max(self._limit, int(accumulate_limit))
            self._grow_hist_width(self._limit + 1)
        return np.arange(first, self._n, dtype=np.int64)

    def _grow_slots(self) -> None:
        capacity = 2 * self._counts.shape[0]
        self._counts = _grown(self._counts, capacity, axis=0)
        self._hist = _grown(self._hist, capacity, axis=0)
        self._step_base = _grown(self._step_base, capacity, axis=0)

    def _grow_hist_width(self, width: int) -> None:
        if width > self._hist.shape[1]:
            self._hist = _grown(self._hist, width, axis=1)

    @property
    def num_arrays(self) -> int:
        """Registered array count."""
        return self._n

    @property
    def accumulate_limit(self) -> int:
        """The MAC accumulation bound occupancy is binned against.

        The largest bound among the registered MAC arrays (16 rows in
        Table I — the 6-bit ADC sizing argument), or Table I's 16 when
        no MAC array is registered.
        """
        return self._limit or _DEFAULT_LIMIT

    # ------------------------------------------------------------------
    # Charging (called by the array models)
    # ------------------------------------------------------------------
    def add(self, slots: Slots, name: str, amount: int) -> None:
        """Charge ``amount`` of counter ``name`` to ``slots``.

        ``slots`` is one slot, or an integer array of slots that may
        repeat (several gang queries routed to one member): each entry
        is charged ``amount``.
        """
        column = _COLUMN[name]
        if isinstance(slots, np.ndarray):
            n = self._n
            self._counts[:n, column] += amount * np.bincount(
                slots, minlength=n
            )
        else:
            self._counts[slots, column] += amount

    def record_macs(
        self, slots: Slots, rows: Sequence[int], cols: int
    ) -> None:
        """Charge MAC operations: op ``i`` sums ``rows[i]`` word lines
        over ``cols`` engaged bit lines.

        ``slots`` is the one slot every op ran on, or an integer array
        with one slot per op. Each op charges one ``mac_ops``, its rows
        (also its DAC activations), ``rows x cols`` cell multiplies,
        ``cols`` ADC samples, and one entry in its array's rows
        histogram. The caller has already chunked its MACs at the
        array's limit.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size == 0:
            return
        self._grow_hist_width(int(rows.max()) + 1)
        width = self._hist.shape[1]
        if isinstance(slots, np.ndarray):
            n = self._n
            ops = np.bincount(slots, minlength=n)
            total = np.bincount(slots, weights=rows, minlength=n).astype(
                np.int64
            )
            self._hist[:n] += np.bincount(
                slots * width + rows, minlength=n * width
            ).reshape(n, width)
            self._counts[:n, _MAC_COLUMNS] += np.stack(
                [ops, total, total * cols, total, ops * cols], axis=1
            )
        else:
            ops, total = rows.size, int(rows.sum())
            self._hist[slots] += np.bincount(rows, minlength=width)
            self._counts[slots, _MAC_COLUMNS] += (
                ops, total, total * cols, total, ops * cols
            )

    # ------------------------------------------------------------------
    # Reading events back
    # ------------------------------------------------------------------
    def snapshot(self) -> Tuple[np.ndarray, np.ndarray]:
        """Board-wide column sums and summed histogram, now — the
        ``since`` mark for :meth:`events`."""
        n = self._n
        return self._counts[:n].sum(axis=0), self._hist[:n].sum(axis=0)

    def events(
        self, since: Optional[Tuple[np.ndarray, np.ndarray]] = None
    ) -> EventLog:
        """The board's column sums as an :class:`~repro.events.EventLog`.

        With ``since`` (a :meth:`snapshot`), only what was charged after
        the mark. Counters outside :data:`HW_COUNTERS` stay zero.
        """
        totals, hist = self.snapshot()
        if since is not None:
            totals = totals - since[0]
            hist[: since[1].size] -= since[1]
        log = EventLog(
            **{name: int(value) for name, value in zip(HW_COUNTERS, totals)}
        )
        log.mac_rows_hist = hist
        return log

    # ------------------------------------------------------------------
    # Superstep timeline
    # ------------------------------------------------------------------
    def _ops_cursor(self) -> np.ndarray:
        n = self._n
        return (
            self._counts[:n, _COLUMN["cam_searches"]]
            + self._counts[:n, _COLUMN["mac_ops"]]
        )

    def end_step(self, label: Optional[str] = None) -> Dict[str, Any]:
        """Close one superstep bin; returns (and records) its row.

        The engine calls this at each superstep / iteration boundary;
        the row holds the per-array operation deltas (CAM searches +
        MAC ops) since the previous boundary, plus the fraction of
        arrays that did any work at all — the utilization-timeline
        signal a mapping optimizer trains against.
        """
        cursor = self._ops_cursor()
        delta = cursor - self._step_base[: self._n]
        self._step_base[: self._n] = cursor
        row = {
            "step": len(self._steps),
            "label": label if label is not None else str(len(self._steps)),
            "ops": delta.tolist(),
            "total_ops": int(delta.sum()),
            "active_arrays": int((delta > 0).sum()),
            "active_frac": (
                float((delta > 0).mean()) if delta.size else 0.0
            ),
        }
        self._steps.append(row)
        return row

    @property
    def timeline(self) -> List[Dict[str, Any]]:
        """The recorded superstep bins, in order."""
        return list(self._steps)

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def counts(self, name: str) -> np.ndarray:
        """Per-array values of one counter (copy, length
        :attr:`num_arrays`)."""
        if name not in _COLUMN:
            raise ConfigError(
                f"unknown hw counter {name!r}; known: {list(HW_COUNTERS)}"
            )
        return self._counts[: self._n, _COLUMN[name]].copy()

    def totals(self) -> Dict[str, int]:
        """Each counter summed over every array."""
        totals, _hist = self.snapshot()
        return {name: int(v) for name, v in zip(HW_COUNTERS, totals)}

    def rows_hist(self) -> np.ndarray:
        """Occupancy histograms, shape ``(num_arrays, width)``."""
        return self._hist[: self._n].copy()

    def occupancy(self) -> List[Dict[str, float]]:
        """Per-array row-utilization stats at the accumulation bound.

        Same definitions as
        :meth:`repro.events.EventLog.rows_occupancy`: mean engaged rows,
        the fraction of the window used, and the fraction of full
        (at-limit) operations. Arrays with no MAC ops report zeros.
        """
        limit = self.accumulate_limit
        hist = self._hist[: self._n]
        totals = hist.sum(axis=1)
        weights = np.arange(hist.shape[1], dtype=np.int64)
        rows = (hist * weights).sum(axis=1)
        out = []
        for i in range(self._n):
            total = int(totals[i])
            mean_rows = rows[i] / total if total else 0.0
            full = int(hist[i, limit:].sum()) if limit < hist.shape[1] else 0
            out.append(
                {
                    "mean_rows": float(mean_rows),
                    "occupancy": float(mean_rows / limit),
                    "full_frac": float(full / total) if total else 0.0,
                }
            )
        return out

    def labels(self) -> List[Dict[str, str]]:
        """Per-slot ``{"bank": ..., "array": ...}`` label sets."""
        return [
            {"bank": self._banks[i], "array": str(self._indices[i])}
            for i in range(self._n)
        ]

    # ------------------------------------------------------------------
    # Energy attribution
    # ------------------------------------------------------------------
    def energy(self, tech=None) -> List[Dict[str, float]]:
        """Per-array energy attribution in joules.

        Prices each array's counters with the same
        :class:`~repro.config.TechnologyParams` constants the
        :class:`~repro.energy.ledger.EnergyLedger` uses, split into the
        ledger's dynamic categories plus the five-phase roll-up of
        :data:`PHASE_ENERGY_CATEGORIES`. Static power and the shared
        SFU/buffer energies are whole-chip costs and excluded; summing
        any category over all arrays reproduces the ledger's figure for
        that category exactly.
        """
        if tech is None:
            tech = TechnologyParams()
        n = self._n
        c = {name: self._counts[:n, _COLUMN[name]] for name in HW_COUNTERS}
        cam_j = c["cam_searches"] * tech.cam_search_energy_j
        mac_j = c["mac_ops"] * tech.mac_energy_j
        write_j = (
            c["cell_writes"] * tech.write_cell_energy_j
            + c["cam_cell_writes"] * tech.cam_cell_write_energy_j
        )
        adc_j = c["adc_conversions"] * tech.adc_energy_j
        dac_j = c["dac_conversions"] * tech.dac_energy_j
        out = []
        for i in range(n):
            categories = {
                "cam_j": float(cam_j[i]),
                "mac_j": float(mac_j[i]),
                "write_j": float(write_j[i]),
                "adc_j": float(adc_j[i]),
                "dac_j": float(dac_j[i]),
            }
            phases = {
                phase: float(
                    sum(categories[cat] for cat in cats)
                )
                for phase, cats in PHASE_ENERGY_CATEGORIES.items()
            }
            categories["total_j"] = float(sum(phases.values()))
            categories["phases"] = phases
            out.append(categories)
        return out


def _grown(array: np.ndarray, size: int, axis: int) -> np.ndarray:
    """``array`` zero-padded to ``size`` along ``axis``."""
    shape = list(array.shape)
    shape[axis] = size
    out = np.zeros(shape, dtype=array.dtype)
    out[tuple(slice(0, extent) for extent in array.shape)] = array
    return out


# ----------------------------------------------------------------------
# Parity: per-array sums vs the run's global EventLog
# ----------------------------------------------------------------------
def check_parity(monitor: HwMonitor, events) -> Dict[str, Any]:
    """Compare the board's totals with a run's global EventLog.

    Every :data:`HW_COUNTERS` sum — and the occupancy histogram — is
    checked against ``events``. A board that observed several runs
    matches their merged log. Returns ``{"ok": bool, "mismatches":
    {counter: {"hw": ..., "events": ...}}}``.
    """
    totals = monitor.totals()
    mismatches: Dict[str, Any] = {}
    event_counts = events.as_dict()
    for name in HW_COUNTERS:
        if totals[name] != int(event_counts.get(name, 0)):
            mismatches[name] = {
                "hw": totals[name],
                "events": int(event_counts.get(name, 0)),
            }
    hw_hist = monitor.rows_hist().sum(axis=0)
    if not hists_equal(hw_hist, events.mac_rows_hist):
        mismatches["mac_rows_hist"] = {
            "hw": hw_hist.tolist(),
            "events": events.mac_rows_hist.tolist(),
        }
    return {"ok": not mismatches, "mismatches": mismatches}


# ----------------------------------------------------------------------
# Report assembly
# ----------------------------------------------------------------------
def utilization_summary(monitor: HwMonitor) -> Dict[str, Any]:
    """Load-balance statistics over the per-array operation counts.

    ``imbalance`` is max-over-mean of per-array operations (1.0 =
    perfectly balanced; the AutoGMap-style objective), ``active_frac``
    the fraction of arrays that did any work, ``cv`` the coefficient of
    variation.
    """
    n = monitor.num_arrays
    ops = (
        monitor.counts("cam_searches") + monitor.counts("mac_ops")
        if n
        else np.zeros(0, dtype=np.int64)
    )
    total = int(ops.sum())
    if n == 0 or total == 0:
        return {
            "arrays": n,
            "total_ops": total,
            "imbalance": 0.0,
            "active_frac": 0.0,
            "cv": 0.0,
            "busiest": None,
        }
    mean = total / n
    return {
        "arrays": n,
        "total_ops": total,
        "imbalance": float(ops.max() / mean),
        "active_frac": float((ops > 0).mean()),
        "cv": float(ops.std() / mean),
        "busiest": int(ops.argmax()),
    }


def build_report(
    monitor: HwMonitor, events=None, tech=None
) -> Dict[str, Any]:
    """The full hw-counter report as one JSON-serializable dict.

    Per-array rows (labels, counters, occupancy, energy), the
    utilization summary, the superstep timeline, the counter totals,
    and — when the run's ``events`` log is supplied — the parity
    verdict.
    """
    labels = monitor.labels()
    occupancy = monitor.occupancy()
    energy = monitor.energy(tech)
    arrays = []
    for i in range(monitor.num_arrays):
        arrays.append(
            {
                **labels[i],
                "counters": {
                    name: int(monitor.counts(name)[i])
                    for name in HW_COUNTERS
                },
                "occupancy": occupancy[i],
                "energy": energy[i],
                "rows_hist": monitor.rows_hist()[i].tolist(),
            }
        )
    report: Dict[str, Any] = {
        "accumulate_limit": monitor.accumulate_limit,
        "trace_id": monitor.trace_id,
        "arrays": arrays,
        "totals": monitor.totals(),
        "utilization": utilization_summary(monitor),
        "timeline": monitor.timeline,
    }
    if events is not None:
        report["parity"] = check_parity(monitor, events)
    return report


#: Shade ramp for the occupancy heatmap, sparse to dense.
_HEAT = " .:-=+*#%@"


def _heat_char(value: float) -> str:
    index = min(int(value * len(_HEAT)), len(_HEAT) - 1)
    return _HEAT[index]


def render_report(report: Dict[str, Any]) -> str:
    """The ``repro hw-report`` text rendering.

    An occupancy heatmap (one row per array, one column per
    rows-engaged bin, shaded by that bin's share of the array's MAC
    ops), the per-array utilization/energy table, the imbalance
    summary, and the parity verdict.
    """
    limit = int(report["accumulate_limit"])
    arrays = report["arrays"]
    lines: List[str] = []
    lines.append(
        f"occupancy heatmap (rows engaged per MAC op, bound={limit}; "
        f"shade = share of the array's ops)"
    )
    lines.append(f"{'array':<10} 1{'':{max(limit - 2, 0)}}{limit}")
    for entry in arrays:
        hist = np.asarray(entry["rows_hist"], dtype=np.float64)
        total = hist.sum()
        width = max(hist.size, limit + 1)
        padded = np.zeros(width)
        padded[: hist.size] = hist
        shares = padded / total if total else padded
        cells = "".join(_heat_char(s) for s in shares[1 : limit + 1])
        label = f"{entry['bank']}/{entry['array']}"
        lines.append(f"{label:<10} {cells}")
    lines.append("")
    header = (
        f"{'array':<10} {'searches':>10} {'mac ops':>9} {'rows':>9} "
        f"{'adc':>9} {'sat':>6} {'occup':>7} {'full':>6} {'energy':>11}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for entry in arrays:
        c = entry["counters"]
        occ = entry["occupancy"]
        label = f"{entry['bank']}/{entry['array']}"
        lines.append(
            f"{label:<10} {c['cam_searches']:>10,} {c['mac_ops']:>9,} "
            f"{c['mac_rows_accumulated']:>9,} {c['adc_conversions']:>9,} "
            f"{c['adc_saturations']:>6,} {occ['occupancy']:>7.1%} "
            f"{occ['full_frac']:>6.1%} "
            f"{entry['energy']['total_j'] * 1e9:>9.2f}nJ"
        )
    util = report["utilization"]
    lines.append("")
    lines.append(
        f"{util['arrays']} arrays, {util['total_ops']:,} ops: "
        f"imbalance={util['imbalance']:.2f}x (max/mean), "
        f"active={util['active_frac']:.1%}, cv={util['cv']:.2f}"
    )
    timeline = report.get("timeline") or []
    if timeline:
        active = [row["active_frac"] for row in timeline]
        lines.append(
            f"timeline: {len(timeline)} steps, mean active "
            f"{sum(active) / len(active):.1%}, "
            f"sparkline |{''.join(_heat_char(a) for a in active)}|"
        )
    parity = report.get("parity")
    if parity is not None:
        if parity["ok"]:
            lines.append(
                "parity: ok (per-array sums equal the global EventLog)"
            )
        else:
            lines.append(
                f"parity: FAILED on {sorted(parity['mismatches'])}"
            )
    if report.get("trace_id"):
        lines.append(f"trace: {report['trace_id']}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Metrics publication
# ----------------------------------------------------------------------
def publish_counters(monitor: HwMonitor, registry=None) -> None:
    """Fold the board into per-bank-labelled ``hw.*`` counters.

    Each :data:`HW_COUNTERS` name becomes one labelled counter family
    ``hw.<name>`` with ``(bank, array)`` label sets, rendered by
    :mod:`repro.obs.export` as
    ``repro_hw_<name>_total{bank="...",array="..."}``. Counters are
    cumulative: publish a monitor once, at end of run.
    """
    if registry is None:
        from .metrics import get_metrics

        registry = get_metrics()
    labels = monitor.labels()
    for name in HW_COUNTERS:
        values = monitor.counts(name)
        if not values.any():
            continue
        family = registry.labeled_counter(
            f"hw.{name}", labelnames=("bank", "array")
        )
        for i, value in enumerate(values):
            if value:
                family.inc(int(value), **labels[i])
