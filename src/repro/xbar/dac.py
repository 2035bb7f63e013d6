"""Digital-to-analog converter model.

Each crossbar row input is driven through a small DAC (2-bit in
Table I). Full-precision inputs are streamed over multiple phases; the
MAC array shift-and-adds the per-phase partial sums. The model performs
the (lossless) code-to-level mapping and counts conversion events.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import ConfigError
from ..events import EventLog
from ..obs.hw import HwMonitor, attach


class DAC:
    """An n-bit DAC bank driving crossbar word lines.

    Conversions are charged to a new slot (bank ``"dac"``) of the
    counter board ``hw``, or of a private one-slot board when ``hw`` is
    None.
    """

    def __init__(self, bits: int = 2, hw: Optional[HwMonitor] = None) -> None:
        if bits <= 0:
            raise ConfigError("DAC resolution must be positive")
        self.bits = bits
        self.hw, self.slot = attach(hw, "dac")

    @property
    def events(self) -> EventLog:
        """The board's column sums (this converter's own events when
        the board is private)."""
        return self.hw.events()

    @property
    def levels(self) -> int:
        """Number of distinct output levels."""
        return 1 << self.bits

    def convert(self, codes: np.ndarray) -> np.ndarray:
        """Convert integer codes (one per driven row) to analog levels.

        Codes must already fit the DAC resolution; feeding wider values
        is a pipeline bug, so it raises instead of clipping silently.
        """
        codes = np.asarray(codes, dtype=np.int64)
        if codes.size and (codes.min() < 0 or codes.max() >= self.levels):
            raise ConfigError(
                f"DAC codes must be in [0, {self.levels}); stream wider "
                "inputs over multiple phases"
            )
        self.hw.add(self.slot, "dac_conversions", int(codes.size))
        return codes.astype(np.float64)

    def phases_for(self, input_bits: int) -> int:
        """Phases needed to stream an ``input_bits``-wide input."""
        return -(-input_bits // self.bits)
