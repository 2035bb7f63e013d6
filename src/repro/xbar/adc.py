"""Analog-to-digital converter model.

The bit-line current of a MAC operation is sampled-and-held, then
digitized by a shared ADC (6-bit, 1.2 GSps in Table I). Restricting
each MAC to 16 accumulated rows is exactly what lets a 6-bit converter
cover the worst-case per-phase sum (16 rows x 3 max cell level x 1
input bit = 48 < 64), which the paper calls out in Section V-A.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import ConfigError
from ..events import EventLog
from ..obs.hw import HwMonitor, attach


class ADC:
    """An n-bit ADC digitizing sampled bit-line sums.

    Conversions are charged to slot ``slot`` of the counter board
    ``hw`` — the MAC array's own slot for the converter inside a
    :class:`~repro.xbar.mac_array.MacCrossbar`. Without a slot, the
    converter registers one (bank ``"adc"``) on ``hw``, or on a private
    one-slot board when ``hw`` is None.
    """

    def __init__(
        self,
        bits: int = 6,
        max_input: Optional[float] = None,
        hw: Optional[HwMonitor] = None,
        slot: Optional[int] = None,
    ) -> None:
        if bits <= 0:
            raise ConfigError("ADC resolution must be positive")
        self.bits = bits
        #: full-scale analog input mapped to the top code; defaults to
        #: the code range itself (integer-sum convention).
        self.max_input = float(max_input) if max_input is not None else float(self.max_code)
        if self.max_input <= 0:
            raise ConfigError("ADC full-scale input must be positive")
        self.hw, self.slot = attach(hw, "adc", slot=slot)

    @property
    def events(self) -> EventLog:
        """The board's column sums (this converter's own events when
        the board is private)."""
        return self.hw.events()

    @property
    def max_code(self) -> int:
        """Largest output code."""
        return (1 << self.bits) - 1

    def convert(self, analog: np.ndarray) -> np.ndarray:
        """Digitize analog values: scale to codes, round, clip.

        Samples landing above full scale clip to :attr:`max_code` and
        count as ``adc_saturations`` — the signal the 16-row MAC bound
        exists to keep at zero (Section V-A).
        """
        analog = np.asarray(analog, dtype=np.float64)
        codes = np.rint(analog * (self.max_code / self.max_input))
        clipped = int(np.count_nonzero(codes > self.max_code))
        self.hw.add(self.slot, "adc_conversions", int(analog.size))
        self.hw.add(self.slot, "adc_saturations", clipped)
        return np.clip(codes, 0, self.max_code).astype(np.int64)

    def saturates(self, analog_value: float) -> bool:
        """True when the value exceeds the converter's full scale."""
        return analog_value > self.max_input
