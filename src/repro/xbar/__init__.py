"""Array-level crossbar hardware models.

These classes really perform the operations GaaS-X builds on — ternary
CAM searches over stored bit patterns, selective analog multiply-
accumulate with bit-sliced ReRAM cells, DAC/ADC conversion — one array
at a time, charging every hardware event to the array's slot on a
per-array counter board (:class:`repro.obs.hw.HwMonitor`). They are
the ground truth the vectorized engine (:mod:`repro.core`) is
validated against.
"""

from .adc import ADC
from .cam_array import CamCrossbar, EdgeCam
from .cells import FixedPointFormat, slice_values, unslice_values
from .dac import DAC
from .mac_array import MacCrossbar

__all__ = [
    "ADC",
    "DAC",
    "CamCrossbar",
    "EdgeCam",
    "MacCrossbar",
    "FixedPointFormat",
    "slice_values",
    "unslice_values",
]
