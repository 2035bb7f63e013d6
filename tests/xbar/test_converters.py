"""Unit tests for the DAC and ADC models."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.obs.hw import HwMonitor
from repro.xbar import ADC, DAC


class TestDAC:
    def test_levels(self):
        assert DAC(2).levels == 4

    def test_convert_passthrough(self):
        dac = DAC(2)
        out = dac.convert(np.array([0, 1, 3]))
        assert np.array_equal(out, [0.0, 1.0, 3.0])

    def test_counts_conversions(self):
        dac = DAC(2)
        dac.convert(np.array([0, 1, 2]))
        assert dac.events.dac_conversions == 3

    def test_rejects_wide_codes(self):
        with pytest.raises(ConfigError):
            DAC(2).convert(np.array([4]))

    def test_rejects_negative_codes(self):
        with pytest.raises(ConfigError):
            DAC(2).convert(np.array([-1]))

    def test_phases_for(self):
        dac = DAC(2)
        assert dac.phases_for(16) == 8
        assert dac.phases_for(3) == 2

    def test_rejects_zero_bits(self):
        with pytest.raises(ConfigError):
            DAC(0)


class TestADC:
    def test_max_code(self):
        assert ADC(6).max_code == 63

    def test_integer_sums_lossless_at_default_scale(self):
        """Default full-scale = max code, so integer bit-line sums up to
        63 digitize exactly — the property the 16-row MAC limit buys."""
        adc = ADC(6)
        sums = np.arange(64)
        assert np.array_equal(adc.convert(sums.astype(float)), sums)

    def test_clips_at_full_scale(self):
        adc = ADC(6)
        assert adc.convert(np.array([100.0]))[0] == 63

    def test_saturates_predicate(self):
        adc = ADC(6)
        assert adc.saturates(64.0)
        assert not adc.saturates(48.0)

    def test_worst_case_16_row_sum_fits_6_bits(self):
        """16 rows x max 2-bit cell (3) x 1 input bit = 48 < 64
        (Section V-A's sizing argument)."""
        assert not ADC(6).saturates(16 * 3 * 1)

    def test_custom_full_scale_quantizes(self):
        adc = ADC(2, max_input=1.0)
        assert adc.convert(np.array([0.5]))[0] == 2  # 0.5*3 = 1.5 -> 2

    def test_counts_conversions(self):
        adc = ADC(6)
        adc.convert(np.zeros(5))
        assert adc.events.adc_conversions == 5

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigError):
            ADC(0)
        with pytest.raises(ConfigError):
            ADC(6, max_input=-1.0)


class TestADCSaturation:
    """Clipping at ``max_code`` is counted, not silent."""

    def test_convert_counts_clipped_samples(self):
        adc = ADC(6)
        out = adc.convert(np.array([100.0, 32.0, 64.0]))
        # Two samples above full scale clip to the max code.
        assert adc.events.adc_saturations == 2
        assert out.tolist() == [63, 32, 63]

    def test_no_saturation_within_range(self):
        adc = ADC(6)
        adc.convert(np.arange(64, dtype=float))
        assert adc.events.adc_saturations == 0

    def test_clipped_codes_never_exceed_max_code(self):
        adc = ADC(4)
        out = adc.convert(np.array([1e9, -5.0, 7.0]))
        assert out.max() <= adc.max_code
        assert out.min() >= 0

    def test_saturates_agrees_with_convert_counting(self):
        adc = ADC(6)
        for value in (0.0, 48.0, 63.0, 63.6, 64.0, 500.0):
            before = adc.events.adc_saturations
            adc.convert(np.array([value]))
            clipped = adc.events.adc_saturations - before
            assert bool(clipped) == adc.saturates(value), value

    def test_hw_mirror_counts_saturations(self):
        # A converter sharing an array's slot charges that slot.
        monitor = HwMonitor()
        monitor.register("cam")
        slot = monitor.register("mac")
        adc = ADC(6, hw=monitor, slot=slot)
        adc.convert(np.array([100.0, 1.0]))
        assert monitor.counts("adc_conversions").tolist() == [0, 2]
        assert monitor.counts("adc_saturations").tolist() == [0, 1]
