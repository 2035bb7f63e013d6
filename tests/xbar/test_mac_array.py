"""Unit tests for the MAC crossbar (exact and quantized modes)."""

import numpy as np
import pytest

from repro.errors import CapacityError, ConfigError
from repro.xbar import FixedPointFormat, MacCrossbar


def make(rows=8, cols=4, **kwargs):
    return MacCrossbar(rows=rows, cols=cols, **kwargs)


class TestProgramming:
    def test_scattered_write(self):
        mac = make()
        mac.write(np.array([0, 2]), np.array([1, 3]), np.array([2.0, 5.0]))
        stored = mac.stored_values()
        assert stored[0, 1] == 2.0
        assert stored[2, 3] == 5.0

    def test_write_counts(self):
        mac = make()
        mac.write(np.array([0, 0, 1]), np.array([0, 1, 0]), np.ones(3))
        events = mac.events
        assert events.row_writes == 2  # two distinct rows
        assert events.cell_writes == 3 * mac.bit_slices

    def test_write_rows(self):
        mac = make()
        mac.write_rows(np.array([1, 3]), np.ones((2, 4)))
        events = mac.events
        assert events.row_writes == 2
        assert events.cell_writes == 8 * mac.bit_slices
        assert np.array_equal(mac.stored_values()[1], np.ones(4))

    def test_write_bounds_checked(self):
        with pytest.raises(CapacityError):
            make().write(np.array([9]), np.array([0]), np.array([1.0]))
        with pytest.raises(CapacityError):
            make().write_rows(np.array([9]), np.ones((1, 4)))

    def test_write_shape_checked(self):
        with pytest.raises(ConfigError):
            make().write(np.array([0, 1]), np.array([0]), np.array([1.0]))
        with pytest.raises(ConfigError):
            make().write_rows(np.array([0]), np.ones((1, 3)))

    def test_preset_no_events(self):
        mac = make()
        mac.preset(np.ones((8, 4)))
        events = mac.events
        assert events.row_writes == 0
        assert events.cell_writes == 0
        assert mac.stored_values()[5, 2] == 1.0

    def test_preset_shape_checked(self):
        with pytest.raises(ConfigError):
            make().preset(np.ones((2, 2)))


class TestExactMac:
    def test_full_dot_product(self):
        mac = make()
        weights = np.arange(32, dtype=float).reshape(8, 4)
        mac.write_rows(np.arange(8), weights)
        x = np.linspace(0, 1, 8)
        assert np.allclose(mac.mac(x), x @ weights)

    def test_selective_rows(self):
        mac = make()
        mac.write(np.arange(4), np.zeros(4, dtype=int), np.array([1.0, 2.0, 4.0, 8.0]))
        mask = np.zeros(8, dtype=bool)
        mask[[1, 3]] = True
        out = mac.mac(np.ones(8), row_mask=mask)
        assert out[0] == 10.0

    def test_selective_columns(self):
        mac = make()
        mac.write_rows(np.arange(8), np.tile(np.arange(4.0), (8, 1)))
        out = mac.mac(np.ones(8), col_mask=np.array([2]))
        assert out[2] == 16.0
        assert out[0] == 0.0  # unengaged column stays zero

    def test_empty_mask_returns_zeros_no_events(self):
        mac = make()
        out = mac.mac(np.ones(8), row_mask=np.zeros(8, dtype=bool))
        assert np.array_equal(out, np.zeros(4))
        assert mac.events.mac_ops == 0

    def test_accumulate_limit_splits_ops(self):
        mac = make(rows=40, accumulate_limit=16)
        mac.write(np.arange(40), np.zeros(40, dtype=int), np.ones(40))
        mac.mac(np.ones(40), row_mask=np.arange(40))
        events = mac.events
        assert events.mac_ops == 3  # 16 + 16 + 8
        assert events.mac_rows_hist[16] == 2
        assert events.mac_rows_hist[8] == 1

    def test_events_per_op(self):
        mac = make()
        mac.mac(np.ones(8), row_mask=np.array([0, 1, 2]), col_mask=np.array([0, 1]))
        events = mac.events
        assert events.mac_ops == 1
        assert events.dac_conversions == 3
        assert events.adc_conversions == 2
        assert events.mac_cell_ops == 6

    def test_input_length_checked(self):
        with pytest.raises(ConfigError):
            make().mac(np.ones(5))

    def test_bad_mask_rejected(self):
        with pytest.raises(ConfigError):
            make().mac(np.ones(8), row_mask=np.array([99]))
        with pytest.raises(ConfigError):
            make().mac(np.ones(8), row_mask=np.zeros(5, dtype=bool))


class TestTransposedAndRowwise:
    def test_transposed_matches_matmul(self):
        mac = make()
        weights = np.arange(32, dtype=float).reshape(8, 4)
        mac.write_rows(np.arange(8), weights)
        x = np.array([1.0, 0.5, 2.0, -1.0])
        assert np.allclose(mac.mac_transposed(x), weights @ x)

    def test_transposed_selective(self):
        mac = make()
        weights = np.ones((8, 4))
        mac.write_rows(np.arange(8), weights)
        out = mac.mac_transposed(
            np.ones(4), col_mask=np.array([0, 1]), row_mask=np.array([3])
        )
        assert out[3] == 2.0
        assert out[0] == 0.0

    def test_rowwise_candidates(self):
        """The SSSP shape: out[r] = w[r]*1 + 1*dist (Figure 9b)."""
        mac = make()
        mac.write(np.arange(3), np.zeros(3, dtype=int), np.array([5.0, 2.0, 7.0]))
        ones = mac.stored_values()
        ones[:, 1] = 1.0
        mac.preset(ones)
        inputs = np.zeros(4)
        inputs[0] = 1.0
        inputs[1] = 10.0  # dist(u)
        out = mac.mac_rowwise(
            inputs, row_mask=np.array([0, 2]), col_mask=np.array([0, 1])
        )
        assert out[0] == 15.0
        assert out[2] == 17.0
        assert out[1] == 0.0

    def test_rowwise_event_convention(self):
        mac = make()
        mac.mac_rowwise(
            np.ones(4), row_mask=np.array([0, 1, 2]), col_mask=np.array([0, 1])
        )
        events = mac.events
        assert events.mac_ops == 1
        assert events.mac_rows_hist[3] == 1
        assert events.adc_conversions == 2
        assert events.mac_cell_ops == 6

    def test_rowwise_input_length_checked(self):
        with pytest.raises(ConfigError):
            make().mac_rowwise(np.ones(8))


class TestQuantizedMode:
    def test_quantized_matches_exact_for_representable_values(self):
        fmt = FixedPointFormat(16, 8)
        exact = make(exact=True, value_format=fmt)
        quant = make(exact=False, value_format=fmt)
        weights = np.array([1.5, 2.25, 0.5, 3.0])
        for mac in (exact, quant):
            mac.write(np.arange(4), np.zeros(4, dtype=int), weights)
        x = np.zeros(8)
        x[:4] = [2.0, 1.0, 4.0, 0.5]
        a = exact.mac(x, row_mask=np.arange(4), col_mask=np.array([0]))
        b = quant.mac(x, row_mask=np.arange(4), col_mask=np.array([0]))
        assert np.allclose(a, b)

    def test_quantized_error_bounded(self):
        fmt = FixedPointFormat(16, 8)
        quant = make(exact=False, value_format=fmt)
        rng = np.random.default_rng(1)
        weights = rng.uniform(0, 4, size=4)
        quant.write(np.arange(4), np.zeros(4, dtype=int), weights)
        x = np.zeros(8)
        x[:4] = rng.uniform(0, 4, size=4)
        out = quant.mac(x, row_mask=np.arange(4), col_mask=np.array([0]))[0]
        exact = float(x[:4] @ weights)
        # Worst case: per-operand rounding of inputs and weights.
        tol = 4 * (4 + 4) * fmt.resolution
        assert abs(out - exact) < tol

    def test_quantized_transposed(self):
        fmt = FixedPointFormat(16, 8)
        quant = make(exact=False, value_format=fmt)
        weights = np.zeros((8, 4))
        weights[:3, 0] = [1.5, 2.25, 0.5]
        quant.preset(weights)
        out = quant.mac_transposed(
            np.array([2.0, 0.0, 0.0, 0.0]), col_mask=np.array([0])
        )
        assert np.allclose(out[:3], [3.0, 4.5, 1.0])

    def test_quantized_counts_adc_per_slice_phase(self):
        fmt = FixedPointFormat(4, 0)  # 2 slices, 4 input phases
        quant = MacCrossbar(rows=4, cols=2, exact=False, value_format=fmt)
        quant.write(np.array([0]), np.array([0]), np.array([3.0]))
        events_before = quant.events.adc_conversions
        quant.mac(
            np.array([1.0, 0, 0, 0]),
            row_mask=np.array([0]),
            col_mask=np.array([0]),
        )
        # Input code 1 has one non-zero phase; 2 slices -> 2 ADC uses
        # inside the pipeline plus the op-level sample accounting.
        assert quant.events.adc_conversions > events_before


class TestValidation:
    def test_rejects_bad_dimensions(self):
        with pytest.raises(ConfigError):
            MacCrossbar(rows=0)

    def test_rejects_bad_limit(self):
        with pytest.raises(ConfigError):
            MacCrossbar(accumulate_limit=0)

    def test_rejects_indivisible_bits(self):
        with pytest.raises(ConfigError):
            MacCrossbar(value_format=FixedPointFormat(15, 4), cell_bits=2)
