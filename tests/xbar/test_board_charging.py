"""Every charging method of the array models, on a two-slot board.

Each case runs one method on an array sharing a
:class:`~repro.obs.hw.HwMonitor` with a neighbour and checks every
counter of both slots, and the rows histograms, against counts worked
out by hand. MAC cases run in exact and quantized mode: quantized
mode adds the ADC samples of the bit-serial pipeline (one per engaged
line per non-zero input-bit phase per weight slice). The format is
4-bit with 2-bit cells, so a stored value spans two slices; inputs of
1.0 have a single non-zero phase.
"""

import numpy as np
import pytest

from repro.obs.hw import HW_COUNTERS, HwMonitor
from repro.xbar import ADC, CamCrossbar, EdgeCam, FixedPointFormat, MacCrossbar
from repro.xbar.cam_array import CamBank
from repro.xbar.mac_array import MacBank

FORMAT = FixedPointFormat(4, 0)
SLICES = 2
LIMIT = 3


def expect(board, hist=None, **counters):
    """Assert every counter of both slots; ``counters`` maps a name to
    its ``[slot0, slot1]`` values (unnamed counters must be zero).
    ``hist`` maps a slot to its ``{rows: ops}`` histogram bins."""
    for name in HW_COUNTERS:
        assert board.counts(name).tolist() == counters.get(name, [0, 0]), name
    rows_hist = board.rows_hist()
    for slot in (0, 1):
        bins = (hist or {}).get(slot, {})
        want = np.zeros(rows_hist.shape[1], dtype=np.int64)
        for rows, ops in bins.items():
            want[rows] = ops
        assert np.array_equal(rows_hist[slot], want), slot


def mac_pair(exact, **kwargs):
    """A board with two MAC arrays; weights all 1.0, no write events."""
    board = HwMonitor()
    macs = []
    for _ in range(2):
        mac = MacCrossbar(
            rows=8, cols=4, value_format=FORMAT, accumulate_limit=LIMIT,
            exact=exact, hw=board, **kwargs,
        )
        mac.preset(np.ones((8, 4)))
        macs.append(mac)
    return board, macs


def hits(*counts, rows=8):
    out = np.zeros((len(counts), rows), dtype=bool)
    for i, count in enumerate(counts):
        out[i, :count] = True
    return out


class TestCamCharging:
    def cams(self):
        board = HwMonitor()
        return board, [CamCrossbar(rows=4, width_bits=8, hw=board)
                       for _ in range(2)]

    def test_write_row(self):
        board, (_a, b) = self.cams()
        b.write_row(0, np.zeros(8, dtype=bool))
        expect(board, cam_row_writes=[0, 1], cam_cell_writes=[0, 16])

    def test_write_rows(self):
        board, (_a, b) = self.cams()
        b.write_rows(1, np.ones((3, 8), dtype=bool))
        expect(board, cam_row_writes=[0, 3], cam_cell_writes=[0, 48])

    def test_search_packed(self):
        board = HwMonitor()
        CamCrossbar(rows=4, width_bits=8, hw=board)
        cam = EdgeCam(rows=4, vertex_bits=4, hw=board)
        cam.load_edges(np.array([1, 2]), np.array([3, 3]))
        cam.search_packed(*cam.pack_keys(np.arange(5), "src"))
        expect(
            board,
            cam_row_writes=[0, 2], cam_cell_writes=[0, 32],
            cam_searches=[0, 5],
        )

    def test_charge_search(self):
        board, (_a, b) = self.cams()
        b.charge_search(7)
        expect(board, cam_searches=[0, 7])

    def test_bank_search_packed(self):
        board, cams = self.cams()
        bank = CamBank(cams)
        keys = np.zeros((3, 1), dtype=np.uint64)
        bank.search_packed(np.array([0, 1, 1]), keys)
        expect(board, cam_searches=[1, 2])

    def test_bank_charge_search(self):
        board, cams = self.cams()
        CamBank(cams).charge_search(np.array([1, 1, 0, 1]))
        expect(board, cam_searches=[1, 3])


@pytest.mark.parametrize("exact", [True, False])
class TestMacCharging:
    def test_write(self, exact):
        board, (_a, b) = mac_pair(exact)
        b.write(np.array([0, 0, 1]), np.array([0, 1, 0]), np.ones(3))
        expect(board, row_writes=[0, 2], cell_writes=[0, 3 * SLICES])

    def test_write_rows(self, exact):
        board, (_a, b) = mac_pair(exact)
        b.write_rows(np.array([2, 5]), np.ones((2, 4)))
        expect(board, row_writes=[0, 2], cell_writes=[0, 8 * SLICES])

    def test_mac(self, exact):
        board, (_a, b) = mac_pair(exact)
        b.mac(np.ones(8), row_mask=np.arange(7), col_mask=np.array([0, 1]))
        # 7 rows at limit 3: ops of 3, 3, 1 rows over 2 columns.
        pipeline = 0 if exact else 3 * SLICES * 2
        expect(
            board, hist={1: {3: 2, 1: 1}},
            mac_ops=[0, 3], mac_rows_accumulated=[0, 7],
            mac_cell_ops=[0, 14], dac_conversions=[0, 7],
            adc_conversions=[0, 6 + pipeline],
        )

    def test_mac_many(self, exact):
        board, (_a, b) = mac_pair(exact)
        b.mac_many(np.ones(8), hits(5, 2), col_mask=np.array([0, 1]))
        # 5 hits -> ops of 3 and 2 rows; 2 hits -> one op of 2 rows.
        pipeline = 0 if exact else 3 * SLICES * 2
        expect(
            board, hist={1: {3: 1, 2: 2}},
            mac_ops=[0, 3], mac_rows_accumulated=[0, 7],
            mac_cell_ops=[0, 14], dac_conversions=[0, 7],
            adc_conversions=[0, 6 + pipeline],
        )

    def test_mac_rowwise(self, exact):
        board, (_a, b) = mac_pair(exact)
        b.mac_rowwise(
            np.ones(4), row_mask=np.arange(4), col_mask=np.array([0, 1])
        )
        # The SpMV-add runs at full precision in both modes.
        expect(
            board, hist={1: {3: 1, 1: 1}},
            mac_ops=[0, 2], mac_rows_accumulated=[0, 4],
            mac_cell_ops=[0, 8], dac_conversions=[0, 4],
            adc_conversions=[0, 4],
        )

    def test_mac_rowwise_many(self, exact):
        board, (_a, b) = mac_pair(exact)
        b.mac_rowwise_many(
            np.ones((2, 4)), hits(3, 4), col_mask=np.array([0, 1])
        )
        expect(
            board, hist={1: {3: 2, 1: 1}},
            mac_ops=[0, 3], mac_rows_accumulated=[0, 7],
            mac_cell_ops=[0, 14], dac_conversions=[0, 7],
            adc_conversions=[0, 6],
        )

    def test_mac_transposed(self, exact):
        board, (_a, b) = mac_pair(exact)
        b.mac_transposed(
            np.ones(4), col_mask=np.arange(4), row_mask=np.arange(5)
        )
        # Chunks run over the 4 columns (3 + 1), each summing into the
        # 5 engaged rows.
        pipeline = 0 if exact else 2 * SLICES * 5
        expect(
            board, hist={1: {3: 1, 1: 1}},
            mac_ops=[0, 2], mac_rows_accumulated=[0, 4],
            mac_cell_ops=[0, 20], dac_conversions=[0, 4],
            adc_conversions=[0, 10 + pipeline],
        )

    def test_bank_mac_rowwise_many(self, exact):
        board, macs = mac_pair(exact)
        MacBank(macs).mac_rowwise_many(
            np.array([0, 1, 1]), np.ones((3, 4)), hits(4, 2, 3),
            col_mask=np.array([0, 1]),
        )
        # Member 0: 4 hits -> 3 + 1. Member 1: 2 hits, then 3 hits.
        expect(
            board, hist={0: {3: 1, 1: 1}, 1: {2: 1, 3: 1}},
            mac_ops=[2, 2], mac_rows_accumulated=[4, 5],
            mac_cell_ops=[8, 10], dac_conversions=[4, 5],
            adc_conversions=[4, 4],
        )


class TestAdcCharging:
    def test_convert_counts_saturations(self):
        board = HwMonitor()
        board.register("mac")
        adc = ADC(6, hw=board, slot=board.register("mac"))
        adc.convert(np.array([100.0, 1.0, 64.0, 63.0]))
        expect(board, adc_conversions=[0, 4], adc_saturations=[0, 2])

    def test_quantized_mac_saturates_its_own_slot(self):
        # Weight 3 puts level 3 in the low slice; six rows sum to 18 on
        # that bit line, past a 4-bit ADC's full scale of 15.
        board, (_a, b) = mac_pair(False, adc_bits=4)
        b.preset(np.full((8, 4), 3.0))
        b.mac(np.ones(8), row_mask=np.arange(6), col_mask=np.array([0]))
        # Limit 3: two ops of 3 rows; each sums 9 <= 15, no clipping.
        expect(
            board, hist={1: {3: 2}},
            mac_ops=[0, 2], mac_rows_accumulated=[0, 6],
            mac_cell_ops=[0, 6], dac_conversions=[0, 6],
            adc_conversions=[0, 2 + 2 * SLICES],
        )
        wide = MacCrossbar(
            rows=8, cols=4, value_format=FORMAT, exact=False, adc_bits=4,
            hw=board,
        )
        wide.preset(np.full((8, 4), 3.0))
        wide.mac(np.ones(8), row_mask=np.arange(6), col_mask=np.array([0]))
        # Default limit 16: one op of 6 rows; the low slice clips.
        assert board.counts("adc_conversions")[2] == 1 + SLICES
        assert board.counts("adc_saturations").tolist() == [0, 0, 1]
