"""The micro engine's bank loader against per-crossbar array models.

:meth:`MicroGaaSX._build` loads a whole layout into stacked
:class:`CamBank` / :class:`MacBank` storage in one vectorized pass.
Here every member must hold exactly what one :class:`EdgeCam` plus one
:class:`MacCrossbar` per crossbar hold after ``load_edges`` and
``write`` on the same edges, every board slot must carry the same
counters, and a gang :meth:`MacBank.mac_many` must equal the
member-by-member :meth:`MacCrossbar.mac_many` it replaces.
"""

import numpy as np
import pytest

from repro.config import ArchConfig
from repro.core.micro import MicroGaaSX
from repro.graphs.generators import rmat
from repro.obs.hw import HW_COUNTERS, HwMonitor
from repro.xbar.cam_array import EdgeCam
from repro.xbar.cells import FixedPointFormat
from repro.xbar.mac_array import MacCrossbar

#: (numeric mode, accumulate limit) cases the loader must reproduce.
MODES = [
    pytest.param(quantized, limit, id=f"{mode}-limit{limit}")
    for quantized, mode in ((False, "exact"), (True, "quantized"))
    for limit in (16, 8)
]

#: (order, searched field, column-0 weights) of each kernel's load.
KERNELS = {
    "pagerank": ("col", "dst", "inv"),
    "sssp": ("row", "src", "weight"),
    "bfs": ("row", "src", None),
}


@pytest.fixture(scope="module")
def graph():
    return rmat(96, 400, seed=17, name="bank-loader")


def _weights(graph, kind):
    if kind is None:
        return None
    if kind == "weight":
        return lambda layout: layout.weight
    out_deg = graph.out_degrees().astype(np.float64)
    inv = np.divide(1.0, out_deg, out=np.zeros(out_deg.size),
                    where=out_deg > 0)
    return lambda layout: inv[layout.src]


def _per_crossbar(config, quantized, layout, weights, board):
    """One EdgeCam + MacCrossbar per crossbar, loaded one at a time
    and registered cam-then-mac in crossbar order."""
    cams, macs = [], []
    column0 = None if weights is None else weights(layout)
    for x in range(layout.num_xbars):
        sel = layout.xbar_of_edge == x
        k = int(sel.sum())
        cam = EdgeCam(
            rows=config.cam_rows,
            vertex_bits=config.cam_width_bits // 2,
            hw=board,
        )
        mac = MacCrossbar(
            rows=config.mac_rows,
            cols=config.mac_cols,
            value_format=FixedPointFormat(
                config.value_bits, config.value_bits // 2
            ),
            cell_bits=config.cell_bits,
            accumulate_limit=config.mac_accumulate_limit,
            adc_bits=config.adc_bits,
            exact=not quantized,
            hw=board,
        )
        cam.load_edges(layout.src[sel], layout.dst[sel])
        preset = np.zeros((config.mac_rows, config.mac_cols))
        preset[:, 1] = 1.0
        if column0 is None:
            preset[:k, 0] = 1.0
        mac.preset(preset)
        if column0 is not None:
            mac.write(np.arange(k), np.zeros(k, dtype=np.int64), column0[sel])
        cams.append(cam)
        macs.append(mac)
    return cams, macs


def _assert_boards_equal(board, reference):
    assert board.labels() == reference.labels()
    for name in HW_COUNTERS:
        assert np.array_equal(
            board.counts(name), reference.counts(name)
        ), name
    width = max(board.rows_hist().shape[1], reference.rows_hist().shape[1])
    assert np.array_equal(
        _padded(board.rows_hist(), width), _padded(reference.rows_hist(), width)
    )


def _padded(hist, width):
    out = np.zeros((hist.shape[0], width), dtype=hist.dtype)
    out[:, : hist.shape[1]] = hist
    return out


@pytest.mark.parametrize("quantized,limit", MODES)
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_loader_matches_per_crossbar_loads(graph, kernel, quantized, limit):
    order, field, kind = KERNELS[kernel]
    config = ArchConfig(mac_accumulate_limit=limit)
    micro = MicroGaaSX(graph, config=config, quantized=quantized,
                       reuse=False)
    board, reference = HwMonitor(), HwMonitor()
    loaded = micro._build(order, board, field, _weights(graph, kind))
    layout = loaded.layout
    assert layout.num_xbars > 1
    cams, macs = _per_crossbar(
        config, quantized, layout, _weights(graph, kind), reference
    )
    _assert_boards_equal(board, reference)
    for x, (cam, mac) in enumerate(zip(cams, macs)):
        assert np.array_equal(loaded.cam._valid[x], cam.cam._valid)
        assert np.array_equal(loaded.cam._words[x], cam.cam._words)
        assert np.array_equal(loaded.src[x], cam.stored_src())
        assert np.array_equal(loaded.dst[x], cam.stored_dst())
        assert np.array_equal(loaded.mac._weights[x], mac.stored_values())
        if quantized:
            assert np.array_equal(loaded.mac._codes[x], mac._codes)
        searched = np.unique(cam.stored_src() if field == "src"
                             else cam.stored_dst())
        searched = searched[searched >= 0]
        mine = loaded.key_member == x
        assert np.array_equal(loaded.key_vertex[mine], searched)
        key_words, mask_words = cam.pack_keys(searched, field)
        assert np.array_equal(loaded.key_words[mine], key_words)
        assert np.array_equal(loaded.mask_words, mask_words)


@pytest.mark.parametrize("quantized,limit", MODES)
def test_gang_mac_many_matches_member_by_member(graph, quantized, limit):
    config = ArchConfig(mac_accumulate_limit=limit)
    micro = MicroGaaSX(graph, config=config, quantized=quantized,
                       reuse=False)
    weights = _weights(graph, "inv")
    board, reference = HwMonitor(), HwMonitor()
    loaded = micro._build("col", board, "dst", weights)
    cams, macs = _per_crossbar(
        config, quantized, loaded.layout, weights, reference
    )
    rng = np.random.default_rng(5)
    inputs = rng.uniform(0.0, 2.0, size=loaded.src.shape)
    col0 = np.array([0])
    hits = loaded.cam.search_packed(
        loaded.key_member, loaded.key_words, loaded.mask_words
    )
    got = loaded.mac.mac_many(loaded.key_member, inputs, hits, col_mask=col0)
    expected = np.zeros_like(got)
    for x, (cam, mac) in enumerate(zip(cams, macs)):
        mine = loaded.key_member == x
        member_hits = cam.search_packed(
            loaded.key_words[mine], loaded.mask_words
        )
        assert np.array_equal(hits[mine], member_hits)
        expected[mine] = mac.mac_many(inputs[x], member_hits, col_mask=col0)
    if quantized:
        assert np.array_equal(got, expected)
    else:
        assert np.allclose(got, expected, rtol=1e-12, atol=0.0)
    # Chunking at the limit really happened, and per slot it matches.
    assert (board.rows_hist()[:, limit] > 0).any()
    _assert_boards_equal(board, reference)


def test_empty_gang_mac_counts_nothing(graph):
    micro = MicroGaaSX(graph, reuse=False)
    board = HwMonitor()
    loaded = micro._build("col", board, "dst", None)
    before = board.totals()
    out = loaded.mac.mac_many(
        np.empty(0, dtype=np.int64),
        np.zeros(loaded.src.shape),
        np.zeros((0, ArchConfig().mac_rows), dtype=bool),
    )
    assert out.shape == (0, ArchConfig().mac_cols)
    assert board.totals() == before
