"""Batched CAM/MAC entry points must match their sequential forms.

The frontier-sparse rewrite added ``search_many``/``search_packed``,
``mac_many``/``mac_rowwise_many`` and the :class:`CamBank`/
:class:`MacBank` gang views. Each batched call is a pure simulation
speedup: values and every event counter (including the Figure 13 rows
histogram) must be exactly what the one-at-a-time calls produce.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.obs.hw import HwMonitor
from repro.xbar import EdgeCam, MacCrossbar
from repro.xbar.cam_array import CamBank, CamCrossbar, encode_ids
from repro.xbar.mac_array import MacBank


def _loaded_edge_cam(seed=0, rows=32, vertex_bits=8, count=20):
    rng = np.random.default_rng(seed)
    cam = EdgeCam(rows=rows, vertex_bits=vertex_bits)
    src = rng.integers(0, 50, size=count)
    dst = rng.integers(0, 50, size=count)
    cam.load_edges(src, dst)
    return cam, src, dst


class TestEncodeIds:
    def test_matches_binary_representation(self):
        out = encode_ids(np.array([0, 1, 5, 255]), 8)
        for value, row in zip([0, 1, 5, 255], out):
            assert "".join("1" if b else "0" for b in row) == format(value, "08b")

    def test_rejects_out_of_range(self):
        with pytest.raises(ConfigError):
            encode_ids(np.array([256]), 8)
        with pytest.raises(ConfigError):
            encode_ids(np.array([-1]), 8)


class TestSearchManyEquivalence:
    def test_matches_sequential_search(self):
        cam, src, dst = _loaded_edge_cam()
        vertices = np.unique(src)
        batched = cam.search_many(vertices, "src")
        for i, v in enumerate(vertices):
            assert np.array_equal(batched[i], cam.search_src(int(v)))

    def test_counts_one_search_per_key(self):
        cam, src, dst = _loaded_edge_cam()
        before = cam.events.cam_searches
        cam.search_many(np.arange(7), "dst")
        assert cam.events.cam_searches == before + 7

    def test_empty_batch(self):
        cam, _, _ = _loaded_edge_cam()
        before = cam.events.cam_searches
        hits = cam.search_many(np.empty(0, dtype=np.int64), "src")
        assert hits.shape == (0, cam.rows)
        assert cam.events.cam_searches == before

    def test_pack_keys_round_trip(self):
        cam, src, _ = _loaded_edge_cam()
        vertices = np.unique(src)
        key_words, mask_words = cam.pack_keys(vertices, "src")
        assert np.array_equal(
            cam.search_packed(key_words, mask_words),
            cam.search_many(vertices, "src"),
        )

    def test_all_masked_search_hits_every_valid_row(self):
        # A fully-masked (all don't-care) key matches any written row:
        # no bit is required to agree, invalid rows still never hit.
        cam = CamCrossbar(rows=8, width_bits=16)
        cam.write_row(2, np.ones(16, dtype=bool))
        cam.write_row(5, np.zeros(16, dtype=bool))
        hits = cam.search(
            np.ones(16, dtype=bool), mask=np.zeros(16, dtype=bool)
        )
        assert np.array_equal(np.flatnonzero(hits), [2, 5])

    def test_search_many_all_masked(self):
        cam = CamCrossbar(rows=8, width_bits=16)
        cam.write_row(1, np.zeros(16, dtype=bool))
        keys = np.stack([np.ones(16, dtype=bool), np.zeros(16, dtype=bool)])
        hits = cam.search_many(keys, mask=np.zeros(16, dtype=bool))
        assert np.array_equal(hits[0], hits[1])
        assert np.array_equal(np.flatnonzero(hits[0]), [1])


class TestCamBank:
    def test_matches_per_member_search(self):
        board = HwMonitor()
        cams = []
        rng = np.random.default_rng(3)
        for _ in range(4):
            cam = EdgeCam(rows=16, vertex_bits=8, hw=board)
            cam.load_edges(
                rng.integers(0, 30, size=10), rng.integers(0, 30, size=10)
            )
            cams.append(cam)
        bank = CamBank([c.cam for c in cams])
        member_ids = rng.integers(0, 4, size=25)
        vertices = rng.integers(0, 30, size=25)
        key_words, mask_words = cams[0].pack_keys(vertices, "src")
        before = bank.events.cam_searches
        ganged = bank.search_packed(member_ids, key_words, mask_words)
        assert bank.events.cam_searches == before + 25
        for i, (m, v) in enumerate(zip(member_ids, vertices)):
            assert np.array_equal(ganged[i], cams[m].search_src(int(v)))

    def test_rejects_mixed_event_logs(self):
        # Members on different counter boards cannot gang.
        a = CamCrossbar(rows=8, width_bits=16)
        b = CamCrossbar(rows=8, width_bits=16)
        with pytest.raises(ConfigError):
            CamBank([a, b])

    def test_rejects_mixed_geometry(self):
        board = HwMonitor()
        a = CamCrossbar(rows=8, width_bits=16, hw=board)
        b = CamCrossbar(rows=16, width_bits=16, hw=board)
        with pytest.raises(ConfigError):
            CamBank([a, b])

    def test_rejects_empty(self):
        with pytest.raises(ConfigError):
            CamBank([])


def _loaded_mac(board=None, seed=0, rows=32, cols=8, limit=4):
    rng = np.random.default_rng(seed)
    mac = MacCrossbar(
        rows=rows, cols=cols, accumulate_limit=limit, hw=board
    )
    mac.preset(rng.uniform(-1.0, 1.0, size=(rows, cols)))
    return mac


class TestMacManyEquivalence:
    def test_values_and_events_match_sequential(self):
        rng = np.random.default_rng(7)
        seq = _loaded_mac()
        batch = _loaded_mac()
        inputs = rng.uniform(-1.0, 1.0, size=32)
        hit_rows = rng.random((6, 32)) < 0.4
        cols = np.array([0, 3])
        expected = np.stack(
            [seq.mac(inputs, row_mask=h, col_mask=cols) for h in hit_rows]
        )
        got = batch.mac_many(inputs, hit_rows, col_mask=cols)
        assert np.allclose(got, expected)
        seq_events, batch_events = seq.events, batch.events
        assert batch_events.counters_equal(seq_events)
        assert np.array_equal(
            batch_events.mac_rows_hist, seq_events.mac_rows_hist
        )

    def test_over_limit_hit_sets_split_identically(self):
        seq = _loaded_mac(limit=4)
        batch = _loaded_mac(limit=4)
        inputs = np.ones(32)
        hit_rows = np.zeros((2, 32), dtype=bool)
        hit_rows[0, :11] = True  # 4 + 4 + 3
        hit_rows[1, 20:26] = True  # 4 + 2
        for h in hit_rows:
            seq.mac(inputs, row_mask=h)
        batch.mac_many(inputs, hit_rows)
        seq_events, batch_events = seq.events, batch.events
        assert batch_events.counters_equal(seq_events)
        assert np.array_equal(
            batch_events.mac_rows_hist, seq_events.mac_rows_hist
        )

    def test_empty_batch_counts_nothing(self):
        mac = _loaded_mac()
        writes = mac.events.mac_ops
        out = mac.mac_many(np.ones(32), np.zeros((0, 32), dtype=bool))
        assert out.shape == (0, 8)
        assert mac.events.mac_ops == writes

    def test_quantized_fallback_matches_sequential(self):
        rng = np.random.default_rng(11)
        seq = MacCrossbar(rows=16, cols=4, exact=False)
        batch = MacCrossbar(rows=16, cols=4, exact=False)
        weights = rng.uniform(-1.0, 1.0, size=(16, 4))
        seq.preset(weights)
        batch.preset(weights)
        inputs = rng.uniform(-1.0, 1.0, size=16)
        hit_rows = rng.random((3, 16)) < 0.5
        expected = np.stack([seq.mac(inputs, row_mask=h) for h in hit_rows])
        got = batch.mac_many(inputs, hit_rows)
        assert np.array_equal(got, expected)
        assert batch.events.counters_equal(seq.events)


class TestMacRowwiseManyEquivalence:
    def test_values_and_events_match_sequential(self):
        rng = np.random.default_rng(13)
        seq = _loaded_mac()
        batch = _loaded_mac()
        inputs = rng.uniform(-1.0, 1.0, size=(5, 8))
        hit_rows = rng.random((5, 32)) < 0.3
        cols = np.array([0, 1])
        expected = np.stack(
            [
                seq.mac_rowwise(inp, row_mask=h, col_mask=cols)
                for inp, h in zip(inputs, hit_rows)
            ]
        )
        got = batch.mac_rowwise_many(inputs, hit_rows, col_mask=cols)
        assert np.allclose(got, expected)
        seq_events, batch_events = seq.events, batch.events
        assert batch_events.counters_equal(seq_events)
        assert np.array_equal(
            batch_events.mac_rows_hist, seq_events.mac_rows_hist
        )


class TestMacBank:
    def test_matches_per_member_rowwise(self):
        rng = np.random.default_rng(17)
        gang_board, seq_board = HwMonitor(), HwMonitor()
        gang_macs = [_loaded_mac(gang_board, seed=s) for s in range(3)]
        seq_macs = [_loaded_mac(seq_board, seed=s) for s in range(3)]
        bank = MacBank(gang_macs)
        member_ids = rng.integers(0, 3, size=9)
        inputs = rng.uniform(-1.0, 1.0, size=(9, 8))
        hit_rows = rng.random((9, 32)) < 0.3
        cols = np.array([0, 1])
        got = bank.mac_rowwise_many(member_ids, inputs, hit_rows, col_mask=cols)
        expected = np.stack(
            [
                seq_macs[m].mac_rowwise(inp, row_mask=h, col_mask=cols)
                for m, inp, h in zip(member_ids, inputs, hit_rows)
            ]
        )
        assert np.allclose(got, expected)
        gang_events, seq_events = gang_board.events(), seq_board.events()
        assert gang_events.counters_equal(seq_events)
        # Per-member attribution matches too, not just the totals.
        assert np.array_equal(
            gang_board.rows_hist(), seq_board.rows_hist()
        )
        assert np.array_equal(
            gang_events.mac_rows_hist, seq_events.mac_rows_hist
        )

    def test_rejects_mixed_event_logs(self):
        # Members on different counter boards cannot gang.
        with pytest.raises(ConfigError):
            MacBank([
                MacCrossbar(rows=8, cols=4),
                MacCrossbar(rows=8, cols=4),
            ])

    def test_rejects_empty(self):
        with pytest.raises(ConfigError):
            MacBank([])


class TestBatchedSearchProperty:
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_search_many_matches_linear_scan(self, data):
        count = data.draw(st.integers(min_value=0, max_value=24))
        src = np.array(
            data.draw(
                st.lists(
                    st.integers(min_value=0, max_value=40),
                    min_size=count, max_size=count,
                )
            ),
            dtype=np.int64,
        )
        dst = np.array(
            data.draw(
                st.lists(
                    st.integers(min_value=0, max_value=40),
                    min_size=count, max_size=count,
                )
            ),
            dtype=np.int64,
        )
        cam = EdgeCam(rows=24, vertex_bits=8)
        cam.load_edges(src, dst)
        queries = np.arange(41)
        hits = cam.search_many(queries, "dst")
        for i, v in enumerate(queries):
            expected = np.zeros(24, dtype=bool)
            expected[: count][dst == v] = True
            assert np.array_equal(hits[i], expected)
