"""Unit tests for the TCAM crossbar and the edge CAM."""

import numpy as np
import pytest

from repro.errors import CapacityError, ConfigError
from repro.xbar import CamCrossbar, EdgeCam


def bits(pattern: str) -> np.ndarray:
    return np.array([c == "1" for c in pattern], dtype=bool)


class TestCamCrossbar:
    def test_exact_match(self):
        cam = CamCrossbar(rows=4, width_bits=4)
        cam.write_row(0, bits("1010"))
        cam.write_row(1, bits("1111"))
        hit = cam.search(bits("1010"))
        assert np.array_equal(hit, [True, False, False, False])

    def test_ternary_mask_ignores_bits(self):
        cam = CamCrossbar(rows=2, width_bits=4)
        cam.write_row(0, bits("1010"))
        cam.write_row(1, bits("1001"))
        # Match only the first two bits.
        hit = cam.search(bits("1000"), mask=bits("1100"))
        assert np.array_equal(hit, [True, True])

    def test_unwritten_rows_never_hit(self):
        cam = CamCrossbar(rows=4, width_bits=4)
        cam.write_row(0, bits("0000"))
        hit = cam.search(bits("0000"))
        assert np.array_equal(hit, [True, False, False, False])

    def test_invalidate(self):
        cam = CamCrossbar(rows=2, width_bits=4)
        cam.write_row(0, bits("1111"))
        cam.invalidate()
        assert not cam.search(bits("1111")).any()

    def test_write_counts_events(self):
        cam = CamCrossbar(rows=2, width_bits=8)
        cam.write_row(0, np.zeros(8, dtype=bool))
        events = cam.events
        assert events.cam_row_writes == 1
        assert events.cam_cell_writes == 16  # two cells per bit

    def test_search_counts_events(self):
        cam = CamCrossbar(rows=2, width_bits=4)
        cam.search(bits("0000"))
        cam.search(bits("1111"))
        assert cam.events.cam_searches == 2

    def test_write_out_of_bounds(self):
        with pytest.raises(CapacityError):
            CamCrossbar(rows=2, width_bits=4).write_row(2, bits("0000"))

    def test_bad_pattern_width(self):
        with pytest.raises(ConfigError):
            CamCrossbar(rows=2, width_bits=4).write_row(0, bits("00000"))

    def test_bad_key_width(self):
        with pytest.raises(ConfigError):
            CamCrossbar(rows=2, width_bits=4).search(bits("001"))


class TestEdgeCam:
    def test_search_by_destination(self):
        cam = EdgeCam(rows=8, vertex_bits=8)
        cam.load_edges(np.array([1, 3, 4, 1]), np.array([2, 2, 2, 3]))
        assert np.array_equal(
            np.flatnonzero(cam.search_dst(2)), [0, 1, 2]
        )

    def test_search_by_source(self):
        cam = EdgeCam(rows=8, vertex_bits=8)
        cam.load_edges(np.array([1, 3, 4, 1]), np.array([2, 2, 2, 3]))
        assert np.array_equal(np.flatnonzero(cam.search_src(1)), [0, 3])

    def test_miss_returns_empty(self):
        cam = EdgeCam(rows=4, vertex_bits=8)
        cam.load_edges(np.array([1]), np.array([2]))
        assert not cam.search_dst(9).any()

    def test_src_dst_fields_do_not_alias(self):
        """Searching dst=5 must not hit a row whose src is 5."""
        cam = EdgeCam(rows=4, vertex_bits=8)
        cam.load_edges(np.array([5]), np.array([7]))
        assert not cam.search_dst(5).any()
        assert not cam.search_src(7).any()

    def test_reload_replaces_contents(self):
        cam = EdgeCam(rows=4, vertex_bits=8)
        cam.load_edges(np.array([1, 2]), np.array([3, 4]))
        cam.load_edges(np.array([9]), np.array([9]))
        assert not cam.search_src(1).any()
        assert cam.search_src(9).any()

    def test_capacity_enforced(self):
        cam = EdgeCam(rows=2, vertex_bits=8)
        with pytest.raises(CapacityError):
            cam.load_edges(np.arange(3), np.arange(3))

    def test_stored_accessors(self):
        cam = EdgeCam(rows=4, vertex_bits=8)
        cam.load_edges(np.array([1, 2]), np.array([3, 4]))
        assert np.array_equal(cam.stored_src()[:2], [1, 2])
        assert np.array_equal(cam.stored_dst()[:2], [3, 4])
        assert cam.stored_src()[2] == -1

    def test_vertex_bits_capacity(self):
        with pytest.raises(ConfigError):
            EdgeCam(vertex_bits=65)

    def test_large_vertex_ids(self):
        cam = EdgeCam(rows=2, vertex_bits=32)
        big = 2**31 - 1
        cam.load_edges(np.array([big]), np.array([big - 1]))
        assert cam.search_src(big).any()
        assert cam.search_dst(big - 1).any()

    def test_search_equals_linear_scan(self):
        rng = np.random.default_rng(3)
        src = rng.integers(0, 50, size=60)
        dst = rng.integers(0, 50, size=60)
        cam = EdgeCam(rows=64, vertex_bits=8)
        cam.load_edges(src, dst)
        for v in range(50):
            expect = np.zeros(64, dtype=bool)
            expect[:60] = dst == v
            assert np.array_equal(cam.search_dst(v), expect)
