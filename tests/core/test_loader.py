"""Unit tests for shard-to-crossbar packing."""

import numpy as np
import pytest

from repro.config import ArchConfig
from repro.core.loader import build_layout
from repro.errors import ConfigError
from repro.graphs import partition_graph


@pytest.fixture()
def layout(medium_rmat, tiny_config):
    grid = partition_graph(medium_rmat, 64)
    return build_layout(grid, "col", tiny_config)


class TestBuildLayout:
    def test_every_edge_assigned(self, layout, medium_rmat):
        assert layout.num_edges == medium_rmat.num_edges
        assert layout.xbar_of_edge.min() >= 0
        assert layout.xbar_of_edge.max() == layout.num_xbars - 1

    def test_crossbar_capacity_respected(self, layout, tiny_config):
        rows = layout.rows_per_xbar()
        assert rows.max() <= tiny_config.cam_rows
        assert rows.min() > 0

    def test_crossbars_hold_single_shard(self, medium_rmat, tiny_config):
        grid = partition_graph(medium_rmat, 64)
        layout = build_layout(grid, "col", tiny_config)
        q = 64
        k = grid.partition.num_intervals
        shard_of_edge = (layout.src // q) * k + (layout.dst // q)
        for x in range(layout.num_xbars):
            shards = np.unique(shard_of_edge[layout.xbar_of_edge == x])
            assert shards.size == 1

    def test_batches(self, layout, tiny_config):
        expected = -(-layout.num_xbars // tiny_config.num_crossbars)
        assert layout.num_batches == expected
        batches = layout.batch_of_xbar(np.arange(layout.num_xbars))
        assert batches.max() == layout.num_batches - 1

    def test_resident_flag(self, small_rmat):
        grid = partition_graph(small_rmat, 64)
        big_machine = build_layout(grid, "col", ArchConfig())
        assert big_machine.resident
        small_machine = build_layout(grid, "col", ArchConfig(num_crossbars=1))
        assert not small_machine.resident

    def test_edge_weights_preserved(self, layout, medium_rmat):
        assert np.sort(layout.weight).sum() == pytest.approx(
            medium_rmat.weights.sum()
        )

    def test_empty_graph(self, tiny_config):
        from repro.graphs import Graph

        g = Graph.from_edge_list([], num_vertices=10)
        layout = build_layout(partition_graph(g, 4), "row", tiny_config)
        assert layout.num_xbars == 0
        assert layout.num_batches == 0
        assert layout.groups_by("src").num_groups == 0


class TestGroups:
    def test_group_counts_sum_to_edges(self, layout):
        for field in ("src", "dst"):
            groups = layout.groups_by(field)
            assert groups.count.sum() == layout.num_edges

    def test_groups_cached(self, layout):
        assert layout.groups_by("dst") is layout.groups_by("dst")

    def test_unknown_field_rejected(self, layout):
        with pytest.raises(ConfigError):
            layout.groups_by("weight")

    def test_group_membership_consistent(self, layout):
        groups = layout.groups_by("dst")
        for g in range(min(groups.num_groups, 50)):
            lo, hi = groups.group_offsets[g], groups.group_offsets[g + 1]
            edges = groups.edge_perm[lo:hi]
            assert np.all(layout.dst[edges] == groups.vertex[g])
            assert np.all(layout.xbar_of_edge[edges] == groups.xbar[g])

    def test_groups_match_bruteforce(self, layout):
        groups = layout.groups_by("src")
        brute = {}
        for e in range(layout.num_edges):
            key = (int(layout.xbar_of_edge[e]), int(layout.src[e]))
            brute[key] = brute.get(key, 0) + 1
        ours = {
            (int(x), int(v)): int(c)
            for x, v, c in zip(groups.xbar, groups.vertex, groups.count)
        }
        assert ours == brute

    @pytest.mark.parametrize("order", ["row", "col"])
    @pytest.mark.parametrize("field", ["src", "dst"])
    def test_composite_sort_equals_lexsort(
        self, medium_rmat, tiny_config, order, field
    ):
        layout = build_layout(partition_graph(medium_rmat, 64), order,
                              tiny_config)
        keys = layout.src if field == "src" else layout.dst
        expected = np.lexsort((keys, layout.xbar_of_edge))
        assert np.array_equal(layout.groups_by(field).edge_perm, expected)

    def test_composite_sort_of_empty_layout(self, tiny_config):
        from repro.graphs import Graph

        g = Graph.from_edge_list([], num_vertices=10)
        layout = build_layout(partition_graph(g, 4), "col", tiny_config)
        for field in ("src", "dst"):
            assert layout.groups_by(field).edge_perm.size == 0

    def test_composite_overflow_falls_back_to_lexsort(self, tiny_config):
        from repro.core.loader import CrossbarLayout

        huge = np.int64(2**62)
        src = np.array([huge + 1, 3, huge, 3, 0], dtype=np.int64)
        layout = CrossbarLayout(
            config=tiny_config, order="row", src=src, dst=src.copy(),
            weight=np.ones(5), num_xbars=2,
            xbar_of_edge=np.array([1, 1, 0, 0, 1], dtype=np.int64),
        )
        groups = layout.groups_by("src")
        assert np.array_equal(
            groups.edge_perm, np.lexsort((src, layout.xbar_of_edge))
        )
        assert groups.vertex.tolist() == [3, int(huge), 0, 3, int(huge) + 1]
