"""Unit tests for graph I/O."""

import numpy as np
import pytest

from repro.errors import GraphFormatError, StorageError
from repro.graphs import Graph
from repro.graphs.io import (
    load_store,
    read_edge_list,
    save_store,
    write_edge_list,
)


@pytest.fixture()
def weighted_graph():
    return Graph.from_edge_list(
        [(0, 1), (1, 2), (2, 0)],
        weights=[1.5, 2.0, 3.25],
        num_vertices=3,
        name="tri",
    )


class TestEdgeListText:
    def test_roundtrip_weighted(self, weighted_graph, tmp_path):
        path = tmp_path / "g.txt"
        write_edge_list(weighted_graph, path)
        loaded = read_edge_list(path)
        assert loaded.edges == weighted_graph.edges

    def test_roundtrip_unweighted(self, tmp_path):
        g = Graph.from_edge_list([(0, 2), (2, 1)], num_vertices=3)
        path = tmp_path / "g.txt"
        write_edge_list(g, path, weighted=False)
        loaded = read_edge_list(path)
        assert np.array_equal(loaded.edges.rows, g.edges.rows)
        assert np.array_equal(loaded.weights, [1.0, 1.0])

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# SNAP header\n\n0 1\n1 2\n")
        g = read_edge_list(path)
        assert g.num_edges == 2

    def test_weight_format_inferred(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1 4.5\n1 0 2.0\n")
        g = read_edge_list(path)
        assert np.array_equal(np.sort(g.weights), [2.0, 4.5])

    def test_explicit_num_vertices(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n")
        g = read_edge_list(path, num_vertices=10)
        assert g.num_vertices == 10

    def test_header_written(self, weighted_graph, tmp_path):
        path = tmp_path / "g.txt"
        write_edge_list(weighted_graph, path, header="hello\nworld")
        text = path.read_text()
        assert "# hello" in text and "# world" in text
        assert "# vertices: 3" in text

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1 2.0\n1\n")
        with pytest.raises(GraphFormatError):
            read_edge_list(path)

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("a b\n")
        with pytest.raises(GraphFormatError):
            read_edge_list(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# nothing\n")
        g = read_edge_list(path)
        assert g.num_edges == 0
        assert g.num_vertices == 0

    def test_name_defaults_to_filename(self, tmp_path):
        path = tmp_path / "mygraph.txt"
        path.write_text("0 1\n")
        assert read_edge_list(path).name == "mygraph.txt"


class TestBinary:
    def test_roundtrip(self, weighted_graph, tmp_path):
        path = tmp_path / "g.gsx"
        save_store(weighted_graph, path)
        loaded = load_store(path)
        assert loaded.edges == weighted_graph.edges
        assert loaded.name == "tri"
        assert loaded.num_vertices == 3

    def test_missing_arrays_rejected(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, src=np.array([0]))
        with pytest.raises(StorageError):
            load_store(path)

    def test_roundtrip_preserves_isolated_vertices(self, tmp_path):
        g = Graph.from_edge_list([(0, 1)], num_vertices=100)
        path = tmp_path / "g.gsx"
        save_store(g, path)
        assert load_store(path).num_vertices == 100
