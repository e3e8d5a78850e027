"""Tests for METIS graph I/O."""

import io

import pytest

from repro.errors import GraphFormatError
from repro.graph.io_metis import read_metis, write_metis
from tests.conftest import random_graph


def read_text(text: str):
    return read_metis(io.StringIO(text))


class TestRead:
    def test_basic_triangle(self):
        g = read_text("3 3\n2 3\n1 3\n1 2\n")
        assert g.num_vertices == 3
        assert g.num_edges == 6
        assert g.neighbors(0).tolist() == [1, 2]

    def test_comments_skipped(self):
        g = read_text("% a comment\n2 1\n% another\n2\n1\n")
        assert g.num_edges == 2

    def test_edge_weights(self):
        g = read_text("2 1 001\n2 5.0\n1 5.0\n")
        assert g.edge_weights(0).tolist() == [5.0]

    def test_vertex_weights_ignored(self):
        # fmt 010: one vertex weight before the neighbor list
        g = read_text("2 1 010\n7 2\n9 1\n")
        assert g.num_edges == 2
        assert g.edge_weights(0).tolist() == [1.0]

    def test_vertex_and_edge_weights(self):
        g = read_text("2 1 011\n7 2 3.5\n9 1 3.5\n")
        assert g.edge_weights(0).tolist() == [3.5]

    def test_ncon_multiple_vertex_weights(self):
        g = read_text("2 1 010 2\n7 8 2\n9 1 1\n")
        assert g.num_edges == 2

    def test_isolated_vertices(self):
        g = read_text("3 1\n2\n1\n\n")
        assert g.num_vertices == 3
        assert g.degree(2) == 0

    def test_empty_file_rejected(self):
        with pytest.raises(GraphFormatError):
            read_text("")

    def test_bad_header(self):
        with pytest.raises(GraphFormatError):
            read_text("3\n")

    def test_missing_vertex_lines(self):
        with pytest.raises(GraphFormatError):
            read_text("3 1\n2\n")

    def test_neighbor_out_of_range(self):
        with pytest.raises(GraphFormatError):
            read_text("2 1\n3\n1\n")

    def test_edge_count_mismatch(self):
        with pytest.raises(GraphFormatError):
            read_text("3 5\n2\n1\n\n")

    def test_odd_weight_tokens(self):
        with pytest.raises(GraphFormatError):
            read_text("2 1 001\n2\n1 1.0\n")

    def test_non_numeric_neighbor(self):
        with pytest.raises(GraphFormatError,
                           match="line 3: vertex 2: neighbor 'x'"):
            read_text("2 1\n2\nx\n")

    def test_non_numeric_ncon(self):
        with pytest.raises(GraphFormatError, match="malformed METIS header"):
            read_text("2 1 010 x\n1 2\n1 1\n")

    @pytest.mark.parametrize("weight", ["nan", "-inf", "-2", "x"])
    def test_rejects_bad_weight_naming_line(self, weight):
        with pytest.raises(GraphFormatError, match="line 4: weight"):
            read_text(f"% header next\n2 1 001\n2 1.5\n1 {weight}\n")

    def test_zero_weight_is_legal(self):
        g = read_text("2 1 001\n2 0\n1 0\n")
        assert g.num_edges == 2 and g.weights.tolist() == [0.0, 0.0]


class TestRoundtrip:
    def test_unweighted(self, two_cliques):
        buf = io.StringIO()
        write_metis(two_cliques, buf)
        buf.seek(0)
        assert read_metis(buf) == two_cliques

    def test_weighted(self):
        g = random_graph(n=30, avg_degree=4, seed=2, weighted=True)
        buf = io.StringIO()
        write_metis(g, buf, edge_weights=True)
        buf.seek(0)
        back = read_metis(buf)
        assert back == g

    def test_file_roundtrip(self, tmp_path, two_cliques):
        p = tmp_path / "g.graph"
        write_metis(two_cliques, p)
        assert read_metis(p) == two_cliques

    def test_self_loops_dropped_on_write(self):
        from repro.graph.builder import build_csr_from_edges
        g = build_csr_from_edges([0, 0], [0, 1])
        buf = io.StringIO()
        write_metis(g, buf)
        buf.seek(0)
        back = read_metis(buf)
        assert back.num_edges == 2  # only the 0-1 edge survives
