"""Tests for edge-list and MatrixMarket I/O."""

import io
import tracemalloc

import pytest

from repro.errors import GraphFormatError, GraphStructureError
from repro.graph.io_edgelist import (
    edgelist_from_string,
    read_edgelist,
    write_edgelist,
)
from repro.graph.io_mtx import read_mtx, write_mtx


class TestEdgelistRead:
    def test_basic(self):
        g = edgelist_from_string("0 1\n1 2\n")
        assert g.num_vertices == 3
        assert g.num_edges == 4

    def test_weighted(self):
        g = edgelist_from_string("0 1 2.5\n")
        assert g.edge_weights(0).tolist() == [2.5]

    def test_comments_and_blanks(self):
        g = edgelist_from_string("# header\n% alt comment\n\n0 1\n")
        assert g.num_edges == 2

    def test_default_weight(self):
        g = edgelist_from_string("0 1\n", default_weight=4.0)
        assert g.edge_weights(0).tolist() == [4.0]

    def test_no_symmetrize(self):
        g = edgelist_from_string("0 1\n", symmetrize=False)
        assert g.num_edges == 1

    def test_malformed_line(self):
        with pytest.raises(GraphFormatError):
            edgelist_from_string("0\n")

    def test_non_numeric(self):
        with pytest.raises(GraphFormatError):
            edgelist_from_string("a b\n")

    def test_negative_id(self):
        with pytest.raises(GraphFormatError):
            edgelist_from_string("-1 0\n")

    def test_id_beyond_int32_names_line(self):
        with pytest.raises(GraphFormatError,
                           match="line 2: vertex id 3000000000 does not fit"):
            edgelist_from_string("0 1\n3000000000 1\n")

    def test_id_beyond_num_vertices_is_structural(self):
        with pytest.raises(GraphStructureError,
                           match="vertex id 5 out of range for 3 vertices"):
            edgelist_from_string("0 5\n1 2\n", num_vertices=3)

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf", "-5", "1e39"])
    def test_rejects_bad_weight_naming_line(self, weight):
        with pytest.raises(GraphFormatError, match="line 2: weight"):
            edgelist_from_string(f"0 1 1.0\n1 2 {weight}\n")

    def test_zero_weight_is_legal(self):
        g = edgelist_from_string("0 1 0\n1 2 2.5\n")
        assert sorted(g.weights.tolist()) == [0.0, 0.0, 2.5, 2.5]


class TestEdgelistRoundtrip:
    def test_roundtrip_memory(self, small_random_weighted):
        buf = io.StringIO()
        write_edgelist(small_random_weighted, buf)
        buf.seek(0)
        back = read_edgelist(
            buf, num_vertices=small_random_weighted.num_vertices
        )
        assert back == small_random_weighted

    def test_roundtrip_file(self, tmp_path, two_cliques):
        path = tmp_path / "g.txt"
        write_edgelist(two_cliques, path)
        assert read_edgelist(path) == two_cliques

    def test_directed_write_keeps_all(self, path10, tmp_path):
        p = tmp_path / "d.txt"
        write_edgelist(path10, p, directed=True)
        g = read_edgelist(p, symmetrize=False)
        assert g.num_edges == path10.num_edges

    def test_unweighted_write(self, path10):
        buf = io.StringIO()
        write_edgelist(path10, buf, write_weights=False)
        assert all(len(l.split()) == 2 for l in buf.getvalue().splitlines())


class TestMtx:
    def test_read_general_real(self):
        text = (
            "%%MatrixMarket matrix coordinate real general\n"
            "% comment\n"
            "3 3 2\n"
            "1 2 1.5\n"
            "2 3 2.0\n"
        )
        g = read_mtx(io.StringIO(text))
        assert g.num_vertices == 3
        assert g.num_edges == 4  # symmetrized
        assert g.edge_weights(0).tolist() == [1.5]

    def test_read_pattern(self):
        text = (
            "%%MatrixMarket matrix coordinate pattern general\n"
            "2 2 1\n"
            "1 2\n"
        )
        g = read_mtx(io.StringIO(text))
        assert g.edge_weights(0).tolist() == [1.0]

    def test_read_symmetric_mirrors(self):
        text = (
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "2 2 1\n"
            "2 1 3.0\n"
        )
        g = read_mtx(io.StringIO(text), symmetrize=False)
        assert g.num_edges == 2

    def test_rejects_missing_header(self):
        with pytest.raises(GraphFormatError):
            read_mtx(io.StringIO("1 1 0\n"))

    def test_rejects_rectangular(self):
        text = "%%MatrixMarket matrix coordinate real general\n2 3 0\n"
        with pytest.raises(GraphFormatError):
            read_mtx(io.StringIO(text))

    def test_rejects_out_of_bounds(self):
        text = (
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 1\n"
            "3 1 1.0\n"
        )
        with pytest.raises(GraphFormatError):
            read_mtx(io.StringIO(text))

    def test_rejects_wrong_count(self):
        text = (
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 2\n"
            "1 2 1.0\n"
        )
        with pytest.raises(GraphFormatError):
            read_mtx(io.StringIO(text))

    def test_rejects_non_numeric_token(self):
        text = (
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 1\n"
            "1 x 1.0\n"
        )
        with pytest.raises(GraphFormatError, match="line 3: bad entry"):
            read_mtx(io.StringIO(text))

    def test_rejects_rows_beyond_int32_naming_line(self):
        text = (
            "%%MatrixMarket matrix coordinate real general\n"
            "% ids past int32\n"
            "3000000000 3000000000 1\n"
            "3000000000 1 1.0\n"
        )
        with pytest.raises(GraphFormatError,
                           match="line 3: 3000000000 rows"):
            read_mtx(io.StringIO(text))

    def test_allocates_by_entries_read_not_declared(self):
        """A size line's nnz is a claim: the reader allocates for the
        entries it reads, so a 3-line file declaring 50M entries fails
        without ~400 MB of arrays."""
        text = (
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 50000000\n"
            "1 2 1.0\n"
        )
        tracemalloc.start()
        try:
            with pytest.raises(GraphFormatError,
                               match="declared 50000000 entries but found 1"):
                read_mtx(io.StringIO(text))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_rejects_non_numeric_size(self):
        text = "%%MatrixMarket matrix coordinate real general\n2 x 1\n"
        with pytest.raises(GraphFormatError, match="malformed size line"):
            read_mtx(io.StringIO(text))

    @pytest.mark.parametrize("weight", ["nan", "inf", "-5", "abc"])
    def test_rejects_bad_weight_naming_line(self, weight):
        text = (
            "%%MatrixMarket matrix coordinate real general\n"
            "% a comment line still counts\n"
            "2 2 2\n"
            "1 2 1.0\n"
            f"2 1 {weight}\n"
        )
        with pytest.raises(GraphFormatError, match="line 5: weight"):
            read_mtx(io.StringIO(text))

    def test_zero_weight_is_legal(self):
        text = (
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 1\n"
            "1 2 0\n"
        )
        g = read_mtx(io.StringIO(text))
        assert g.num_edges == 2 and g.weights.tolist() == [0.0, 0.0]

    def test_rejects_array_format(self):
        with pytest.raises(GraphFormatError):
            read_mtx(io.StringIO("%%MatrixMarket matrix array real general\n"))

    def test_roundtrip(self, tmp_path, small_random_weighted):
        p = tmp_path / "g.mtx"
        write_mtx(small_random_weighted, p)
        back = read_mtx(p, symmetrize=False)
        assert back == small_random_weighted

    def test_roundtrip_pattern(self, tmp_path, path10):
        p = tmp_path / "g.mtx"
        write_mtx(path10, p, field="pattern")
        back = read_mtx(p, symmetrize=False)
        assert back == path10

    def test_write_rejects_bad_field(self, path10, tmp_path):
        with pytest.raises(GraphFormatError):
            write_mtx(path10, tmp_path / "g.mtx", field="complex")
