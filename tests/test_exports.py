from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from expected import MOBIUS_TRI_10, ZETA_TRI_10
from trimobius import (
    DivisibilityPoset,
    SequenceKind,
    hasse_to_dot,
    invert_zeta,
    matrix_to_csv,
    zeta_matrix,
)
from trimobius import exports
from trimobius.exports import export_dot, export_matrix_csv, parse_dot


class TestMatrixCsv:
    def test_zeta_row_four(self, tri_poset):
        csv = matrix_to_csv(zeta_matrix(tri_poset, 10))
        assert csv.splitlines()[3] == "1,0,0,1,0,0,0,0,0,0"

    def test_mobius_last_row(self, tri_poset):
        csv = matrix_to_csv(invert_zeta(zeta_matrix(tri_poset, 10)))
        assert csv.splitlines()[9] == "-1,0,0,0,0,0,0,0,0,1"

    def test_one_by_one(self, tri_poset):
        assert matrix_to_csv(zeta_matrix(tri_poset, 1)) == "1\n"

    def test_full_paper_matrices(self, tri_poset):
        zeta = zeta_matrix(tri_poset, 10)
        assert matrix_to_csv(zeta) == "".join(",".join(map(str, r)) + "\n" for r in ZETA_TRI_10)
        assert matrix_to_csv(invert_zeta(zeta)) == "".join(
            ",".join(map(str, r)) + "\n" for r in MOBIUS_TRI_10
        )

    def test_file_round_trip(self, tri_poset, tmp_path):
        path = tmp_path / "m.csv"
        export_matrix_csv(zeta_matrix(tri_poset, 10), path)
        rows = [
            [int(v) for v in line.split(",")] for line in path.read_text().splitlines()
        ]
        assert rows == ZETA_TRI_10


class TestDot:
    def test_edges_present(self, tri_poset):
        dot = hasse_to_dot(tri_poset.hasse_edges(20))
        assert "5 -> 14;" in dot
        assert "14 -> 20;" in dot
        assert "5 -> 20;" not in dot

    def test_single_node(self, tri_poset):
        dot = hasse_to_dot(tri_poset.hasse_edges(1))
        assert "1;" in dot
        assert "->" not in dot

    def test_rank_direction(self, tri_poset):
        assert "rankdir=BT" in hasse_to_dot(tri_poset.hasse_edges(5))

    def test_edge_line_count(self, tri_poset):
        graph = tri_poset.hasse_edges(50)
        dot = hasse_to_dot(graph)
        assert dot.count("->") == len(graph.edges)

    def test_deterministic(self, tri_poset):
        graph = tri_poset.hasse_edges(30)
        assert hasse_to_dot(graph) == hasse_to_dot(graph)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=120))
    def test_round_trip(self, n):
        poset = DivisibilityPoset(SequenceKind.TRIANGULAR, 120)
        graph = poset.hasse_edges(n)
        assert parse_dot(hasse_to_dot(graph)) == graph

    @pytest.mark.parametrize("kind", list(SequenceKind))
    def test_round_trip_arrays(self, kind):
        graph = DivisibilityPoset(kind, 3000).hasse_edges(3000)
        assert parse_dot(hasse_to_dot(graph)) == graph

    def test_edge_lines_span_slices(self, identity_poset, monkeypatch):
        graph = identity_poset.hasse_edges(200)
        expected = hasse_to_dot(graph)
        monkeypatch.setattr(exports, "_EDGE_SLICE", 7)
        assert hasse_to_dot(graph) == expected
        lines = expected.splitlines()
        assert lines[:4] == ["digraph hasse {", "  rankdir=BT;", "  1;", "  2;"]
        assert lines[202:] == [f"  {i} -> {j};" for i, j in graph.edges] + ["}"]

    def test_file_round_trip(self, tri_poset, tmp_path):
        graph = tri_poset.hasse_edges(20)
        path = tmp_path / "h.dot"
        export_dot(graph, path)
        assert parse_dot(path.read_text()) == graph

    def test_parse_rejects_nodeless_text(self):
        with pytest.raises(ValueError):
            parse_dot("digraph {\n}\n")
