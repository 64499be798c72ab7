from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np
import pytest

from expected import MOBIUS_TRI_10, ZETA_TRI_10
from fuzzing import mutated
from trimobius import (
    DivisibilityPoset,
    MobiusMatrix,
    SequenceKind,
    hasse_to_dot,
    invert_zeta,
    matrix_to_csv,
    zeta_matrix,
)
from trimobius import bfile
from trimobius.cli import main
from trimobius.exports import dot_pieces, parse_dot


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

    def test_rows_span_decimal_blocks(self, tri_poset, monkeypatch):
        # 30 rows are five blocks of 7 and a part; the reference is str per value
        monkeypatch.setattr(bfile, "_BLOCK_ROWS", 7)
        zeta = zeta_matrix(tri_poset, 30)
        mobius = invert_zeta(zeta)
        assert zeta.array.dtype == np.int8 and mobius.array.dtype == np.int8  # |mu| <= 1
        assert (mobius.array < 0).any()
        extremes = MobiusMatrix(np.array([[-(2**63), 0], [2**63 - 1, -10]], dtype=np.int64))
        for matrix in (zeta, mobius, zeta_matrix(tri_poset, 1), extremes):
            expected = "".join(",".join(map(str, row)) + "\n" for row in matrix.array.tolist())
            assert matrix_to_csv(matrix) == expected

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "m.csv"
        assert main(["zeta-matrix", "-n", "10", "--out", str(path)]) == 0
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

    def test_lines_span_decimal_blocks(self, monkeypatch):
        # node and edge lines cross blocks of 7 rows; n = 14 ends the node
        # lines on a block boundary, n = 1 has no edge lines
        monkeypatch.setattr(bfile, "_BLOCK_ROWS", 7)
        for kind in SequenceKind:
            poset = DivisibilityPoset(kind, 200)
            for n in (1, 2, 14, 200):
                graph = poset.hasse_edges(n)
                lines = ["digraph hasse {", "  rankdir=BT;"]
                lines += [f"  {k};" for k in range(1, n + 1)]
                lines += [f"  {i} -> {j};" for i, j in graph.edges]
                assert hasse_to_dot(graph) == "\n".join(lines) + "\n}\n", (kind, n)

    @pytest.mark.parametrize("kind", list(SequenceKind))
    def test_pieces_file_and_cli_equal_the_text(self, kind, tmp_path, capsys, monkeypatch):
        # blocks of 7 rows, so the pieces cross many block boundaries
        monkeypatch.setattr(bfile, "_BLOCK_ROWS", 7)
        graph = DivisibilityPoset(kind, 3000).hasse_edges(3000)
        text = hasse_to_dot(graph)
        assert "".join(dot_pieces(graph)) == text
        path = tmp_path / "h.dot"
        assert main(["hasse", "--kind", kind.value, "-n", "3000", "--out", str(path)]) == 0
        assert path.read_text(encoding="ascii") == text
        assert main(["hasse", "--kind", kind.value, "-n", "3000"]) == 0
        assert capsys.readouterr().out == text

    def test_file_round_trip(self, tri_poset, tmp_path):
        graph = tri_poset.hasse_edges(20)
        path = tmp_path / "h.dot"
        assert main(["hasse", "-n", "20", "--out", str(path)]) == 0
        assert parse_dot(path.read_text()) == graph

    def test_parse_rejects_nodeless_text(self):
        with pytest.raises(ValueError):
            parse_dot("digraph {\n}\n")


# DOT-like lines with ids from 0 to past the int64 range, and any other text
_DOT_IDS = st.integers(0, 2**64).map(str)
_DOT_LINES = st.one_of(
    st.text(),
    _DOT_IDS.map(lambda i: f"  {i};"),
    st.tuples(_DOT_IDS, _DOT_IDS).map(lambda e: f"  {e[0]} -> {e[1]};"),
)
_DOT_POSETS = {kind: DivisibilityPoset(kind, 60) for kind in SequenceKind}


def _parse_dot_checked(text):
    """parse_dot(text) or None on ValueError; a parsed graph keeps the
    HasseGraph invariants and, when small, round-trips."""
    try:
        graph = parse_dot(text)
    except ValueError:
        return None
    edges = graph.edges
    assert list(edges) == sorted(set(edges))
    assert all(1 <= lower < upper <= graph.n_elements for lower, upper in edges)
    if graph.n_elements <= 10_000:
        assert parse_dot(hasse_to_dot(graph)) == graph
    return graph


class TestParseDotInput:
    @pytest.mark.parametrize(
        "text, message",
        [
            ("digraph {\n  1;\n  1 -> 99999999999999999999;\n}", "outside 1.."),
            ("digraph {\n  9223372036854775808;\n}", "outside 1.."),
            ("digraph {\n  0;\n}", "outside 1.."),
            ("digraph {\n  3;\n  5 -> 2;\n}", "not lower < upper <= 3"),
            ("digraph {\n  3;\n  1 -> 4;\n}", "not lower < upper <= 3"),
            ("digraph {\n  3;\n  2 -> 2;\n}", "not lower < upper <= 3"),
            ("digraph {\n  3;\n  1 -> 2;\n  1 -> 2;\n}", "appears twice"),
        ],
    )
    def test_rejects_hostile_text(self, text, message):
        with pytest.raises(ValueError, match=message):
            parse_dot(text)

    def test_id_past_the_digit_limit(self):
        # refused before int(), which refuses 4,300 digits and more
        with pytest.raises(ValueError) as exc:
            parse_dot("digraph {\n  1;\n  1 -> " + "9" * 5000 + ";\n}")
        assert str(exc.value) == f"DOT node id of 5000 digits is outside 1..{2**63 - 1}"
        assert parse_dot("digraph {\n  " + "0" * 30 + "5;\n}").n_elements == 5

    def test_largest_id(self):
        top = 2**63 - 1
        graph = parse_dot(f"digraph {{\n  {top};\n  1 -> {top};\n}}")
        assert graph.n_elements == top and graph.edges == ((1, top),)

    @settings(max_examples=300, deadline=None)
    @given(st.text())
    def test_any_text(self, text):
        _parse_dot_checked(text)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_DOT_LINES, max_size=12).map("\n".join))
    def test_dot_like_lines(self, text):
        _parse_dot_checked(text)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(list(SequenceKind)), st.integers(1, 60), st.data())
    def test_mutated_output(self, kind, n, data):
        text = hasse_to_dot(_DOT_POSETS[kind].hasse_edges(n))
        _parse_dot_checked(data.draw(mutated(text)))
