from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from expected import MU_TRI_10
from trimobius import DivisibilityPoset, SequenceKind, mobius_one_var, oeis_diff
from trimobius import bfile as bfile_module
from trimobius.bfile import (
    bundled_snapshot,
    decimal_blocks,
    decimal_rows,
    export_bfile,
    format_bfile,
    load_bfile,
    parse_bfile,
)


class TestFormat:
    def test_mobius_prefix(self):
        assert format_bfile(MU_TRI_10[:3]) == "1 1\n2 -1\n3 0\n"

    def test_partial_sums_prefix(self):
        assert format_bfile([1, 0, 0]) == "1 1\n2 0\n3 0\n"

    def test_no_trailing_blank_line(self):
        text = format_bfile([5, 6, 7])
        assert text.endswith("7\n")
        assert "\n\n" not in text

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            format_bfile([])

    def test_rejects_non_integers(self):
        with pytest.raises(TypeError):
            format_bfile([1, 2.5])

    def test_error_names_the_first_non_integer(self):
        with pytest.raises(TypeError, match=r"got Fraction\(1, 2\)"):
            format_bfile([1, 2, Fraction(1, 2), 2.5, "x"])
        with pytest.raises(TypeError, match="got np.int64"):
            format_bfile([3, np.int64(4)])
        # a bool would be written as "True", which parse_bfile rejects
        with pytest.raises(TypeError, match="got False"):
            format_bfile([3, False, True])

    def test_offset_and_int_subclasses(self):
        class Index(int):
            pass

        assert format_bfile([7, Index(5), -(2**70)], offset=0) == f"0 7\n1 5\n2 {-(2**70)}\n"


EDGE_VALUES = [0, 1, -1, 9, -9, 10, -10, 99, 100, -100, 2**63 - 1, -(2**63), -(2**63) + 1]


def _reference_rows(columns, sep, end, joined=False):
    rows = [sep.join(map(str, row)) for row in zip(*columns)]
    return end.join(rows) if joined else "".join(row + end for row in rows)


class TestDecimalRows:
    """decimal_rows against f-strings of the same Python ints."""

    def _check(self, columns, sep, end, joined=False):
        expected = _reference_rows([list(col) for col in columns], sep, end, joined)
        assert decimal_rows(columns, sep, end, joined) == expected

    @pytest.fixture(params=[1 << 16, 7], ids=["block-65536", "block-7"])
    def block(self, request, monkeypatch):
        monkeypatch.setattr(bfile_module, "_BLOCK_ROWS", request.param)

    def test_edge_values(self, block):
        values = np.array(EDGE_VALUES, dtype=np.int64)
        for offset in (0, 1):
            index = range(offset, offset + len(values))
            self._check([index, values], " ", "\n")
            self._check([index, values], ",", "\n")
        self._check([values], "", ",\n    ", joined=True)
        self._check([values[::-1], values], "|", ";")

    def test_indices_cross_powers_of_ten(self, block):
        rng = np.random.default_rng(3)
        for lo, hi in ((1, 1200), (990, 1010), (99_995, 100_013), (10**12 - 3, 10**12 + 4)):
            values = rng.integers(-10**6, 10**6, size=hi - lo)
            self._check([range(lo, hi), values], " ", "\n")
            self._check([range(lo, hi)], "", ",\n    ", joined=True)

    def test_int8_columns(self, block):
        values = np.array([-128, -100, -10, -9, -1, 0, 1, 9, 10, 99, 100, 127], dtype=np.int8)
        self._check([range(1, 13), values], " ", "\n")
        self._check([values], "", ",\n    ", joined=True)

    def test_one_piece_per_block(self, monkeypatch):
        monkeypatch.setattr(bfile_module, "_BLOCK_ROWS", 7)
        columns = [range(1, 21), np.arange(-10, 10)]
        pieces = list(decimal_blocks(columns, ",", "\n"))
        assert [piece.count("\n") for piece in pieces] == [7, 7, 6]
        assert "".join(pieces) == _reference_rows([list(col) for col in columns], ",", "\n")

    def test_single_and_empty(self):
        self._check([np.array([-7])], "", ",", joined=True)
        assert decimal_rows([range(0)], "", ",", joined=True) == ""

    def test_format_bfile_array_matches_the_list_path(self, block):
        values = np.array(EDGE_VALUES, dtype=np.int64)
        for offset in (0, 1, 5):
            assert format_bfile(values, offset) == format_bfile(values.tolist(), offset)
        small = values[:7].astype(np.int8)
        assert format_bfile(small) == format_bfile(small.tolist())

    def test_format_bfile_rejects_bool_and_float_arrays(self):
        for bad in (np.array([True, False]), np.array([1.0, 2.0]), np.array([[1, 2]])):
            with pytest.raises(TypeError, match="b-file values must be exact integers"):
                format_bfile(bad)
        with pytest.raises(ValueError):
            format_bfile(np.array([], dtype=np.int64))


class TestParse:
    def test_skips_comments_and_blanks(self):
        parsed = parse_bfile("# header\n\n1 4\n2 5\n")
        assert parsed.offset == 1
        assert parsed.terms() == [4, 5]

    def test_malformed_line(self):
        with pytest.raises(ValueError):
            parse_bfile("1 2 3\n")
        with pytest.raises(ValueError):
            parse_bfile("1 x\n")

    def test_non_contiguous(self):
        with pytest.raises(ValueError):
            parse_bfile("1 1\n3 2\n")

    def test_empty_file(self):
        with pytest.raises(ValueError):
            parse_bfile("# nothing\n")

    @given(st.lists(st.integers(), min_size=1, max_size=60), st.integers(0, 5))
    def test_round_trip(self, terms, offset):
        parsed = parse_bfile(format_bfile(terms, offset=offset))
        assert parsed.offset == offset
        assert parsed.terms() == terms


class TestExport:
    def test_writes_exact_bytes(self, tmp_path):
        path = tmp_path / "b.txt"
        export_bfile([1, -1, 0], path)
        assert path.read_text() == "1 1\n2 -1\n3 0\n"
        assert load_bfile(path).terms() == [1, -1, 0]


class TestBundledSnapshots:
    def test_mobius_snapshot_contents(self):
        snap = bundled_snapshot("A350682")
        assert snap.offset == 1
        assert snap.terms() == MU_TRI_10

    def test_partial_sum_snapshot_is_consistent(self):
        mu = bundled_snapshot("A350682").terms()
        sums = bundled_snapshot("A351167").terms()
        acc = 0
        for value, expected in zip(mu, sums):
            acc += value
            assert acc == expected

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            bundled_snapshot("A000000")


class TestOeisDiff:
    def test_computed_matches_snapshot(self):
        poset = DivisibilityPoset(SequenceKind.TRIANGULAR, 10)
        vec = mobius_one_var(poset, 10)
        report = oeis_diff(bundled_snapshot("A350682"), vec.terms())
        assert report.matched
        assert report.overlap_length == 10
        assert "match" in report.summary()

    def test_corrupted_term_is_located(self):
        corrupted = parse_bfile("1 1\n2 -1\n3 5\n4 -1\n")
        report = oeis_diff(corrupted, MU_TRI_10)
        assert not report.matched
        assert report.first_mismatch == 3
        assert report.expected == 5
        assert report.actual == 0

    def test_array_terms_report_python_ints(self):
        corrupted = parse_bfile("1 1\n2 0\n3 7\n")
        report = oeis_diff(corrupted, np.cumsum(np.array(MU_TRI_10), dtype=np.int64))
        assert (report.first_mismatch, report.expected, report.actual) == (3, 7, 0)
        assert type(report.expected) is int and type(report.actual) is int
        assert report.summary() == "mismatch at index 3: reference 7, computed 0"

    def test_partial_overlap(self):
        snap = bundled_snapshot("A350682")
        report = oeis_diff(snap, MU_TRI_10[:4])
        assert report.matched
        assert (report.overlap_start, report.overlap_end) == (1, 4)

    def test_empty_overlap_is_an_error(self):
        snap = parse_bfile("5 1\n6 2\n")
        with pytest.raises(ValueError):
            oeis_diff(snap, [1, 2], offset=1)
