from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from expected import MU_TRI_10
from trimobius import DivisibilityPoset, SequenceKind, mobius_one_var, oeis_diff
from trimobius.bfile import (
    bundled_snapshot,
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

    def test_offset_and_int_subclasses(self):
        assert format_bfile([7, True, -(2**70)], offset=0) == f"0 7\n1 True\n2 {-(2**70)}\n"


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

    def test_partial_overlap(self):
        snap = bundled_snapshot("A350682")
        report = oeis_diff(snap, MU_TRI_10[:4])
        assert report.matched
        assert (report.overlap_start, report.overlap_end) == (1, 4)

    def test_empty_overlap_is_an_error(self):
        snap = parse_bfile("5 1\n6 2\n")
        with pytest.raises(ValueError):
            oeis_diff(snap, [1, 2], offset=1)
