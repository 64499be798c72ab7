import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from expected import MU_TRI_10
from fuzzing import mutated
from trimobius import DivisibilityPoset, SequenceKind, mobius_one_var, oeis_diff
from trimobius import bfile as bfile_module
from trimobius.bfile import (
    bfile_pieces,
    bundled_snapshot,
    decimal_blocks,
    fixed_text,
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
    """The text of decimal_blocks against f-strings of the same Python ints."""

    def _check(self, columns, sep, end, joined=False):
        expected = _reference_rows([list(col) for col in columns], sep, end, joined)
        assert "".join(decimal_blocks(columns, sep, end, joined)) == expected

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
        assert "".join(decimal_blocks([range(0)], "", ",", joined=True)) == ""

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


def _check_fixed(values):
    """fixed_text of one float64 column against format(v, ".2f") per value."""
    values = np.asarray(values, dtype=np.float64)
    expected = "".join(format(v, ".2f") + "\n" for v in values.tolist())
    assert fixed_text([values], "", "\n") == expected


class TestFixedText:
    """fixed_text against Python's "{:.2f}" of the same floats."""

    def test_seeded_uniform(self):
        rng = np.random.default_rng(17)
        _check_fixed(rng.uniform(0, 1000, 200_000))
        _check_fixed(rng.uniform(-1000, 1000, 20_000))

    def test_dyadic_ties(self):
        # k / 8 is exact in float64; every odd k / 8 is a tie at the cents
        ties = np.arange(-8 * 1000, 8 * 1000 + 1) / 8
        _check_fixed(ties)

    def test_neighbours_of_half_cents(self):
        half_cents = (np.arange(0, 100_000) + 0.5) / 100
        _check_fixed(np.nextafter(half_cents, np.inf))
        _check_fixed(np.nextafter(half_cents, -np.inf))
        _check_fixed(-np.nextafter(half_cents, np.inf))

    def test_carries_into_a_new_digit(self):
        for top in (0.995, 9.995, 99.995, 999.995, 9999.995, 99999.995):
            around = [np.nextafter(top, -np.inf), top, np.nextafter(top, np.inf)]
            _check_fixed([*around, top + 0.004, top - 0.004, -top])

    def test_values_python_decides(self):
        _check_fixed([np.nan, np.inf, -np.inf, -0.0, 0.0, -0.004, -0.005, -0.006, 5e-324,
                      2.0**31 / 100, 1e10, -1e300, 21474836.475])

    def test_rows_mix_the_kernel_and_python(self):
        xs = np.array([1.0, 0.125, 3.14159, -0.001, 12.5, np.nan, 99.999])
        ys = xs[::-1].copy()
        expected = "".join(f"{x:.2f},{y:.2f} " for x, y in zip(xs.tolist(), ys.tolist()))
        assert fixed_text([xs, ys], ",", " ") == expected

    @given(st.lists(st.floats(0, 1e4, exclude_max=True), min_size=1, max_size=50))
    def test_any_value_below_1e4(self, values):
        _check_fixed(values)


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


def _parse_bfile_checked(text):
    """parse_bfile(text) or None on ValueError; a parsed b-file round-trips."""
    try:
        parsed = parse_bfile(text)
    except ValueError:
        return None
    assert parse_bfile(format_bfile(parsed.terms(), offset=parsed.offset)) == parsed
    return parsed


class TestParseInput:
    @pytest.mark.parametrize(
        "line", ["1 1_0", "1 +5", "+1 5", "1 \u0663", "\u0661 5", "1 --5", "1 5-", "1 0x5", "1 ５"]
    )
    def test_fields_are_ascii_decimals(self, line):
        with pytest.raises(ValueError, match="non-integer field"):
            parse_bfile(line + "\n")

    def test_field_past_the_digit_limit(self):
        # int() refuses 4,300 digits and more, with a message of its own
        with pytest.raises(ValueError) as exc:
            parse_bfile("1 1\n2 5" + "0" * 5000 + "\n")
        assert str(exc.value) == "line 2: a field is too long to convert"

    def test_signs_and_leading_zeros(self):
        assert parse_bfile("-1 -0\n0 007\n1 -12\n").lines == ((-1, 0), (0, 7), (1, -12))

    @given(st.text())
    def test_any_text(self, text):
        _parse_bfile_checked(text)

    @given(st.lists(st.integers(), min_size=1, max_size=20), st.integers(-3, 5), st.data())
    def test_mutated_output(self, terms, offset, data):
        _parse_bfile_checked(data.draw(mutated(format_bfile(terms, offset=offset))))


def _write_bfile(path, terms, offset=1):
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(bfile_pieces(terms, offset))


class TestExport:
    def test_writes_exact_bytes(self, tmp_path):
        path = tmp_path / "b.txt"
        _write_bfile(path, [1, -1, 0])
        assert path.read_text() == "1 1\n2 -1\n3 0\n"
        assert load_bfile(path).terms() == [1, -1, 0]

    def test_array_is_streamed_in_blocks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(bfile_module, "_BLOCK_ROWS", 7)
        values = np.arange(-10, 10, dtype=np.int64) ** 3
        assert len(list(bfile_pieces(values))) == 3
        path = tmp_path / "b.txt"
        _write_bfile(path, values, offset=0)
        assert path.read_text() == format_bfile(values.tolist(), offset=0)

    def test_bad_terms_raise_before_any_piece(self):
        # bfile_pieces checks eagerly: the call raises, not the first next()
        for bad, error in (([], ValueError), ([1, 2.5], TypeError),
                           (np.array([1.0]), TypeError)):
            with pytest.raises(error):
                bfile_pieces(bad)


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
            oeis_diff(snap, [1, 2])

    @pytest.mark.memory
    def test_only_the_overlap_of_an_array_is_converted(self):
        snap = bundled_snapshot("A351167")
        terms = np.zeros(10**6, dtype=np.int64)
        terms[:10] = snap.terms()
        tracemalloc.start()
        try:
            report = oeis_diff(snap, terms)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.matched and report.overlap_length == 10
        assert peak < 1 << 20  # .tolist() of the whole array takes ~36 MB
