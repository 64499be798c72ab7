import itertools
import math
import random
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from expected import (
    FIRST_EQ,
    FIRST_GEQ,
    FIRST_GEQ_SIGNED,
    MERTENS_TRI_SPOT,
    MU_SPOT,
    MU_TRI_10,
)
from trimobius import analysis as analysis_module
from trimobius import (
    DivisibilityPoset,
    MobiusVector,
    SequenceKind,
    SeriesReport,
    abs_sums,
    classical_mertens,
    classical_mobius,
    estimate_C,
    magnitude_records,
    mertens_tri,
    mobius_one_var,
    ratio_sums_index,
    ratio_sums_triangular,
)
from trimobius.poset import sequence_values

TRI = SequenceKind.TRIANGULAR


def _vec(terms, kind=TRI):
    return MobiusVector(kind=kind, values=np.array((0, *terms), dtype=np.int64))


@pytest.fixture(scope="module")
def mu1000(tri_poset):
    return mobius_one_var(tri_poset, 1000)


class TestMertens:
    def test_first_ten(self):
        report = mertens_tri(_vec(MU_TRI_10))
        assert report.ys.dtype == np.int8  # int_type(10 terms times |mu| <= 1)
        assert report.ys.tolist() == [1, 0, 0, -1, -1, -1, -2, -2, -2, -3]
        assert report.final_value == -3

    def test_single_term(self):
        assert mertens_tri(_vec([1])).ys.tolist() == [1]

    def test_telescoping(self, mu1000):
        report = mertens_tri(mu1000)
        for n in range(2, 1001):
            assert report.ys[n - 1] - report.ys[n - 2] == mu1000.value(n)

    def test_spot_value_1000(self, mu1000):
        assert mertens_tri(mu1000).final_value == MERTENS_TRI_SPOT[1000]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            mertens_tri(_vec([]))


class TestAbsSums:
    def test_first_ten(self):
        report = abs_sums(_vec(MU_TRI_10))
        assert report.final_value == 5
        assert report.slope_estimate == Fraction(5, 10)

    def test_nondecreasing_and_dominates(self, mu1000):
        up = abs_sums(mu1000)
        signed = mertens_tri(mu1000)
        prev = 0
        for a, s in zip(up.ys, signed.ys):
            assert a >= prev
            assert a >= abs(s)
            prev = a


class TestExactPartialSums:
    def test_plain_ints_and_slopes(self, mu1000):
        mertens = mertens_tri(mu1000)
        # the sums' own type: |M_T| <= 33 and sum |mu_T| = 471 through 1000
        for report, dtype in ((mertens, np.int8), (abs_sums(mu1000), np.int16)):
            assert report.ys.dtype == dtype
            ys = report.ys.tolist()
            assert type(report.final_value) is int and report.final_value == ys[-1]
            slope = report.slope_estimate
            assert type(slope.numerator) is int and type(slope.denominator) is int
            assert report.slope_lsq == _float_list_lsq_slope(ys)
        ys = mertens.ys.tolist()
        assert mertens.slope_estimate == Fraction(ys[-1] - ys[0], len(ys) - 1)

    def test_classical_sums_from_int8(self):
        report = classical_mertens(classical_mobius(1000))
        assert report.ys.dtype == np.int8  # |M(n)| <= 12 through 1000
        assert type(report.final_value) is int
        assert report.ys.tolist() == list(
            itertools.accumulate(classical_mobius(1000).terms())
        )

    def test_overflow_raises_before_the_cumsum(self):
        for values in ([2**62, 2**62], [2**62, -(2**62)], [-(2**63)]):
            with pytest.raises(OverflowError):
                mertens_tri(_vec(values))
            with pytest.raises(OverflowError):
                abs_sums(_vec(values))
        assert mertens_tri(_vec([2**62 - 1, 2**62 - 1])).final_value == 2**63 - 2

    def test_classical_sums_hold_one_array(self):
        sieve = classical_mobius(10**6)
        tracemalloc.start()
        try:
            classical_mertens(sieve)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # ys is 2 MB of int16 (4 MB of int32 under the bound N * max |mu|);
        # an int64 copy of the int8 terms and a whole-array slope took ~24 MB
        assert peak < 3 << 20

    def test_abs_sums_hold_one_array(self):
        mu = MobiusVector(SequenceKind.IDENTITY, classical_mobius(10**6).values.astype(np.int64))
        tracemalloc.start()
        try:
            abs_sums(mu)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 << 20  # an np.abs copy of the terms took ~32 MB

    def test_ratio_sums_hold_ys_and_a_block(self):
        mu = classical_mobius(10**6)
        tracemalloc.start()
        try:
            report = ratio_sums_index(mu)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # ys is 8 MB of float64; blocks of 2**16 terms took 3.6 MB beside it.
        # This run takes a second fixed-point pass, at twice the limbs.
        assert peak < report.ys.nbytes + (2 << 20)

    @pytest.mark.parametrize(
        "terms, dtype",
        [
            ([127], np.int8), ([-127], np.int8), ([128], np.int16), ([-128], np.int16),
            ([1] * 127, np.int8), ([1] * 128, np.int16), ([64, 64], np.int16),
            ([32767], np.int16), ([-32768], np.int32), ([16384, 16384], np.int32),
            ([2**31 - 1], np.int32), ([-(2**31 - 1)], np.int32),
            ([2**30, 2**30], np.int64), ([-(2**31)], np.int64),
        ],
    )
    @pytest.mark.parametrize("absolute", [False, True])
    def test_sums_take_the_narrowest_type_of_their_values(self, terms, dtype, absolute):
        # the largest |sum| must fit the type as +value, not only as -value:
        # [64, 64] sums to 128, which int8 wraps to -128
        ys = analysis_module._partial_sums(np.array(terms, dtype=np.int64), absolute)
        expected = itertools.accumulate(map(abs, terms) if absolute else terms)
        assert ys.tolist() == list(expected)
        assert ys.dtype == dtype

    @pytest.mark.parametrize(
        "terms, dtype, absolute",
        [
            # cancelling sums: the bound 128 * 100 needs int16, the sums int8
            ([100, -100] * 64, np.int8, False),
            ([-100, 100] * 64, np.int8, False),
            # an int8 -128 is 128 as a magnitude, which int8 cannot hold
            ([-128] + [0] * 255, np.int16, True),
            ([-128] + [0] * 255, np.int16, False),
            ([-128, 127] * 200, np.int16, False),
            ([-128, 127] * 200, np.int32, True),
        ],
    )
    def test_sums_of_small_values_under_a_large_bound(self, terms, dtype, absolute):
        values = np.array(terms, dtype=np.int8)
        ys = analysis_module._partial_sums(values, absolute)
        expected = itertools.accumulate(map(abs, terms) if absolute else terms)
        assert ys.tolist() == list(expected)
        assert ys.dtype == dtype

    @pytest.mark.parametrize("absolute", [False, True])
    def test_both_passes_carry_across_blocks(self, monkeypatch, absolute):
        monkeypatch.setattr(analysis_module, "_RATIO_BLOCK", 7)
        rng = random.Random(11)
        for n, top in ((1, 5), (7, 100), (8, 100), (300, 127), (1000, 3000)):
            terms = [rng.randint(-top, top) for _ in range(n)]
            ys = analysis_module._partial_sums(np.array(terms, dtype=np.int16), absolute)
            expected = list(itertools.accumulate(map(abs, terms) if absolute else terms))
            assert ys.tolist() == expected
            assert ys.dtype == np.min_scalar_type(-max(map(abs, expected)) - 1)


def _float_list_lsq_slope(ys):
    """The original slope: one float() per value, then the same float64 formula."""
    fx = np.arange(1, len(ys) + 1, dtype=np.float64)
    fy = np.asarray([float(v) for v in ys], dtype=np.float64)
    return float(((fx - fx.mean()) * (fy - fy.mean())).sum() / ((fx - fx.mean()) ** 2).sum())


_BIG = [2**53 + 1, 2**60 + 3, -(2**63) - 5, 2**70 + 1, 3 * 2**80 - 1]
_FRACTIONS = [Fraction(1, 3), Fraction(-2**60, 7), Fraction(10**30 + 1, 10**12)]


def _slope_inputs(n):
    """An int64 walk, a float64 series and the big/fraction list, each of n terms."""
    rng = np.random.default_rng(n)
    walk = np.cumsum(rng.integers(-1, 2, n))
    floats = np.cumsum(rng.standard_normal(n)) * 1e3
    mixed = list(itertools.islice(itertools.cycle(_BIG + _FRACTIONS), n))
    return walk, floats, mixed


class TestLsqSlope:
    def test_bulk_conversion_is_bit_identical(self):
        for ys in (_BIG, _FRACTIONS, _BIG + _FRACTIONS + [0.1, -7.25], list(range(40))):
            assert analysis_module._lsq_slope(ys) == _float_list_lsq_slope(ys)

    @pytest.mark.parametrize("leaf", [128, 200])
    @pytest.mark.parametrize("n", [2, 7, 8, 9, 127, 128, 129, 255, 256, 257, 1000])
    def test_small_leaves_follow_the_pairwise_tree(self, monkeypatch, leaf, n):
        monkeypatch.setattr(analysis_module, "_RATIO_BLOCK", leaf)
        for ys in _slope_inputs(n):
            assert analysis_module._lsq_slope(ys) == _float_list_lsq_slope(ys)

    @pytest.mark.parametrize("n", [2**16 - 1, 2**16, 2**16 + 1, 2**17 + 9, 10**6 + 3])
    def test_default_leaves_follow_the_pairwise_tree(self, n):
        for ys in _slope_inputs(n):
            assert analysis_module._lsq_slope(ys) == _float_list_lsq_slope(ys)

    def test_holds_one_block(self):
        ys = np.cumsum(np.random.default_rng(3).integers(-1, 2, 10**6))
        tracemalloc.start()
        try:
            analysis_module._lsq_slope(ys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20  # two whole float64 copies took ~16 MB

    def test_float_input_is_not_modified(self):
        ys = np.array([3.0, -1.5, 2.25, 8.0])
        before = ys.copy()
        assert analysis_module._lsq_slope(ys) == _float_list_lsq_slope(before.tolist())
        assert np.array_equal(ys, before)

    def test_classical_mertens_slope_from_the_integer_sums(self):
        report = classical_mertens(classical_mobius(10**5))
        assert report.slope_lsq == _float_list_lsq_slope(report.ys)


def _running_fractions(terms, denominators):
    """float() of each exact partial sum of terms[k] / denominators[k]."""
    total, out = Fraction(0), []
    for t, d in zip(terms, denominators):
        total += Fraction(t, d)
        out.append(float(total))
    return out


def _certified_sums(terms, denominators, bits=240):
    """float() of each exact partial sum of terms[k] / denominators[k], in Python ints.

    The running sum V of t * floor(2**bits / d) is within A = sum |t| units
    of 2**-bits of the exact sum, so an entry whose interval (V - A, V + A)
    rounds one way (int / int is correctly rounded) is that float; any
    other entry, such as an exact 0, is float() of its Fraction.
    """
    one, total, slack, out = 1 << bits, 0, 0, []
    for k, (t, d) in enumerate(zip(terms, denominators), 1):
        total += t * (one // d)
        slack += abs(t)
        low, high = (total - slack) / one, (total + slack) / one
        if low != high:
            low = float(sum(map(Fraction, terms[:k], denominators[:k]), Fraction(0)))
        out.append(low)
    return out


def _values(kind, n):
    return sequence_values(kind, np.arange(1, n + 1, dtype=np.uint64)).tolist()


class TestRatioSums:
    def test_tiny_prefixes(self):
        one = ratio_sums_index(_vec([1]))
        assert one.ys.dtype == np.float64 and one.ys.tolist() == [1.0]
        assert type(one.final_value) is Fraction and one.final_value == 1
        assert one.slope_estimate == 0
        two = ratio_sums_index(_vec([1, -1]))
        assert two.ys.tolist() == [1.0, 0.5] and two.final_value == Fraction(1, 2)
        assert two.slope_estimate == Fraction(-1, 2)
        tri = ratio_sums_triangular(_vec([1, -1]))
        assert tri.ys.tolist() == [1.0, 2 / 3] and tri.final_value == Fraction(2, 3)
        assert tri.slope_estimate == Fraction(-1, 3)

    @pytest.mark.parametrize("ratio_sums", [ratio_sums_index, ratio_sums_triangular])
    def test_all_zero_terms_give_an_exact_zero(self, ratio_sums):
        # no nonzero term to sum: the exact final value is still a Fraction
        for n in (1, 2, 2000):
            report = ratio_sums(_vec([0] * n))
            assert _bits(report.ys) == _bits(np.zeros(n))
            assert type(report.final_value) is Fraction and report.final_value == 0
            assert type(report.slope_estimate) is Fraction and report.slope_estimate == 0

    def test_exact_prefix_is_rational(self, mu1000):
        report = ratio_sums_index(mu1000)
        exact = sum(Fraction(t, n) for n, t in enumerate(mu1000.terms(), 1))
        assert report.ys.dtype == np.float64
        assert report.ys.tolist() == _running_fractions(mu1000.terms(), range(1, 1001))
        assert type(report.final_value) is Fraction and report.final_value == exact
        assert type(report.slope_estimate) is Fraction
        assert report.slope_estimate == (exact - 1) / 999

    def test_telescoping(self, mu1000):
        # the exact sums through n - 1 and through n differ by mu(n)/n
        terms = mu1000.terms()
        for n in range(2, 1001, 3):
            before = ratio_sums_index(_vec(terms[: n - 1])).final_value
            after = ratio_sums_index(_vec(terms[:n])).final_value
            assert after - before == Fraction(mu1000.value(n), n), n

    def test_float_tail_beyond_exact_limit(self, mu1000, monkeypatch):
        exact = ratio_sums_index(mu1000).final_value
        monkeypatch.setattr(analysis_module, "EXACT_RATIO_LIMIT", 100)
        report = ratio_sums_index(mu1000)
        assert report.ys.tolist() == _running_fractions(mu1000.terms(), range(1, 1001))
        assert type(report.final_value) is float and report.final_value == report.ys[-1]
        assert report.final_value == float(exact)
        assert type(report.slope_estimate) is float
        assert report.slope_estimate == (report.ys[-1] - 1.0) / 999

    def test_identity_kind_value_denominator(self):
        # identity kind: value(n) == n, so both ratio series coincide
        poset = DivisibilityPoset(SequenceKind.IDENTITY, 50)
        vec = mobius_one_var(poset, 50)
        index, value = ratio_sums_index(vec), ratio_sums_triangular(vec)
        assert _bits(index.ys) == _bits(value.ys)
        assert index.final_value == value.final_value
        assert index.slope_estimate == value.slope_estimate

    def test_exact_zeros(self):
        # 1 - 3/3, -1 + 3/3 (whose fixed-point sum is negative) and 1 - 2/2
        # are 0, as +0.0; so is the sum of a leading run of zero terms
        for terms, ratio_sums in (([1, -3, 0, 5], ratio_sums_triangular),
                                  ([-1, 3, 0, 5], ratio_sums_triangular),
                                  ([1, -2, 0, 5], ratio_sums_index),
                                  ([0] * 40 + [1, -1], ratio_sums_index)):
            n = len(terms)
            kind = TRI if ratio_sums is ratio_sums_triangular else SequenceKind.IDENTITY
            expected = _running_fractions(terms, _values(kind, n))
            assert _bits(ratio_sums(_vec(terms)).ys) == _bits(expected)
        assert _bits(ratio_sums_index(_vec([0] * 20_000)).ys) == _bits(np.zeros(20_000))

    def test_undecided_entry_is_reported(self):
        # every sum from n = 2 on is exactly 0, which the fixed-point passes
        # certify only while 2**(-2n - 3) is above their precision
        with pytest.raises(ArithmeticError) as info:
            ratio_sums_triangular(_vec([1, -3] + [0] * 2000))
        found = re.fullmatch(r"ratio sum at n=(\d+) left undecided",
                             str(info.value))
        assert found and 2 < int(found[1]) < 2002

    def test_no_limb_bit_left(self):
        with pytest.raises(OverflowError, match="no bit of an int64 limb"):
            ratio_sums_index(_vec([2**62]))
        # one bit left: limbs of one bit, 64 of them for the integer part
        assert ratio_sums_index(_vec([2**62 - 1])).ys.tolist() == [2.0**62]


def _bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


def _assert_matches_reference(report, terms, denominators, reference=_certified_sums):
    """Bit-equal ys, and the final value and slopes the series reports."""
    ys = reference(terms, denominators)
    n = len(terms)
    assert report.ys.dtype == np.float64 and _bits(report.ys) == _bits(ys)
    if n <= analysis_module.EXACT_RATIO_LIMIT:
        final, first = sum(map(Fraction, terms, denominators), Fraction(0)), Fraction(terms[0])
    else:
        final, first = ys[-1], ys[0]
    slope = (final - first) / (n - 1) if n > 1 else Fraction(0)
    assert type(report.final_value) is type(final) and report.final_value == final
    assert type(report.slope_estimate) is type(slope) and report.slope_estimate == slope
    assert report.slope_lsq == (_float_list_lsq_slope(ys) if n > 1 else 0.0)


def _random_mu(seed, n, kind=TRI, top=30):
    """Seeded Mobius-like terms: mostly zero, mu(1) = 1, magnitudes up to top."""
    rng = np.random.default_rng(seed)
    values = rng.integers(-top, top + 1, n + 1) * (rng.random(n + 1) < 0.45)
    values[:2] = 0, 1
    return MobiusVector(kind=kind, values=values.astype(np.int64))


class TestRatioArrays:
    """The fixed-point sums against the exact ones, bit for bit."""

    @pytest.mark.parametrize("exact_limit", [0, 100, 10_000])
    @pytest.mark.parametrize("n", [1, 2, 99, 101, 9_999, 70_000])
    def test_random_mu(self, n, exact_limit, monkeypatch):
        # seed 70,000 gives exact zeros at n = 3 and 4 of the value series
        monkeypatch.setattr(analysis_module, "EXACT_RATIO_LIMIT", exact_limit)
        vec = _random_mu(n, n)
        for ratio_sums, kind in ((ratio_sums_index, SequenceKind.IDENTITY),
                                 (ratio_sums_triangular, TRI)):
            _assert_matches_reference(ratio_sums(vec), vec.terms(), _values(kind, n))

    @pytest.mark.parametrize("exact_limit", [0, 5, 100, 10_000])
    def test_blocks_of_seven(self, exact_limit, monkeypatch):
        monkeypatch.setattr(analysis_module, "_RATIO_BLOCK", 7)
        monkeypatch.setattr(analysis_module, "EXACT_RATIO_LIMIT", exact_limit)
        for seed, n in ((1, 1), (2, 7), (3, 8), (4, 2000)):
            vec = _random_mu(seed, n)
            for ratio_sums, kind in ((ratio_sums_index, SequenceKind.IDENTITY),
                                     (ratio_sums_triangular, TRI)):
                _assert_matches_reference(ratio_sums(vec), vec.terms(), _values(kind, n),
                                          reference=_running_fractions)

    def test_triangular_mu_1e5(self, tri_poset_1e5):
        vec = mobius_one_var(tri_poset_1e5)
        for ratio_sums, kind in ((ratio_sums_index, SequenceKind.IDENTITY),
                                 (ratio_sums_triangular, TRI)):
            _assert_matches_reference(ratio_sums(vec), vec.terms(), _values(kind, 10**5))

    @pytest.mark.parametrize("n", [10**5, 10**6])
    def test_classical_mu(self, n):
        # at 1e6 seven entries lie too near a rounding boundary for the
        # first pass and take the second
        vec = classical_mobius(n)
        report = ratio_sums_index(vec)
        _assert_matches_reference(report, vec.terms(), range(1, n + 1))
        assert _bits(ratio_sums_triangular(vec).ys) == _bits(report.ys)

    @pytest.mark.parametrize("guard", [-60, -30])
    def test_extra_passes(self, guard, monkeypatch):
        # a first pass of guard + 17 fraction bits (17 the bit length of
        # 3000 * 30), rounded up to limbs of 26, decides few entries; the
        # later passes, at twice and four times its limbs, fill the rest
        monkeypatch.setattr(analysis_module, "_GUARD_BITS", guard)
        passes = []
        certified = analysis_module._certified

        def spy(x, *args):
            done = certified(x, *args)
            passes.append((len(x), int(np.isnan(done).sum())))
            return done

        monkeypatch.setattr(analysis_module, "_certified", spy)
        vec = _random_mu(5, 3000)
        _assert_matches_reference(ratio_sums_index(vec), vec.terms(), range(1, 3001))
        rows = sorted({r for r, _ in passes})
        assert len(rows) == 3 and rows[1] - 1 == 2 * (rows[0] - 1)
        assert sum(left for r, left in passes if r == rows[0]) > 0


def _limbs(values, width, rows):
    """Int64 columns of limbs of the Python ints, x[j] counting 2**(width * (rows - 1 - j))."""
    x = np.zeros((rows, len(values)), dtype=np.int64)
    for c, v in enumerate(values):
        for j in range(rows - 1, 0, -1):
            v, x[j, c] = divmod(v, 1 << width)
        x[0, c] = v
    return x


class TestCertified:
    """_certified next to rounding boundaries, against Python's int / int."""

    @pytest.mark.parametrize("width", [26, 18, 13, 7, 1])
    def test_the_whole_interval_rounds_to_each_result(self, width):
        rng = random.Random(width)
        whole = -(-5 // width)  # integer limbs for |values| below 16
        rows = whole + -(-150 // width)
        bits = width * (rows - whole)
        for _ in range(40):
            y = rng.choice([-1, 1]) * rng.uniform(1, 2) * 2.0 ** rng.randint(-40, 3)
            slack = rng.choice([1, 2, rng.randint(1, 1 << 20), rng.randint(1, 1 << 40), 1 << 90])
            near = (Fraction(y) + Fraction(math.nextafter(y, math.inf))) / 2 * 2**bits
            middle = math.floor(near)
            values = [middle + rng.randint(-4 * slack, 4 * slack) for _ in range(20)]
            values += [middle + d for d in (-slack, -slack + 1, 0, 1, slack - 1, slack)]
            values.append(int(Fraction(y) * 2**bits))  # y itself
            x = _limbs(values, width, rows)
            k = np.full(len(values), 10**6)  # far from any exact 0
            got = analysis_module._certified(x, k, slack, width, whole)
            for v, result in zip(values, got.tolist()):
                if not math.isnan(result):
                    ends = {(v - slack + 1) / 2**bits, (v + slack - 1) / 2**bits}
                    assert ends == {result}, (width, v, slack)
            if slack < 1 << 40:
                assert got[-1] == y

    def test_exact_zero_only_near_zero(self):
        # within 2**(-2k - 3) of 0 an interval certifies +0.0, and only there
        width, rows = 26, 7  # 2**-156 units
        values = [0, -1, 5, -5, 1 << 60, -(1 << 60)]
        for k, expected in ((10, [0.0] * 4 + [2.0**-96, -(2.0**-96)]),
                            (100, [math.nan] * 4 + [2.0**-96, -(2.0**-96)])):
            got = analysis_module._certified(_limbs(values, width, rows), np.full(6, k), 8, width, 1)
            assert list(map(repr, got.tolist())) == list(map(repr, expected))


class TestMagnitudeRecords:
    def test_small_prefix(self):
        table = magnitude_records(_vec(MU_TRI_10))
        assert len(table.rows) == 1
        assert table.rows[0].magnitude == 1
        assert table.rows[0].first_at_least == 1
        assert table.rows[0].first_equal == 1

    def test_derived_records_at_10k(self, mu_tri_10k):
        vec, _ = mu_tri_10k
        table = magnitude_records(vec)
        assert {r.magnitude: r.first_at_least for r in table.rows} == FIRST_GEQ
        assert {r.magnitude: r.first_equal for r in table.rows} == FIRST_EQ

    def test_signed_records_at_10k(self, mu_tri_10k):
        vec, _ = mu_tri_10k
        table = magnitude_records(vec, signed=True)
        assert {r.magnitude: r.first_at_least for r in table.rows} == FIRST_GEQ_SIGNED

    def test_spot_magnitudes(self, mu_tri_10k):
        vec, _ = mu_tri_10k
        for n, value in MU_SPOT.items():
            assert vec.value(n) == value

    def test_geq_column_monotone(self, mu_tri_10k):
        vec, _ = mu_tri_10k
        rows = magnitude_records(vec).rows
        firsts = [r.first_at_least for r in rows]
        assert firsts == sorted(firsts)

    @pytest.mark.parametrize("signed", [False, True])
    def test_matches_the_element_loop(self, signed, tri_poset_1e5):
        rng = np.random.default_rng(8)
        vectors = [
            rng.integers(-6, 7, size=500),
            # magnitudes 3 and 5 never occur, so first_equal is None there
            rng.choice([-7, -6, -4, -2, -1, 0, 1, 2, 4, 6, 7], size=2000),
            rng.integers(-40, 3, size=300),
            np.zeros(10, dtype=np.int64),
            np.array([-3, 0, 2, 9, 2, 9]),
        ]
        for terms in vectors:
            vec = _vec(terms.tolist())
            assert magnitude_records(vec, signed).rows == _loop_records(terms.tolist(), signed)
        vec = mobius_one_var(tri_poset_1e5)
        assert magnitude_records(vec, signed).rows == _loop_records(vec.terms(), signed)

    def test_int8_minimum_does_not_wrap(self):
        # np.abs(-128) is -128 in int8; the records must read 128, as int64 does
        values = np.array([0, -128, 1], dtype=np.int8)
        table = magnitude_records(MobiusVector(TRI, values))
        assert len(table.rows) == 128 and table.first_at_least(1) == 1
        assert table.rows == magnitude_records(MobiusVector(TRI, values.astype(np.int64))).rows

    def test_lookup_helpers(self, mu_tri_10k):
        vec, _ = mu_tri_10k
        table = magnitude_records(vec)
        assert table.first_at_least(2) == 44
        assert table.first_equal(8) == 2079
        assert table.first_at_least(99) is None


def _loop_records(terms, signed):
    """The original per-element loop, kept as the reference."""
    first_geq, first_eq, top = {}, {}, 0
    for n, t in enumerate(terms, start=1):
        v = t if signed else abs(t)
        if v < 1:
            continue
        if v > top:
            for m in range(top + 1, v + 1):
                first_geq[m] = n
            top = v
        first_eq.setdefault(v, n)
    return tuple(
        analysis_module.MagnitudeRecord(m, first_geq[m], first_eq.get(m))
        for m in range(1, top + 1)
    )


class TestEstimateC:
    def test_exact_linear_decay(self):
        report = mertens_tri(_vec([-1] * 50))
        assert estimate_C(report, 5) == 1

    def test_positive_drift_rejects_conjecture(self):
        report = mertens_tri(_vec([1] * 50))
        assert estimate_C(report, 5) == -1

    def test_empty_window(self):
        report = mertens_tri(_vec([1, -1, 0]))
        with pytest.raises(ValueError):
            estimate_C(report, 3)
        with pytest.raises(ValueError):
            estimate_C(report, 0)

    def test_returns_exact_rational(self, mu1000):
        # window starts past the last zero-touch of the sums (n = 345)
        c = estimate_C(mertens_tri(mu1000), 400)
        assert isinstance(c, Fraction)
        assert type(c.numerator) is int and type(c.denominator) is int
        assert c > 0

    def test_min_over_window_catches_positive_excursion(self, mu1000):
        # the sums reach +1 at n = 288, so a window covering it goes negative
        assert estimate_C(mertens_tri(mu1000), 100) == Fraction(-1, 288)

    def test_default_window_is_last_nine_tenths(self, mu1000):
        report = mertens_tri(mu1000)
        assert estimate_C(report) == estimate_C(report, 100)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_the_fraction_minimum(self, seed):
        # exact ties (noise 0 on a line), near-ties a float cannot tell apart
        # (|y| past 2**53, and floor(slope * k - r / 1000)), and random walks
        rng = np.random.default_rng(seed)
        n = 3000
        k = np.arange(1, n + 1, dtype=np.int64)
        slope = int(rng.choice([3, -5, 2**50 + 12345, -(2**51) - 7]))
        noise = rng.integers(-1, 2, n) * (rng.random(n) < 0.3)
        rest = rng.integers(0, 1000, n).tolist()
        floored = [(slope * 1000 * j - r) // 1000 for j, r in zip(k.tolist(), rest)]
        walk = np.cumsum(rng.integers(-1, 2, n))
        for ys in (slope * k, slope * k + noise, np.array(floored), walk, walk * 2**45):
            report = SeriesReport("s", ys, Fraction(0), 0.0, 0)
            for tail_start in (1, 7, n // 10, n - 1):
                c = estimate_C(report, tail_start)
                assert c == _fraction_minimum(ys.tolist(), tail_start)
                assert type(c.numerator) is int and type(c.denominator) is int


def _fraction_minimum(ys, tail_start):
    """The original estimate: one Fraction per index of the window."""
    return min(Fraction(-y, k) for k, y in enumerate(ys[tail_start - 1 :], tail_start))


def _all_primes_sieve(n):
    """The original sieve over every prime p <= n, kept as the reference."""
    mob = np.ones(n + 1, dtype=np.int8)
    mob[0] = 0
    composite = np.zeros(n + 1, dtype=bool)
    for p in range(2, n + 1):
        if not composite[p]:
            mob[p::p] *= -1
            sq = p * p
            if sq <= n:
                composite[sq::p] = True
                mob[sq::sq] = 0
    return mob


def _trial_mu(n):
    """Classical mu(n) by trial division."""
    sign = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if n > 1 else sign


class TestClassicalMobius:
    def test_definition_cases(self):
        sieve = classical_mobius(100)
        assert sieve.value(1) == 1
        assert sieve.value(2) == -1
        assert sieve.value(4) == 0
        assert sieve.value(6) == 1
        assert sieve.value(30) == -1  # three distinct primes
        assert sieve.value(12) == 0

    def test_against_brute_force_factorization(self):
        sieve = classical_mobius(500)
        for n in range(1, 501):
            assert sieve.value(n) == _trial_mu(n), n

    def test_values_bounded(self):
        sieve = classical_mobius(2000)
        assert set(sieve.terms()) <= {-1, 0, 1}

    def test_prime_squares_vanish(self):
        sieve = classical_mobius(2000)
        for p in (2, 3, 5, 7, 11, 13):
            for k in range(1, 2000 // (p * p) + 1):
                assert sieve.value(p * p * k) == 0


class TestSqrtSieve:
    # segment edges of the default 2**16 segment, and p**2, p**2 +- 1 for
    # primes around the square root of those sizes
    EDGES = [2**16 - 1, 2**16, 2**16 + 1, 2**17 + 1]
    SQUARES = [p * p + d for p in (251, 257, 359, 367) for d in (-1, 0, 1)]

    @pytest.fixture(scope="class")
    def reference(self):
        return _all_primes_sieve(max(self.EDGES + self.SQUARES))

    def test_every_small_n(self, reference):
        for n in range(1, 301):
            assert np.array_equal(classical_mobius(n).values, reference[: n + 1]), n

    @pytest.mark.parametrize("n", EDGES + SQUARES)
    def test_segment_edges_and_prime_squares(self, n, reference):
        assert np.array_equal(classical_mobius(n).values, reference[: n + 1])

    def test_tiny_segments(self, reference, monkeypatch):
        monkeypatch.setattr(analysis_module, "_SIEVE_SEGMENT", 7)
        for n in (1, 6, 7, 8, 49, 50, 300):
            assert np.array_equal(classical_mobius(n).values, reference[: n + 1]), n

    def test_sampled_values_at_1e6(self):
        sieve = classical_mobius(10**6)
        for n in random.Random(20241018).sample(range(1, 10**6 + 1), 200):
            assert sieve.value(n) == _trial_mu(n), n


class TestClassicalMertens:
    def test_small_values(self):
        report = classical_mertens(classical_mobius(10))
        assert report.ys[0] == 1
        assert report.ys[1] == 0
        assert report.final_value == -1

    def test_changes_sign(self):
        # unlike the triangular analog, the classical sums cross zero often
        ys = classical_mertens(classical_mobius(1000)).ys
        assert any(v > 0 for v in ys) and any(v < 0 for v in ys)
