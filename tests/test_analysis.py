import itertools
import math
import random
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

TRI = SequenceKind.TRIANGULAR


def _vec(terms, kind=TRI):
    return MobiusVector(kind=kind, values=np.array((0, *terms), dtype=np.int64))


@pytest.fixture(scope="module")
def mu1000(tri_poset):
    return mobius_one_var(tri_poset, 1000)


class TestMertens:
    def test_first_ten(self):
        report = mertens_tri(_vec(MU_TRI_10))
        assert report.ys.dtype == np.int64
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


class TestInt64PartialSums:
    def test_plain_ints_and_slopes(self, mu1000):
        mertens = mertens_tri(mu1000)
        for report in (mertens, abs_sums(mu1000)):
            assert report.ys.dtype == np.int64
            ys = report.ys.tolist()
            assert type(report.final_value) is int and report.final_value == ys[-1]
            slope = report.slope_estimate
            assert type(slope.numerator) is int and type(slope.denominator) is int
            assert report.slope_lsq == _float_list_lsq_slope(ys)
        ys = mertens.ys.tolist()
        assert mertens.slope_estimate == Fraction(ys[-1] - ys[0], len(ys) - 1)

    def test_classical_sums_from_int8(self):
        report = classical_mertens(classical_mobius(1000))
        assert report.ys.dtype == np.int64
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


def _float_list_lsq_slope(ys):
    """The original slope: one float() per value, then the same float64 formula."""
    fx = np.arange(1, len(ys) + 1, dtype=np.float64)
    fy = np.asarray([float(v) for v in ys], dtype=np.float64)
    return float(((fx - fx.mean()) * (fy - fy.mean())).sum() / ((fx - fx.mean()) ** 2).sum())


class TestLsqSlope:
    def test_bulk_conversion_is_bit_identical(self):
        big = [2**53 + 1, 2**60 + 3, -(2**63) - 5, 2**70 + 1, 3 * 2**80 - 1]
        fractions = [Fraction(1, 3), Fraction(-2**60, 7), Fraction(10**30 + 1, 10**12)]
        for ys in (big, fractions, big + fractions + [0.1, -7.25], list(range(40))):
            assert analysis_module._lsq_slope(ys) == _float_list_lsq_slope(ys)

    def test_float_input_is_not_modified(self):
        ys = np.array([3.0, -1.5, 2.25, 8.0])
        before = ys.copy()
        assert analysis_module._lsq_slope(ys) == _float_list_lsq_slope(before.tolist())
        assert np.array_equal(ys, before)

    def test_classical_mertens_slope_from_the_int64_sums(self):
        report = classical_mertens(classical_mobius(10**5))
        assert report.slope_lsq == _float_list_lsq_slope(report.ys)


def _running_fractions(terms, denominators):
    """float() of each exact partial sum of terms[k] / denominators[k]."""
    total, out = Fraction(0), []
    for t, d in zip(terms, denominators):
        total += Fraction(t, d)
        out.append(float(total))
    return out


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

    def test_exact_vs_compensated(self, mu_tri_10k):
        vec, _ = mu_tri_10k
        exact = ratio_sums_index(vec).final_value
        # exact_limit=0 runs the compensated float path over the whole range
        compensated = ratio_sums_index(vec, exact_limit=0).final_value
        # Shewchuk's exactly rounded sum of the same float terms
        shewchuk = math.fsum(t / n for n, t in enumerate(vec.terms(), 1))
        assert isinstance(exact, Fraction) and isinstance(compensated, float)
        assert abs(float(exact) - compensated) < 1e-9
        assert abs(shewchuk - compensated) < 1e-9

    def test_float_tail_beyond_exact_limit(self, mu1000):
        report = ratio_sums_index(mu1000, exact_limit=100)
        terms = mu1000.terms()
        assert report.ys[:100].tolist() == _running_fractions(terms[:100], range(1, 101))
        assert _bits(report.ys) == _bits(_loop_ratio_series(terms, range(1, 1001), 100)[0])
        assert type(report.final_value) is float and report.final_value == report.ys[-1]
        assert type(report.slope_estimate) is float
        assert report.slope_estimate == (report.ys[-1] - 1.0) / 999
        # the tail must continue the exact prefix smoothly
        exact = ratio_sums_index(mu1000).final_value
        assert abs(float(exact) - report.ys[-1]) < 1e-9

    def test_identity_kind_value_denominator(self):
        # identity kind: value(n) == n, so both ratio series coincide
        poset = DivisibilityPoset(SequenceKind.IDENTITY, 50)
        vec = mobius_one_var(poset, 50)
        index, value = ratio_sums_index(vec), ratio_sums_triangular(vec)
        assert _bits(index.ys) == _bits(value.ys)
        assert index.final_value == value.final_value
        assert index.slope_estimate == value.slope_estimate

    def test_crosscheck_failure_is_reported(self, mu1000, monkeypatch):
        monkeypatch.setattr(analysis_module, "RATIO_CROSSCHECK_TOL", -1.0)
        with pytest.raises(ArithmeticError, match=r"disagree by \d\.\d{3}e[-+]\d+ at n=100$"):
            ratio_sums_index(mu1000, exact_limit=100)
        ratio_sums_index(mu1000, exact_limit=1000)  # no overlap, no check


def _bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


def _loop_ratio_series(terms, denominators, exact_limit):
    """The original per-element builder, kept as the reference for the arrays.

    Returns (ys as floats, slope_estimate, final_value) as it reported them:
    exact Fractions through min(N, exact_limit), Neumaier floats beyond.
    """
    n = len(terms)
    ys = []
    comp = fsum = 0.0
    exact = Fraction(0)
    for k, (t, d) in enumerate(zip(terms, denominators), 1):
        if t:
            term = t / d
            add = fsum + term
            if abs(fsum) >= abs(term):
                comp += (fsum - add) + term
            else:
                comp += (term - add) + fsum
            fsum = add
        if k <= exact_limit:
            if t:
                exact = exact + Fraction(t, d)
            ys.append(exact)
        else:
            ys.append(fsum + comp)
    if n < 2:
        slope = Fraction(0)
    else:
        dy = ys[-1] - ys[0]
        slope = Fraction(dy, n - 1) if isinstance(dy, Fraction) else dy / (n - 1)
    return [float(y) for y in ys], slope, ys[-1]


def _assert_matches_loop(report, terms, denominators, exact_limit):
    ys, slope, final = _loop_ratio_series(terms, denominators, exact_limit)
    assert report.ys.dtype == np.float64 and _bits(report.ys) == _bits(ys)
    assert type(report.final_value) is type(final) and report.final_value == final
    assert type(report.slope_estimate) is type(slope) and report.slope_estimate == slope
    assert report.slope_lsq == (_float_list_lsq_slope(ys) if len(ys) > 1 else 0.0)
    head = min(len(terms), exact_limit)
    assert report.ys[:head].tolist() == _running_fractions(terms[:head], denominators[:head])


def _random_mu(seed, n, kind=TRI, top=30):
    """Seeded Mobius-like terms: mostly zero, mu(1) = 1, magnitudes up to top."""
    rng = np.random.default_rng(seed)
    values = rng.integers(-top, top + 1, n + 1) * (rng.random(n + 1) < 0.45)
    values[:2] = 0, 1
    return MobiusVector(kind=kind, values=values.astype(np.int64))


class TestRatioArrays:
    """The array builder against the original loop, bit for bit."""

    @pytest.mark.parametrize("exact_limit", [0, 100, 10_000])
    @pytest.mark.parametrize("n", [1, 2, 99, 101, 9_999, 70_000])
    def test_random_mu(self, n, exact_limit):
        vec = _random_mu(n, n)
        values = [k * (k + 1) // 2 for k in range(1, n + 1)]
        _assert_matches_loop(ratio_sums_index(vec, exact_limit), vec.terms(),
                             range(1, n + 1), exact_limit)
        _assert_matches_loop(ratio_sums_triangular(vec, exact_limit), vec.terms(),
                             values, exact_limit)

    @pytest.mark.parametrize("exact_limit", [0, 5, 100, 10_000])
    def test_blocks_of_seven(self, exact_limit, monkeypatch):
        monkeypatch.setattr(analysis_module, "_RATIO_BLOCK", 7)
        for seed, n in ((1, 1), (2, 7), (3, 8), (4, 2000)):
            vec = _random_mu(seed, n)
            values = [k * (k + 1) // 2 for k in range(1, n + 1)]
            _assert_matches_loop(ratio_sums_index(vec, exact_limit), vec.terms(),
                                 range(1, n + 1), exact_limit)
            _assert_matches_loop(ratio_sums_triangular(vec, exact_limit), vec.terms(),
                                 values, exact_limit)

    def test_classical_mu_1e6(self):
        vec = classical_mobius(10**6)
        report = ratio_sums_index(vec)
        _assert_matches_loop(report, vec.terms(), range(1, 10**6 + 1), 10_000)
        assert _bits(ratio_sums_triangular(vec).ys) == _bits(report.ys)

    def test_quotients_equal_python_division(self):
        # float64(2**53 + 1) rounds to 2**53, so numpy alone would be off here
        t = np.array([2**53 + 1, -(2**62) - 1, 1, 7, -3, 0], dtype=np.int64)
        d = np.array([3, 5, 2**53 + 1, 2**64 - 1, 2**60 + 3, 9], dtype=np.uint64)
        q = analysis_module._quotients(t, d)
        assert q.tolist() == [a / b for a, b in zip(t.tolist(), d.tolist())]
        assert q[0] != np.float64(2**53 + 1) / 3

    def test_quotients_past_the_float_exact_limit(self, monkeypatch):
        # below the constant float64 division is exact; above it (here
        # value(k) > 1000, or |mu| > 1000) the quotient is divided in Python
        vec = _random_mu(9, 3000, top=5000)
        expected = [ratio_sums_index(vec, 100), ratio_sums_triangular(vec, 100)]
        monkeypatch.setattr(analysis_module, "_FLOAT_EXACT", 1000)
        got = [ratio_sums_index(vec, 100), ratio_sums_triangular(vec, 100)]
        for old, new in zip(expected, got):
            assert _bits(new.ys) == _bits(old.ys) and new.final_value == old.final_value
        values = [k * (k + 1) // 2 for k in range(1, 3001)]
        _assert_matches_loop(got[1], vec.terms(), values, 100)


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
