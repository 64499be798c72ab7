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
        assert report.ys == [1, 0, 0, -1, -1, -1, -2, -2, -2, -3]
        assert report.final_value == -3

    def test_single_term(self):
        assert mertens_tri(_vec([1])).ys == [1]

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
        for report in (mertens_tri(mu1000), abs_sums(mu1000)):
            assert all(type(y) is int for y in report.ys)
            assert report.slope_lsq == _float_list_lsq_slope(report.ys)

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

    def test_classical_mertens_slope_from_the_int64_sums(self):
        report = classical_mertens(classical_mobius(10**5))
        assert report.slope_lsq == _float_list_lsq_slope(report.ys)


class TestRatioSums:
    def test_tiny_prefixes(self):
        assert ratio_sums_index(_vec([1])).ys == [Fraction(1)]
        assert ratio_sums_index(_vec([1, -1])).ys[-1] == Fraction(1, 2)
        assert ratio_sums_triangular(_vec([1, -1])).ys[-1] == Fraction(2, 3)

    def test_exact_prefix_is_rational(self, mu1000):
        report = ratio_sums_index(mu1000)
        assert all(isinstance(y, Fraction) for y in report.ys)

    def test_telescoping(self, mu1000):
        report = ratio_sums_index(mu1000)
        for n in range(2, 1001):
            diff = report.ys[n - 1] - report.ys[n - 2]
            assert diff == Fraction(mu1000.value(n), n)

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
        assert isinstance(report.ys[99], Fraction)
        assert isinstance(report.ys[100], float)
        # the tail must continue the exact prefix smoothly
        exact = ratio_sums_index(mu1000).final_value
        assert abs(float(exact) - report.ys[-1]) < 1e-9

    def test_identity_kind_value_denominator(self):
        # identity kind: value(n) == n, so both ratio series coincide
        poset = DivisibilityPoset(SequenceKind.IDENTITY, 50)
        vec = mobius_one_var(poset, 50)
        assert ratio_sums_index(vec).ys == ratio_sums_triangular(vec).ys


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

    def test_lookup_helpers(self, mu_tri_10k):
        vec, _ = mu_tri_10k
        table = magnitude_records(vec)
        assert table.first_at_least(2) == 44
        assert table.first_equal(8) == 2079
        assert table.first_at_least(99) is None


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
        assert c > 0

    def test_min_over_window_catches_positive_excursion(self, mu1000):
        # the sums reach +1 at n = 288, so a window covering it goes negative
        assert estimate_C(mertens_tri(mu1000), 100) == Fraction(-1, 288)

    def test_default_window_is_last_nine_tenths(self, mu1000):
        report = mertens_tri(mu1000)
        assert estimate_C(report) == estimate_C(report, 100)


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
