"""Partial-sum series, magnitude records, and the classical Mobius baseline.

Series over integer terms stay exact.  The two ratio series accumulate in
exact rational arithmetic up to a configurable prefix (default 10,000) and
switch to compensated floating summation beyond it, cross-checking the two
paths where they overlap.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import isqrt

import numpy as np

from .mobius import MobiusVector
from .poset import I64_MAX, SequenceKind, sequence_value

EXACT_RATIO_LIMIT = 10_000

# Exact and compensated accumulation must agree this closely on the overlap.
RATIO_CROSSCHECK_TOL = 1e-9


@dataclass(frozen=True)
class SeriesReport:
    """A named prefix-sum series with slope estimates.

    ys[k] is the partial sum through index k + 1; entries are exact ints,
    exact Fractions, or floats (ratio tails).  slope_estimate is the headline
    per-index slope; slope_lsq is an ordinary least-squares slope kept
    alongside because the endpoint formula is sensitive to both ends.
    """

    name: str
    ys: list
    slope_estimate: Fraction | float
    slope_lsq: float
    final_value: Fraction | float | int

    def __len__(self) -> int:
        return len(self.ys)


def _endpoint_slope(ys):
    """(y_N - y_1) / (N - 1); zero for a single point."""
    if len(ys) < 2:
        return Fraction(0)
    dy = ys[-1] - ys[0]
    dx = len(ys) - 1
    if isinstance(dy, (int, Fraction)):
        return Fraction(dy, dx)
    return dy / dx


def _lsq_slope(ys) -> float:
    """Ordinary least-squares slope of ys against x = 1..N."""
    n = len(ys)
    if n < 2:
        return 0.0
    fx = np.arange(1, n + 1, dtype=np.float64)
    fy = np.asarray(ys, dtype=np.float64)
    mx = fx.mean()
    my = fy.mean()
    denom = ((fx - mx) ** 2).sum()
    return float(((fx - mx) * (fy - my)).sum() / denom)


def _partial_sums(terms: np.ndarray) -> np.ndarray:
    """int64 prefix sums of the terms.

    len(terms) times the largest |term| bounds every prefix sum; it is
    taken in Python integers, so OverflowError is raised before an int64
    sum could wrap.
    """
    if not len(terms):
        raise ValueError("empty Mobius vector")
    top = max(int(terms.max()), -int(terms.min()))
    if top * len(terms) > I64_MAX:
        raise OverflowError(
            f"partial sums of {len(terms)} terms up to {top} in magnitude "
            "may leave the signed 64-bit range"
        )
    return np.cumsum(terms, dtype=np.int64)


def _sum_series(name: str, terms: np.ndarray) -> SeriesReport:
    """The exact prefix sums of integer terms as a named series."""
    sums = _partial_sums(terms)
    ys = sums.tolist()
    return SeriesReport(
        name=name,
        ys=ys,
        slope_estimate=_endpoint_slope(ys),
        slope_lsq=_lsq_slope(sums),
        final_value=ys[-1],
    )


def mertens_tri(mu: MobiusVector) -> SeriesReport:
    """Partial sums of the Mobius values, the poset analog of Mertens sums."""
    return _sum_series("mobius_partial_sums", mu.values[1:])


def abs_sums(mu: MobiusVector) -> SeriesReport:
    """Partial sums of |mu|.  slope_estimate here is the density ys[N] / N."""
    report = _sum_series("mobius_abs_partial_sums", np.abs(mu.values[1:]))
    return replace(report, slope_estimate=Fraction(report.final_value, len(report)))


def _ratio_series(name, mu, denominators, exact_limit):
    """Shared builder for the two ratio series.

    Exact Fractions through min(N, exact_limit); Neumaier-compensated
    floats beyond.  The float path runs from the start so the two can be
    cross-checked where they overlap.
    """
    terms = mu.terms()
    if not terms:
        raise ValueError("empty Mobius vector")
    n = len(terms)
    ys: list = []

    comp = 0.0  # Neumaier correction
    fsum = 0.0
    exact = Fraction(0)
    for k in range(1, n + 1):
        t = terms[k - 1]
        if t:
            term = t / denominators[k - 1]
            add = fsum + term
            if abs(fsum) >= abs(term):
                comp += (fsum - add) + term
            else:
                comp += (term - add) + fsum
            fsum = add
        if k <= exact_limit:
            if t:
                exact = exact + Fraction(t, denominators[k - 1])
            ys.append(exact)
            if k == exact_limit and n > exact_limit:
                drift = abs(float(exact) - (fsum + comp))
                if drift > RATIO_CROSSCHECK_TOL:
                    raise ArithmeticError(
                        f"exact/compensated accumulation disagree by {drift:.3e} "
                        f"at n={k}"
                    )
        else:
            ys.append(fsum + comp)
    return SeriesReport(
        name=name,
        ys=ys,
        slope_estimate=_endpoint_slope(ys),
        slope_lsq=_lsq_slope(ys),
        final_value=ys[-1],
    )


def ratio_sums_index(mu: MobiusVector, exact_limit: int = EXACT_RATIO_LIMIT) -> SeriesReport:
    """Partial sums of mu(n)/n."""
    denominators = list(range(1, len(mu) + 1))
    return _ratio_series("mobius_over_index_partial_sums", mu, denominators, exact_limit)


def ratio_sums_triangular(
    mu: MobiusVector, exact_limit: int = EXACT_RATIO_LIMIT
) -> SeriesReport:
    """Partial sums of mu(n)/value(n), value being the poset's own sequence."""
    n = len(mu)
    sequence_value(mu.kind, max(n, 1))  # the 64-bit range check, once
    k = np.arange(1, n + 1, dtype=np.uint64)
    if mu.kind is SequenceKind.TRIANGULAR:
        # k(k+1)/2 as the product of its halves, exact up to 2**64-1
        k = ((k + 1) >> 1) * (k | 1)
    denominators = k.tolist()
    return _ratio_series("mobius_over_value_partial_sums", mu, denominators, exact_limit)


@dataclass(frozen=True)
class MagnitudeRecord:
    magnitude: int
    first_at_least: int
    first_equal: int | None


@dataclass(frozen=True)
class MagnitudeRecordTable:
    """Record indices per magnitude, under both the >=M and the ==M reading.

    first_at_least is non-decreasing down the table by construction;
    first_equal need not be.
    """

    signed: bool
    rows: tuple[MagnitudeRecord, ...]

    def first_at_least(self, magnitude: int) -> int | None:
        for row in self.rows:
            if row.magnitude == magnitude:
                return row.first_at_least
        return None

    def first_equal(self, magnitude: int) -> int | None:
        for row in self.rows:
            if row.magnitude == magnitude:
                return row.first_equal
        return None


def magnitude_records(mu: MobiusVector, signed: bool = False) -> MagnitudeRecordTable:
    """First indices reaching each magnitude 1..max.

    With signed=False the magnitude of mu(n) is |mu(n)|; with signed=True
    it is mu(n) itself and only positive values count.
    """
    terms = mu.terms()
    if not terms:
        raise ValueError("empty Mobius vector")
    first_geq: dict[int, int] = {}
    first_eq: dict[int, int] = {}
    top = 0
    for n, t in enumerate(terms, start=1):
        v = t if signed else abs(t)
        if v < 1:
            continue
        if v > top:
            for m in range(top + 1, v + 1):
                first_geq[m] = n
            top = v
        if v not in first_eq:
            first_eq[v] = n
    rows = tuple(
        MagnitudeRecord(m, first_geq[m], first_eq.get(m)) for m in range(1, top + 1)
    )
    return MagnitudeRecordTable(signed=signed, rows=rows)


def estimate_C(mertens: SeriesReport, tail_start: int | None = None) -> Fraction:
    """min over n in [tail_start, N] of -ys[n] / n, as an exact rational.

    A positive return means the partial sums stayed at or below a straight
    line of that slope over the whole tail window.  tail_start defaults to
    N/10: the early sums are transient and would dominate the minimum.
    """
    n = len(mertens)
    if tail_start is None:
        tail_start = max(1, n // 10)
    if not 1 <= tail_start < n:
        raise ValueError(f"empty tail window: tail_start={tail_start}, N={n}")
    return min(
        Fraction(-mertens.ys[k - 1], k) for k in range(tail_start, n + 1)
    )


# Segment length of the classical sieve; one int64 product array per segment.
_SIEVE_SEGMENT = 1 << 16


def _primes_upto(n: int) -> np.ndarray:
    """Primes p <= n, by an Eratosthenes sieve."""
    is_prime = np.ones(n + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, isqrt(n) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    return np.flatnonzero(is_prime)


def classical_mobius(n: int) -> MobiusVector:
    """Sieve the classical Mobius function up to n: mu(1, n) of the identity poset.

    Only the primes p <= sqrt(n) are sieved: each flips the sign of its
    multiples and zeroes the multiples of p**2.  A squarefree m <= n is
    then the product of its small primes times 1 or one prime > sqrt(n);
    a per-segment product of the small primes tells which, and the second
    case flips the sign once more.  int8 is safe: values never leave
    {-1, 0, 1}.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    mob = np.ones(n + 1, dtype=np.int8)
    mob[0] = 0
    primes = _primes_upto(isqrt(n)).tolist()
    for lo in range(1, n + 1, _SIEVE_SEGMENT):
        hi = min(lo + _SIEVE_SEGMENT, n + 1)
        seg = mob[lo:hi]
        # product of the distinct small primes of m; it divides m, so no overflow
        small = np.ones(hi - lo, dtype=np.int64)
        for p in primes:
            first = -lo % p
            seg[first::p] *= -1
            small[first::p] *= p
            seg[-lo % (p * p) :: p * p] = 0
        seg[small != np.arange(lo, hi)] *= -1
    return MobiusVector(SequenceKind.IDENTITY, mob)


def classical_mertens(sieve: MobiusVector) -> SeriesReport:
    """Partial sums of the classical Mobius function."""
    return _sum_series("classical_mertens", sieve.values[1:])
