"""Partial-sum series, magnitude records, and the classical Mobius baseline.

Series over integer terms stay exact, each in the narrowest signed type
holding its bound (poset.int_type), so widen one before further arithmetic
on it.  The two ratio series are
float64 arrays: through EXACT_RATIO_LIMIT (10,000) terms each entry is
float() of the exact rational partial sum, accumulated as one integer
numerator over the running lcm of the denominators; beyond it,
Neumaier-compensated float sums, computed in numpy blocks bit-identically
to the sequential loop.  The two paths are cross-checked where the prefix
ends.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd, isqrt

import numpy as np

from .mobius import MobiusVector
from .poset import I64_MAX, SequenceKind, int_type, sequence_value, sequence_values

EXACT_RATIO_LIMIT = 10_000

# Exact and compensated accumulation must agree this closely on the overlap.
RATIO_CROSSCHECK_TOL = 1e-9


@dataclass(frozen=True)
class SeriesReport:
    """A named prefix-sum series with slope estimates.

    ys[k] is the partial sum through index k + 1.  An integer series holds
    an array of the narrowest signed type holding N times its largest
    |term| (poset.int_type); a ratio series a float64 array, whose exact prefix
    survives only as final_value when N is within it.  final_value is a
    Python int, Fraction or float.  slope_estimate is the headline
    per-index slope; slope_lsq is an ordinary least-squares slope kept
    alongside because the endpoint formula is sensitive to both ends.
    """

    name: str
    ys: np.ndarray
    slope_estimate: Fraction | float
    slope_lsq: float
    final_value: Fraction | float | int

    def __len__(self) -> int:
        return len(self.ys)


def _endpoint_slope(first, last, n: int):
    """(y_N - y_1) / (N - 1) for N = n points; zero for a single point."""
    if n < 2:
        return Fraction(0)
    dy = last - first
    if isinstance(dy, (int, Fraction)):
        return Fraction(dy, n - 1)
    return dy / (n - 1)


# Terms per block of the compensated ratio sums and per leaf of _lsq_slope:
# besides ys they hold one block of float64 temporaries, whatever N.
_RATIO_BLOCK = 1 << 14


def _pairwise(lo: int, hi: int, leaf) -> tuple:
    """The tuple leaf(lo, hi) of sums over [lo, hi), added as numpy adds.

    numpy sums m > 128 float64 terms as the sum of the first
    h = m // 2 - (m // 2) % 8 and the sum of the rest, each split the
    same way, and m <= 128 terms without a split.  So a piece of at most
    _RATIO_BLOCK terms, or 128 if that is fewer, summed by np.add.reduce
    is a node of the same tree, and the leaf sums added back up give
    np.sum of the whole, bit for bit.
    """
    if hi - lo <= max(_RATIO_BLOCK, 128):
        return leaf(lo, hi)
    h = (hi - lo) // 2
    h -= h % 8
    left, right = _pairwise(lo, lo + h, leaf), _pairwise(lo + h, hi, leaf)
    return tuple(a + b for a, b in zip(left, right))


def _lsq_slope(ys) -> float:
    """Ordinary least-squares slope of ys against x = 1..N.

    sum((x - mx) * (y - my)) / sum((x - mx) ** 2) over float64 x and y,
    bit for bit, but summed over _pairwise leaves: one pass for the two
    means, one for the two sums.  Each leaf converts its own slice, so
    the call holds a block of float64 temporaries, whatever N.
    """
    n = len(ys)
    if n < 2:
        return 0.0

    def block(lo, hi):
        return np.arange(lo + 1, hi + 1, dtype=np.float64), np.array(ys[lo:hi], dtype=np.float64)

    def sums(lo, hi):
        x, y = block(lo, hi)
        return np.add.reduce(x), np.add.reduce(y)

    sx, sy = _pairwise(0, n, sums)
    mx, my = sx / n, sy / n

    def products(lo, hi):
        dx, dy = block(lo, hi)
        dx -= mx
        dy -= my
        dy *= dx
        dx *= dx
        return np.add.reduce(dy), np.add.reduce(dx)

    sxy, sxx = _pairwise(0, n, products)
    return float(sxy / sxx)


def _partial_sums(terms: np.ndarray, absolute: bool = False) -> np.ndarray:
    """Exact prefix sums of the terms, or of their magnitudes.

    len(terms) times the largest |term| bounds every prefix sum; it is
    taken in Python integers, so OverflowError is raised before an int64
    sum could wrap, and the sums are held in int_type of it.  The terms
    are copied into the output array and summed there, so the call makes
    no other N-length array.
    """
    top = max(int(terms.max()), -int(terms.min()))
    bound = top * len(terms)
    if bound > I64_MAX:
        raise OverflowError(
            f"partial sums of {len(terms)} terms up to {top} in magnitude "
            "may leave the signed 64-bit range"
        )
    sums = np.empty(len(terms), dtype=int_type(bound))
    sums[...] = terms
    if absolute:
        np.abs(sums, out=sums)
    return np.cumsum(sums, out=sums)


def _sum_series(name: str, terms: np.ndarray, absolute: bool = False) -> SeriesReport:
    """The exact prefix sums of integer terms (or |terms|) as a named series."""
    sums = _partial_sums(terms, absolute)
    final = int(sums[-1])
    return SeriesReport(
        name=name,
        ys=sums,
        slope_estimate=_endpoint_slope(int(sums[0]), final, len(sums)),
        slope_lsq=_lsq_slope(sums),
        final_value=final,
    )


def mertens_tri(mu: MobiusVector) -> SeriesReport:
    """Partial sums of the Mobius values, the poset analog of Mertens sums."""
    return _sum_series("mobius_partial_sums", mu.values[1:])


def abs_sums(mu: MobiusVector) -> SeriesReport:
    """Partial sums of |mu|.  slope_estimate here is the density ys[N] / N."""
    report = _sum_series("mobius_abs_partial_sums", mu.values[1:], absolute=True)
    return replace(report, slope_estimate=Fraction(report.final_value, len(report)))


# Every integer of magnitude up to 2**53 is exact in float64, so the float64
# quotient of two of them is Python's correctly rounded t / d.
_FLOAT_EXACT = 2**53


def _quotients(t: np.ndarray, d: np.ndarray) -> np.ndarray:
    """t / d in float64, each equal to Python's t / d of the same integers.

    A pair with a side past 2**53 is divided in Python.
    """
    q = t / d
    slow = np.flatnonzero((d > _FLOAT_EXACT) | (np.abs(t) > _FLOAT_EXACT))
    if len(slow):
        q[slow] = [a / b for a, b in zip(t[slow].tolist(), d[slow].tolist())]
    return q


def _compensated_sums(terms: np.ndarray, kind: SequenceKind) -> np.ndarray:
    """Neumaier-compensated running sums of terms[k] / value(k + 1), in float64.

    Bit-identical to the sequential loop over the quotients q
        add = fsum + q
        comp += (fsum - add) + q if |fsum| >= |q| else (q - add) + fsum
        fsum = add
        ys[k] = fsum + comp
    because np.cumsum adds in order, and a zero term adds exactly 0.0 to
    both sums.  Runs _RATIO_BLOCK terms at a time, carrying fsum and comp.
    """
    n = len(terms)
    ys = np.empty(n)
    fsum = comp = 0.0
    for lo in range(0, n, _RATIO_BLOCK):
        hi = min(lo + _RATIO_BLOCK, n)
        k = np.arange(lo + 1, hi + 1, dtype=np.uint64)
        q = _quotients(terms[lo:hi], sequence_values(kind, k))
        s = q.copy()
        s[0] += fsum
        np.cumsum(s, out=s)
        prev = np.concatenate(([fsum], s[:-1]))
        big = np.abs(prev) >= np.abs(q)
        err = np.where(big, prev, q) - s + np.where(big, q, prev)
        err[0] += comp
        np.cumsum(err, out=err)
        np.add(s, err, out=ys[lo:hi])
        fsum, comp = s[-1], err[-1]
    return ys


def _exact_sums(terms: list, denominators: list):
    """float() of each exact partial sum of t / d, and the last one as a Fraction.

    The sum is kept as an integer numerator over the lcm of the d seen so
    far, so no step reduces by a gcd.  Python's int / int is correctly
    rounded, so each float equals float() of the Fraction, bit for bit.
    """
    num, lcm = 0, 1
    steps = []
    for t, d in zip(terms, denominators):
        g = gcd(lcm, d)
        if g != d:
            num *= d // g
            lcm *= d // g
        num += t * (lcm // d)
        steps.append(num / lcm)
    return steps, Fraction(num, lcm)


def _ratio_series(name: str, mu: MobiusVector, kind: SequenceKind):
    """Shared builder for the two ratio series, mu(k) / value(k) of the kind.

    ys is float64.  Through min(N, EXACT_RATIO_LIMIT) it holds float() of
    the exact partial sums, from _exact_sums over the nonzero terms; beyond,
    the compensated float sums.  The float path runs from the start so the
    two are cross-checked at EXACT_RATIO_LIMIT.
    """
    limit = EXACT_RATIO_LIMIT
    terms = mu.values[1:]
    n = len(terms)
    ys = _compensated_sums(terms, kind)
    head = terms[:limit]
    nonzero = np.flatnonzero(head)
    denominators = sequence_values(kind, (nonzero + 1).astype(np.uint64))
    steps, exact = _exact_sums(head[nonzero].tolist(), denominators.tolist())
    if 0 < limit < n:
        drift = abs(float(exact) - float(ys[limit - 1]))
        if drift > RATIO_CROSSCHECK_TOL:
            raise ArithmeticError(
                f"exact/compensated accumulation disagree by {drift:.3e} "
                f"at n={limit}"
            )
    ys[: len(head)] = np.array([0.0, *steps])[np.cumsum(head != 0)]
    if n <= limit:
        final = exact
        slope = _endpoint_slope(Fraction(int(terms[0])), exact, n)  # value(1) = 1
    else:
        final = float(ys[-1])
        slope = _endpoint_slope(float(ys[0]), final, n)
    return SeriesReport(
        name=name,
        ys=ys,
        slope_estimate=slope,
        slope_lsq=_lsq_slope(ys),
        final_value=final,
    )


def ratio_sums_index(mu: MobiusVector) -> SeriesReport:
    """Partial sums of mu(n)/n."""
    return _ratio_series("mobius_over_index_partial_sums", mu, SequenceKind.IDENTITY)


def ratio_sums_triangular(mu: MobiusVector) -> SeriesReport:
    """Partial sums of mu(n)/value(n), value being the poset's own sequence."""
    sequence_value(mu.kind, len(mu))  # the 64-bit range check, once
    return _ratio_series("mobius_over_value_partial_sums", mu, mu.kind)


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
    it is mu(n) itself and only positive values count.  The first index at
    or above M is a binary search in the running maximum; the first index
    equal to M takes one pass per magnitude.
    """
    terms = mu.values[1:]
    # |terms| read as unsigned, so the dtype's minimum does not wrap
    mags = terms if signed else np.abs(terms).view(f"u{terms.itemsize}")
    top = max(int(mags.max()), 0)
    levels = np.arange(1, top + 1, dtype=mags.dtype)  # searched without a cast
    first_geq = np.searchsorted(np.maximum.accumulate(mags), levels) + 1
    rows = []
    for m, geq in zip(levels.tolist(), first_geq.tolist()):
        at = int(np.argmax(mags == m))
        rows.append(MagnitudeRecord(m, geq, at + 1 if mags[at] == m else None))
    return MagnitudeRecordTable(signed=signed, rows=tuple(rows))


def estimate_C(mertens: SeriesReport, tail_start: int | None = None) -> Fraction:
    """min over n in [tail_start, N] of -ys[n] / n, as an exact rational.

    A positive return means the partial sums stayed at or below a straight
    line of that slope over the whole tail window.  tail_start defaults to
    N/10: the early sums are transient and would dominate the minimum.

    Each float64 quotient ys[n] / n is within a relative 2**-51.9 of the
    exact one (two roundings), so the exact minimum lies among the n whose
    quotient is within 2**-50 of the largest |quotient| below the float
    maximum; only those are compared as Fractions.
    """
    n = len(mertens)
    if tail_start is None:
        tail_start = max(1, n // 10)
    if not 1 <= tail_start < n:
        raise ValueError(f"empty tail window: tail_start={tail_start}, N={n}")
    tail = np.asarray(mertens.ys[tail_start - 1 :])
    ratio = tail / np.arange(tail_start, n + 1, dtype=np.float64)
    near = np.flatnonzero(ratio >= ratio.max() - np.abs(ratio).max() * 2**-50)
    ks, ys = (near + tail_start).tolist(), tail[near].tolist()
    return min(Fraction(-y, k) for k, y in zip(ks, ys))


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
