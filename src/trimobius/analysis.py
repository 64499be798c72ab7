"""Partial-sum series, magnitude records, and the classical Mobius baseline.

Series over integer terms stay exact, each in the narrowest signed type
holding its values (poset.int_type), so widen one before further
arithmetic on it.  The two ratio series are float64 arrays, each entry
float() of the exact rational partial sum, from one certified fixed-point
sum.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import islice
from math import isqrt

import numpy as np

from .mobius import MobiusVector
from .poset import SequenceKind, int_type, magnitude, sequence_value, sequence_values

EXACT_RATIO_LIMIT = 10_000


@dataclass(frozen=True)
class SeriesReport:
    """A named prefix-sum series with slope estimates.

    ys[k] is the partial sum through index k + 1.  An integer series holds
    an array of the narrowest signed type holding its largest |value|
    (poset.int_type); a ratio series a float64 array, with an exact
    final_value when N is within EXACT_RATIO_LIMIT.  final_value is a
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
    return (last - first) / (n - 1) if isinstance(last, float) else Fraction(last - first, n - 1)


# Terms per block of the partial and ratio sums and per leaf of _lsq_slope;
# their temporaries are a block's.
_RATIO_BLOCK = 1 << 13


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

    len(terms) times the largest |term| bounds every prefix sum, and
    int_type of it raises OverflowError before any sum is taken that could
    leave int64.  Within that bound the sums are taken in int64, in two
    passes over blocks of _RATIO_BLOCK terms: one for the sums' extremes,
    and one to fill an array of int_type of their largest |value|.  So the
    call makes no other N-length array.
    """
    int_type(magnitude(terms) * len(terms))  # the OverflowError, if any

    def blocks():
        total = 0
        for lo in range(0, len(terms), _RATIO_BLOCK):
            block = terms[lo : lo + _RATIO_BLOCK].astype(np.int64)
            if absolute:
                np.abs(block, out=block)
            np.cumsum(block, out=block)
            block += total
            total = int(block[-1])
            yield lo, block

    top = max((magnitude(block) for _, block in blocks()), default=0)
    sums = np.empty(len(terms), dtype=int_type(top))
    for lo, block in blocks():
        sums[lo : lo + len(block)] = block
    return sums


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


_GUARD_BITS = 64  # first-pass fraction bits beyond the bit length of N * max|term|


def _certified(x: np.ndarray, k: np.ndarray, slack: int, width: int, whole: int) -> np.ndarray:
    """The float64 nearest each column's value, or NaN where that is not certain.

    Column c of x is an integer V in limbs, x[j, c] counting 2**(width *
    (len(x) - 1 - j)) units of 2**(width * (whole - len(x))); entry k[c]'s
    exact sum S is within slack - 1 units of V, and slack units of -V - 1,
    as which a negative V is taken.  The window of ceil(54 / width) + 1
    digits from the first nonzero one, rounded at its last bit t, is z,
    within 2**(t - 1) of V, as two float64 parts: 53 // width digits, and
    the rest, at most 52 bits (hence width <= 26).  For 2**g > slack +
    2**(t - 1), S lies between z - 2**g and z + 2**g, each rounded by one
    float64 addition; where both agree, S rounds alike.  The second part
    stays exact with 2**g added or taken off while g - t <= 51, and more
    puts the two over an ulp of z apart; the leading bit, 54 or more above
    t, lets 2**g = 2**t decide.  As each denominator of entry k divides
    lcm(1, ..., k + 1) < 3**(k + 1) (D. Hanson, 1972), both within
    2**(-2k - 3) of 0 make S = 0.
    """
    rows = len(x)
    for j in range(rows - 1, 0, -1):
        x[j - 1] += x[j] >> width
    sign = x[0] >> 63  # -1 where V < 0
    x ^= sign
    x[1:] &= (1 << width) - 1
    lead = np.full(len(k), rows - 1)
    for j in range(rows - 2, -1, -1):
        lead = np.where(x[j] != 0, j, lead)
    head, wide = 53 // width, -(-54 // width) + 1
    ys = np.full(len(k), np.nan)
    for first in np.flatnonzero(np.bincount(lead)).tolist():
        cols = np.flatnonzero(lead == first)
        t = width * (rows - first - wide)  # the window's last bit
        g = max(slack.bit_length(), t - 1) + 1
        window = x[first : first + wide + 1]  # and the digit that rounds it
        window = window if len(cols) == len(k) else window[:, cols]
        parts = (digits * 2.0 ** (-width * i) for i, digits in enumerate(window[:wide]))
        hi, lo = sum(islice(parts, head)), sum(parts, 0.0)
        if len(window) > wide:
            lo = lo + (window[wide] >> (width - 1)) * 2.0 ** (-width * (wide - 1))
        step, scale = 2.0 ** (g - t - width * (wide - 1)), 2.0 ** (width * (whole - 1 - first))
        below, above = hi + (lo - step), hi + (lo + step)
        near = np.maximum(abs(below), abs(above)) * scale <= np.exp2(-2.0 * k[cols] - 3)
        ys[cols] = np.where(below == above, below * scale, np.where(near, 0.0, np.nan))
    np.negative(ys, out=ys, where=(sign != 0) & (ys != 0))  # a certified 0 is +0.0
    return ys


def _fixed_sums(terms: np.ndarray, kind: SequenceKind) -> np.ndarray:
    """float() of each exact partial sum of terms[k] / value(k + 1), value of the kind.

    A long accumulator (U. Kulisch, Computer Arithmetic and Validity, 2008)
    in int64 limbs of B bits: integer limbs holding max|term| * (2 + bit
    length of N) > |each sum|, then F / B fraction limbs.  Per block, long
    division gives the digits of floor(2**F / d), d = value(k + 1), and one
    np.cumsum per limb, carried across blocks, sums their products with the
    terms: each sum of term * floor(2**F / d), exact, and within sum |term|
    units of 2**-F of the exact sum, for _certified to round.  With
    N * max|term| < 2**s, d < 2**b and B = min(26, 63 - max(s, b)) no int64
    value wraps: a remainder shifted by B bits is below 2**(b + B), a limb's
    prefix sum below 2**(s + B), so a carry below 2**s, and a limb plus its
    carry below 2**(s + B); that rule alone would allow 62 bits for small N.
    The first pass has _GUARD_BITS + s fraction bits in whole limbs; passes
    at twice and four times the limbs fill entries left NaN.  ArithmeticError
    names the first one left; OverflowError means B < 1.
    """
    n, top = len(terms), magnitude(terms)
    spread = (top * n).bit_length()
    width = min(26, 63 - max(spread, sequence_value(kind, n).bit_length()))  # see _certified
    if width < 1:
        raise OverflowError(f"ratio sums of {n} terms up to {top} leave no bit of an int64 limb")
    whole = max(1, -(-(top * (2 + n.bit_length())).bit_length() // width))
    first = max(1, -(-(_GUARD_BITS + spread) // width))
    ys = np.full(n, np.nan)
    for limbs in (first, 2 * first, 4 * first):
        rows, sums, slack = whole + limbs, 0, 1  # 1 + sum |term| through this block
        for lo in range(0, n, _RATIO_BLOCK):
            t = terms[lo : lo + _RATIO_BLOCK].astype(np.int64)
            k = np.arange(lo + 1, lo + len(t) + 1, dtype=np.uint64)
            d = sequence_values(kind, k).astype(np.int64)
            x, r = np.zeros((rows, len(t)), dtype=np.int64), np.ones(len(t), dtype=np.int64)
            for j in range(whole - 1, rows):  # the digits of floor(2**F / d)
                x[j], r = np.divmod(r << width * (j >= whole), d)
            x *= t
            np.cumsum(x, axis=1, out=x)
            x += sums
            sums = x[:, -1:].copy()
            if slack == 1:  # up to the first nonzero term each sum is exactly 0
                ys[lo : lo + (t != 0).argmax() if t.any() else lo + len(t)] = 0.0
            slack += int(np.abs(t).sum())
            todo = np.flatnonzero(np.isnan(ys[lo : lo + len(t)]))
            if len(todo):
                ys[lo + todo] = _certified(x if len(todo) == len(t) else x[:, todo],
                                           lo + 1 + todo, slack, width, whole)
        if not np.isnan(ys.sum()):  # NaN if any entry is
            return ys
    raise ArithmeticError(f"ratio sum at n={np.isnan(ys).argmax() + 1} left undecided")


def _ratio_series(name: str, mu: MobiusVector, kind: SequenceKind) -> SeriesReport:
    """Shared builder for the two ratio series, mu(k) / value(k) of the kind.

    Within EXACT_RATIO_LIMIT terms, final_value and the slope are exact
    Fractions, summed one Fraction per nonzero term; beyond, floats.
    """
    terms = mu.values[1:]
    n, ys = len(terms), _fixed_sums(terms, kind)
    final, first = float(ys[-1]), float(ys[0])
    if n <= EXACT_RATIO_LIMIT:
        nonzero = np.flatnonzero(terms)
        values = sequence_values(kind, (nonzero + 1).astype(np.uint64)).tolist()
        final = sum(map(Fraction, terms[nonzero].tolist(), values), Fraction(0))
        first = Fraction(int(terms[0]))  # value(1) = 1
    return SeriesReport(name=name, ys=ys, slope_estimate=_endpoint_slope(first, final, n),
                        slope_lsq=_lsq_slope(ys), final_value=final)


def ratio_sums_index(mu: MobiusVector) -> SeriesReport:
    """Partial sums of mu(n)/n."""
    return _ratio_series("mobius_over_index_partial_sums", mu, SequenceKind.IDENTITY)


def ratio_sums_triangular(mu: MobiusVector) -> SeriesReport:
    """Partial sums of mu(n)/value(n), value being the poset's own sequence."""
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
    it is mu(n) itself and only positive values count.  Each magnitude
    takes one pass for the first index at or above it and one for the
    first index equal to it.
    """
    terms = mu.values[1:]
    # |terms| read as unsigned, so the dtype's minimum does not wrap
    mags = terms if signed else np.abs(terms).view(f"u{terms.itemsize}")
    rows = []
    for m in range(1, int(mags.max()) + 1):  # m fits mags' type, so no cast
        at = int(np.argmax(mags == m))
        geq = int(np.argmax(mags >= m)) + 1
        rows.append(MagnitudeRecord(m, geq, at + 1 if mags[at] == m else None))
    return MagnitudeRecordTable(signed=signed, rows=tuple(rows))


def estimate_C(mertens: SeriesReport, tail_start: int | None = None) -> Fraction:
    """min over n in [tail_start, N] of -ys[n] / n, as an exact rational.

    A positive return means the partial sums stayed at or below a straight
    line of that slope over the whole tail window.  tail_start defaults to
    N/10: the early sums are transient and would dominate the minimum.  The
    window must hold two indices or more, 1 <= tail_start < N, or
    ValueError is raised.

    Each float64 quotient ys[n] / n is within a relative 2**-51.9 of the
    exact one (two roundings), so the exact minimum lies among the n whose
    quotient is within 2**-50 of the largest |quotient| below the float
    maximum; only those are compared as Fractions.
    """
    n = len(mertens)
    if tail_start is None:
        tail_start = max(1, n // 10)
    if not 1 <= tail_start < n:
        raise ValueError(f"tail window needs 1 <= tail_start < N: tail_start={tail_start}, N={n}")
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
