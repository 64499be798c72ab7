"""Divisibility posets induced by strictly increasing integer sequences.

The poset on 1..N puts i below j whenever the i-th sequence value divides
the j-th exactly.  Two sequences are built in: the triangular numbers
i(i+1)/2 and the identity (giving the ordinary divisor lattice).  All
arithmetic is exact integer arithmetic; sequence values are kept within
the unsigned 64-bit range so results are portable to fixed-width code.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import isqrt

import numpy as np

U64_MAX = 2**64 - 1
I64_MAX = 2**63 - 1
I32_MAX = 2**31 - 1


def int_type(bound: int) -> np.dtype:
    """The narrowest signed integer dtype holding every value in -bound..bound.

    Exact integer arrays (Mobius values, partial sums) are stored in it,
    and every exact sum is taken in the type of its bound, so this is the
    one check that keeps an exact sum inside int64: OverflowError, naming
    the bound, past I64_MAX.  It is asked for -bound - 1, not -bound, so
    that +bound fits as well: int8 holds -128 but not +128.
    """
    if bound > I64_MAX:
        raise OverflowError(f"integers up to {bound} in magnitude leave the signed 64-bit range")
    return np.min_scalar_type(-bound - 1)


def magnitude(values: np.ndarray) -> int:
    """The largest |v| of an integer array as a Python int; 0 if it is empty.

    Taken from the extremes in Python integers, so |-2**63| is 2**63 and a
    uint64 value is exact, where np.abs would wrap.
    """
    return max(int(values.max(initial=0)), -int(values.min(initial=0)))


# Largest i with i(i+1)/2 <= U64_MAX.
MAX_TRIANGULAR_INDEX = 6_074_000_999


class SequenceKind(enum.Enum):
    """Which strictly increasing sequence induces the divisibility order."""

    TRIANGULAR = "triangular"
    IDENTITY = "identity"


def sequence_value(kind: SequenceKind, i: int) -> int:
    """Return the i-th sequence value: i(i+1)/2 for triangular, i for identity.

    Raises OverflowError when the value would exceed the unsigned 64-bit
    range, ValueError for i < 1.
    """
    if i < 1:
        raise ValueError(f"index must be >= 1, got {i}")
    if kind is SequenceKind.TRIANGULAR:
        if i > MAX_TRIANGULAR_INDEX:
            raise OverflowError(
                f"triangular value for index {i} exceeds the 64-bit range "
                f"(max index {MAX_TRIANGULAR_INDEX})"
            )
        return i * (i + 1) // 2
    if i > U64_MAX:
        raise OverflowError(f"index {i} exceeds the 64-bit range")
    return i


def sequence_values(kind: SequenceKind, k: np.ndarray) -> np.ndarray:
    """sequence_value over a uint64 array of indices, exact up to 2**64 - 1.

    No range check: the caller checks the largest index with sequence_value.
    """
    if kind is SequenceKind.TRIANGULAR:
        return ((k + 1) >> 1) * (k | 1)  # k(k+1)/2 as the product of its halves
    return k


def triangular_index(v: int) -> int:
    """Index k with k(k+1)/2 == v, or 0 when v is not a triangular number.

    Uses the exact test: v is triangular iff 8v+1 is a perfect square.
    Integer square root only; no floating point near 2**63.
    """
    s = isqrt(8 * v + 1)
    if s * s != 8 * v + 1:
        return 0
    return (s - 1) // 2


@dataclass(frozen=True, eq=False)
class HasseGraph:
    """Covering-relation edges for the poset restricted to 1..n_elements.

    Edge t is (lower[t], upper[t]); the pairs are sorted lexicographically
    and duplicate-free.  The arrays are read-only.
    """

    n_elements: int
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self) -> None:
        self.lower.flags.writeable = False
        self.upper.flags.writeable = False

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The edges as (lower, upper) pairs of Python ints."""
        return tuple(zip(self.lower.tolist(), self.upper.tolist()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, HasseGraph):
            return NotImplemented
        return (
            self.n_elements == other.n_elements
            and np.array_equal(self.lower, other.lower)
            and np.array_equal(self.upper, other.upper)
        )


@dataclass(frozen=True, eq=False)
class PredecessorTable:
    """Strict predecessors of the elements 0..n, in CSR form.

    Row k is indices[indptr[k]:indptr[k + 1]], ascending; indices is int32,
    and indptr, with n + 2 entries, is int32 while the entry count fits it
    and int64 past that.  len(t) == n + 1, t.row(k) is row k as an int32 view,
    iteration yields those views in order, and runs() cuts rows 2..n into
    runs.  The arrays are read-only.
    """

    indptr: np.ndarray
    indices: np.ndarray

    def __post_init__(self) -> None:
        self.indptr.flags.writeable = False
        self.indices.flags.writeable = False

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def row(self, k: int) -> np.ndarray:
        if not 0 <= k < len(self):
            raise IndexError(f"row {k} outside 0..{len(self) - 1}")
        return self.indices[self.indptr[k] : self.indptr[k + 1]]

    def __iter__(self):
        ptr = self.indptr.tolist()
        return map(self.indices.__getitem__, map(slice, ptr, ptr[1:]))

    def runs(self):
        """Yield (lo, hi, entries, offsets) for runs of rows lo..hi tiling 2..n.

        entries is the run's slice of indices, a view; row k of the run is
        entries[offsets[k - lo]:offsets[k - lo + 1]].  A run holds at most
        _RUN_CAP entries (a single row always runs) and ends just before the
        first row whose last entry is >= lo, so no row of a run reads an
        element at or past lo, whatever the sequence.  The search target is
        clamped to the last pointer, so it stays in the pointers' own type
        and numpy searches indptr without a widened copy.
        """
        indptr, indices = self.indptr, self.indices
        lo = 2
        while lo < len(self):
            # rows lo..hi hold at most _RUN_CAP entries, or hi = lo
            target = indptr[lo] + min(_RUN_CAP, indptr[-1] - indptr[lo])
            hi = max(lo, int(np.searchsorted(indptr, target, "right")) - 2)
            reads_lo = indices[indptr[lo + 2 : hi + 2] - 1] >= lo  # rows lo+1..hi
            if reads_lo.any():
                hi = lo + int(reads_lo.argmax())
            start = indptr[lo]
            yield lo, hi, indices[start : indptr[hi + 1]], indptr[lo : hi + 2] - start
            lo = hi + 1


class DivisibilityPoset:
    """The poset (1..max_index, <=) with i below j iff value(i) divides value(j).

    Instances are immutable after construction and safe for concurrent
    readers.
    """

    def __init__(self, kind: SequenceKind, max_index: int):
        if max_index < 1:
            raise ValueError(f"max_index must be >= 1, got {max_index}")
        # 64-bit budget is enforced once here, not per query.
        sequence_value(kind, max_index)
        self.kind = kind
        self.max_index = max_index

    def __repr__(self) -> str:
        return f"DivisibilityPoset({self.kind.value!r}, max_index={self.max_index})"

    def value(self, i: int) -> int:
        """Sequence value of element i (range-checked)."""
        self._check_index(i)
        return sequence_value(self.kind, i)

    def _check_index(self, i: int) -> None:
        if not 1 <= i <= self.max_index:
            raise IndexError(f"element {i} outside 1..{self.max_index}")

    def leq(self, i: int, j: int) -> bool:
        """True iff value(i) divides value(j) exactly."""
        self._check_index(i)
        self._check_index(j)
        if i == j:
            return True
        if i > j:
            # values are strictly increasing, so a larger index cannot divide
            return False
        return self.value(j) % self.value(i) == 0

    def strict_predecessors_trial(self, n: int) -> list[int]:
        """Oracle path: trial loop over every d < n calling leq. O(n) divisions."""
        self._check_index(n)
        return [d for d in range(1, n) if self.leq(d, n)]

    def predecessor_table(self, n: int) -> PredecessorTable:
        """The predecessor rows of the elements 1..n, built in bulk on each call.

        The table is indexed by element, row 0 empty, and covers exactly 1..n.
        """
        self._check_index(n)
        if self.kind is SequenceKind.IDENTITY:
            if n > I32_MAX:
                raise OverflowError(
                    f"identity predecessor table for n = {n} leaves int32 indices"
                )
            return _csr_from_blocks(n, _identity_blocks(n))
        if 8 * (n * (n + 1) // 2) + 1 > I64_MAX:
            raise OverflowError(
                f"triangular predecessor table for n = {n} leaves the exact "
                "int64 range of the builder (8*T(n)+1 > 2**63-1)"
            )
        return _csr_from_blocks(n, _triangular_blocks(n))

    def covers(self, i: int, j: int) -> bool:
        """True iff j covers i: i below j, i != j, nothing strictly between.

        Straight from the definition, scanning every index between i and j;
        it shares no code with the predecessor table, so it can check it.
        """
        if not self.leq(i, j) or i == j:
            return False
        return not any(self.leq(i, z) and self.leq(z, j) for z in range(i + 1, j))

    def hasse_edges(self, n: int) -> HasseGraph:
        """Exactly the covering pairs among elements 1..n.

        _covers finds them, by upper element, from the table.  The table is
        passed on and never named here, so it is freed when _covers returns,
        and so are the cover pointers once they give the row counts: neither
        is held while the edges are listed and sorted.
        """
        cptr, cover = _covers(self.predecessor_table(n))
        counts = np.diff(cptr)
        del cptr
        upper = np.repeat(np.arange(n + 1, dtype=np.int32), counts)
        del counts
        # one sort of the packed keys lower << 32 | upper puts the edges,
        # listed by upper, in lexicographic order
        key = cover.astype(np.int64)
        del cover
        key <<= 32
        key |= upper
        key.sort()
        upper = key.astype(np.int32)  # the low 32 bits
        key >>= 32
        return HasseGraph(n, key.astype(np.int32), upper)


def _covers(table: PredecessorTable) -> tuple[np.ndarray, np.ndarray]:
    """The covers of each element of the table, as a CSR (cptr, cover) by upper.

    A predecessor z of j is covered away exactly when z is covered by some
    predecessor w of j: if z < y < j, the element covering z on a maximal
    chain from z up to y lies in row j.  So each entry (j, w) gathers only
    w's cover row, the edges already found with upper w, kept in the CSR,
    which grows in place; cptr takes the table's pointer type, as the
    covers are some of its entries.  Rows go in the table's runs, so every
    cover row a run reads is final.  Within a run the entries (j, z) have
    ascending keys j << 32 | z, and a binary search marks each gathered c
    by the key j << 32 | c, an entry of row j by transitivity.  The
    unmarked entries are the covers.
    """
    cptr = np.zeros(len(table) + 1, dtype=table.indptr.dtype)
    cover = np.zeros(0, dtype=np.int32)
    size = 0
    for lo, hi, z, offsets in table.runs():
        base = np.repeat(np.arange(lo, hi + 1, dtype=np.int64), np.diff(offsets))
        base <<= 32  # the key of entry (j, z) is base | z
        # the cover row of z, gathered once per entry (j, z)
        first = cptr[z]
        hops = cptr[z + 1] - first
        start = np.repeat(first - (np.cumsum(hops) - hops), hops)
        below = cover[start + np.arange(len(start), dtype=np.int64)]
        keep = np.ones(len(z), dtype=bool)
        keep[np.searchsorted(base | z, np.repeat(base, hops) | below)] = False
        kept = z[keep]
        if size + len(kept) > len(cover):
            cover.resize(size + len(kept) + size // 4, refcheck=False)
        cover[size : size + len(kept)] = kept
        # every row holds a cover, so no reduceat segment is empty
        per_row = np.add.reduceat(keep, offsets[:-1], dtype=np.int64)
        cptr[lo + 1 : hi + 2] = size + np.cumsum(per_row)
        size += len(kept)
    cover.resize(size, refcheck=False)
    return cptr, cover


# Most entries in a run of rows of the Mobius recursion and the Hasse pass.
_RUN_CAP = 1 << 14

# Segment sizes for the triangular builder.  A block of k shares one pair of
# divisor windows; its candidate divisors are then processed in slices of
# about _CANDIDATE_BUDGET, so transient arrays stay at a few MB at any n.
_K_BLOCK = 4096
_CANDIDATE_BUDGET = 1 << 14


def _window_divisors(w0: int, w1: int, odd: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Divisors of every m in w0..w1, by a windowed sieve over d <= sqrt(w1).

    With odd, only the odd m are listed, and only odd d divide them.  Returns
    (divs, offsets): the divisors of m, in no particular order, are
    divs[offsets[j]:offsets[j + 1]] for the slot j = (m - w0) >> odd.
    """
    if odd:
        w1 = (w1 - 1) | 1  # the largest odd m in the window
    d = np.arange(1, isqrt(w1) + 1, 1 + odd, dtype=np.int64)
    # each d pairs with its cofactor c = m // d, so only c >= d counts; an odd
    # m has odd cofactors only, 2 apart
    c = -(-w0 // d)
    c |= odd
    np.maximum(c, d, out=c)
    count = np.maximum(((w1 // d - c) >> odd) + 1, 0)
    dd = np.repeat(d, count)
    co = np.arange(len(dd), dtype=np.int64) - np.repeat(np.cumsum(count) - count, count)
    co <<= odd
    co += np.repeat(c, count)
    m = co * dd
    distinct = co != dd
    slot = np.concatenate([m, m[distinct]])
    divs = np.concatenate([dd, co[distinct]])
    slot -= w0
    slot >>= odd
    n_slots = ((w1 - w0) >> odd) + 1
    # the slots fit the smallest unsigned type, for which numpy's stable
    # argsort is a radix sort
    key = slot.astype(np.min_scalar_type(n_slots))
    offsets = np.zeros(n_slots + 1, dtype=np.int64)
    np.cumsum(np.bincount(key, minlength=n_slots), out=offsets[1:])
    return divs[np.argsort(key, kind="stable")], offsets


def _triangular_hits(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the triangular values in v, and their k with k(k+1)/2 == v.

    v is triangular iff w = 8v+1 is a perfect square, tested exactly while
    w <= 2**63-1.  For a square w = s*s with s < 2**32, the float root of
    float(w) is off by less than half a float spacing at s, so it truncates
    to s itself; a non-square fails the integer check whatever the float
    root is.  The root stays below 3,037,000,500, so s*s never leaves int64.
    Only the hits, which are few, pay for the index (s - 1) / 2.
    """
    w = 8 * v
    w += 1
    s = np.sqrt(w).astype(np.int64)
    hits = np.flatnonzero(s * s == w)
    return hits, (s[hits] - 1) >> 1


def _csr_from_blocks(n: int, blocks) -> PredecessorTable:
    """Assemble the table on 1..n from blocks (lo, hi, row, pred).

    The blocks cover the rows 2..n in ascending order, each holding the
    entries of its rows lo..hi in any order.  Sorting the keys row << 32 | pred
    orders a block by row and then by predecessor.  The entries go into
    one buffer grown in place, so the table is never held twice.  Both
    arrays grow with the blocks, the row counts as int32; resize fills
    with zeros.  The counts become pointers by a cumsum in place, widened
    to int64 first only when the entry count passes I32_MAX.
    """
    indptr = np.zeros(2, dtype=np.int32)  # rows 0 and 1 are empty
    indices = np.zeros(0, dtype=np.int32)
    size = 0
    for lo, hi, row, pred in blocks:
        key = np.sort(row << 32 | pred)
        if size + len(key) > len(indices):
            indices.resize(size + len(key) + size // 4, refcheck=False)
        indices[size : size + len(key)] = key.astype(np.int32)  # the low 32 bits
        size += len(key)
        indptr.resize(hi + 2, refcheck=False)
        indptr[lo + 1 :] = np.bincount((key >> 32) - lo, minlength=hi - lo + 1)
    indptr.resize(n + 2, refcheck=False)
    if size > I32_MAX:
        indptr = indptr.astype(np.int64)
    np.cumsum(indptr, out=indptr)
    indices.resize(size, refcheck=False)
    return PredecessorTable(indptr, indices)


def _identity_blocks(n: int):
    """Blocks (lo, hi, m, d) of the proper divisors d of each m in lo..hi."""
    for lo in range(2, n + 1, _K_BLOCK):
        hi = min(lo + _K_BLOCK - 1, n)
        divs, offsets = _window_divisors(lo, hi)
        m = np.repeat(np.arange(lo, hi + 1, dtype=np.int64), np.diff(offsets))
        keep = divs < m
        yield lo, hi, m[keep], divs[keep]


def _triangular_blocks(n: int):
    """Blocks (lo, hi, k, d) of the triangular predecessors d of each k in lo..hi.

    T(k) is the product of the coprime factors (k+1)//2 and k|1, the second
    always odd.  Per block of k, a windowed sieve lists the divisors of the
    first and an odd-only one those of the second; their ragged outer
    product is every divisor of T(k) exactly once, and the triangular ones
    with index below k are the predecessors.  Rows are taken in slices of
    about _CANDIDATE_BUDGET candidates, each slice expanded by its rows'
    a-divisors, so no candidate needs a division.  The divisor counts, not
    the magnitudes, drive the cost.
    """
    for lo in range(2, n + 1, _K_BLOCK):
        hi = min(lo + _K_BLOCK - 1, n)
        k = np.arange(lo, hi + 1, dtype=np.int64)
        a0 = (lo + 1) // 2
        divs_a, off_a = _window_divisors(a0, (hi + 1) // 2)
        divs_b, off_b = _window_divisors(lo, hi | 1, odd=True)
        ia = ((k + 1) >> 1) - a0
        ib = ((k | 1) - lo) >> 1
        start_a, n_a = off_a[ia], off_a[ia + 1] - off_a[ia]
        start_b, n_b = off_b[ib], off_b[ib + 1] - off_b[ib]
        cum = np.cumsum(n_a * n_b)
        cuts = np.searchsorted(
            cum, np.arange(_CANDIDATE_BUDGET, cum[-1], _CANDIDATE_BUDGET), side="right"
        )
        bounds = [0, *cuts.tolist(), len(k)]
        for s, e in zip(bounds[:-1], bounds[1:]):
            na, nb = n_a[s:e], n_b[s:e]
            # one entry per a-divisor of each row, carrying its row's b-side
            ja = np.repeat(start_a[s:e] - (np.cumsum(na) - na), na)
            ja += np.arange(len(ja))
            nb_a = np.repeat(nb, na)
            jb = np.repeat(np.repeat(start_b[s:e], na) - (np.cumsum(nb_a) - nb_a), nb_a)
            jb += np.arange(len(jb))
            hits, idx = _triangular_hits(np.repeat(divs_a[ja], nb_a) * divs_b[jb])
            # few candidates are triangular; among those, drop k itself
            kk = np.searchsorted(cum[s:e] - (cum[s - 1] if s else 0), hits, side="right")
            kk += lo + s
            keep = idx < kk
            yield lo + s, lo + e - 1, kk[keep], idx[keep]
