"""Mobius values of divisibility posets, by recursion and by exact matrix inversion.

The recursion over the cached predecessor table is the production path; building
the zeta matrix and inverting it stays in as an independent correctness
oracle for moderate sizes.  Everything is exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

import numpy as np

from .poset import I64_MAX, DivisibilityPoset, SequenceKind

# Largest n for which a dense n x n matrix is ever materialized.
DENSE_CAP = 1000

# Most predecessor entries gathered at once by the recursion.
_GATHER_CAP = 1 << 20


def _guard_magnitude(value: int) -> int:
    """Abort loudly instead of letting a value leave the signed 64-bit range."""
    if not -I64_MAX - 1 <= value <= I64_MAX:
        raise OverflowError(f"Mobius value {value} exceeds the signed 64-bit range")
    return value


@dataclass(frozen=True, eq=False)
class MobiusVector:
    """One-variable values mu(1, n) for n = 1..len(self), as an integer array.

    values[0] is an unused slot so that values[n] is the n-th entry.  The
    recursion fills int64; the classical sieve (identity kind) fills int8.
    value() and terms() hand out Python ints.
    """

    kind: SequenceKind
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.values) - 1

    def value(self, n: int) -> int:
        if not 1 <= n < len(self.values):
            raise IndexError(f"index {n} outside 1..{len(self)}")
        return int(self.values[n])

    __getitem__ = value

    def terms(self) -> list[int]:
        """The entries as a plain 0-based list [mu(1,1), ..., mu(1,N)]."""
        return self.values[1:].tolist()


def _block_end(kind: SequenceKind, lo: int) -> int:
    """Largest hi such that every strict predecessor of lo..hi lies below lo.

    For a strict predecessor d of k, value(k)/value(d) is an integer >= 2,
    so value(d) <= value(k)/2.  While value(hi) < 2*value(lo) that puts
    value(d) below value(lo), hence d < lo.  Identity: hi = 2*lo - 1.
    Triangular: the largest hi with T(hi) <= 2*T(lo) - 1.
    """
    if kind is SequenceKind.IDENTITY:
        return 2 * lo - 1
    return (isqrt(16 * (lo * (lo + 1) // 2) - 7) - 1) // 2


def mobius_one_var(poset: DivisibilityPoset, n: int | None = None) -> MobiusVector:
    """Compute mu(1, k) for k = 1..n by the zero-sum recursion.

    mu(1, 1) = 1 and, for k >= 2, mu(1, k) is minus the sum of mu(1, d)
    over all strict predecessors d of k.  The values are computed in
    geometric blocks lo..hi (see _block_end) whose predecessors all lie
    below lo and are final, so a block's rows can be summed in any grouping:
    runs of rows holding at most _GATHER_CAP entries (or a single row),
    each one gather and one np.add.reduceat over the table; every row
    k >= 2 holds 1, so none is empty.  Before each block, the largest |mu|
    so far times its longest row must fit in int64, or OverflowError is
    raised.
    """
    if n is None:
        n = poset.max_index
    table = poset.predecessor_table(n)
    indptr, indices = table.indptr, table.indices
    mu = np.zeros(n + 1, dtype=np.int64)
    mu[1] = 1
    top = 1  # largest |mu| so far, a Python int
    lo = 2
    while lo <= n:
        hi = min(n, _block_end(poset.kind, lo))
        starts = indptr[lo : hi + 2]
        bound = top * int(np.diff(starts).max())
        if bound > I64_MAX:
            raise OverflowError(
                f"Mobius sums at n = {lo}..{hi} may reach {bound}, "
                "beyond the signed 64-bit range"
            )
        row = 0
        while row <= hi - lo:
            # rows row..end - 1: at most _GATHER_CAP entries, or one row
            end = int(np.searchsorted(starts, starts[row] + _GATHER_CAP, "right")) - 1
            end = max(end, row + 1)
            run = starts[row : end + 1]
            gathered = mu[indices[run[0] : run[-1]]]
            np.negative(
                np.add.reduceat(gathered, run[:-1] - run[0]), out=mu[lo + row : lo + end]
            )
            row = end
        top = max(top, int(np.abs(mu[lo : hi + 1]).max()))
        lo = hi + 1
    return MobiusVector(kind=poset.kind, values=mu)


def mobius_two_var(poset: DivisibilityPoset, m: int, n: int) -> int:
    """mu(m, n) by the zero-sum recursion over the interval [m, n].

    Zero when m is not below n.  Otherwise one ascending pass over n's
    predecessor row: mu(m, m) = 1, and each z above m gets minus the sum
    of mu(m, w) over its own predecessors w; a w outside the interval
    contributes zero.  The row comes from the table of the whole poset,
    so a sequence of calls with growing n builds it only once.
    """
    if not poset.leq(m, n):
        return 0
    table = poset.predecessor_table(poset.max_index)
    mu = {m: 1}
    for z in table[n] + [n]:
        if z > m:
            mu[z] = _guard_magnitude(-sum(mu.get(w, 0) for w in table[z]))
    return mu[n]


@dataclass(frozen=True, eq=False)
class _SquareMatrix:
    """An n x n integer array; entry [i-1, j-1] belongs to the pair (i, j)."""

    array: np.ndarray

    def __post_init__(self) -> None:
        shape = self.array.shape
        if len(shape) != 2 or shape[0] != shape[1]:
            raise ValueError(f"expected a square matrix, got shape {shape}")

    @property
    def n(self) -> int:
        return len(self.array)

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """The entries as tuples of Python ints, built on each call."""
        return tuple(map(tuple, self.array.tolist()))

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return np.array_equal(self.array, other.array)


class ZetaMatrix(_SquareMatrix):
    """0/1 incidence matrix: array[i-1, j-1] = 1 iff j is below i.

    Lower triangular with unit diagonal, since a smaller value never has a
    larger index.
    """


class MobiusMatrix(_SquareMatrix):
    """Exact integer inverse of a zeta matrix: array[i-1, j-1] = mu(j, i)."""

    def first_column(self) -> list[int]:
        return self.array[:, 0].tolist()


def zeta_matrix(poset: DivisibilityPoset, n: int) -> ZetaMatrix:
    """Dense incidence matrix of the poset restricted to 1..n (n <= DENSE_CAP)."""
    if n > DENSE_CAP:
        raise ValueError(f"dense matrix size {n} exceeds the cap DENSE_CAP = {DENSE_CAP}")
    table = poset.predecessor_table(n)
    ptr = table.indptr[: n + 2]
    z = np.eye(n, dtype=np.int8)
    z[np.repeat(np.arange(n), np.diff(ptr[1:])), table.indices[: ptr[-1]] - 1] = 1
    return ZetaMatrix(z)


def _require_lower_unitriangular(z: np.ndarray) -> None:
    """Raise on the first entry, in row-major order, off the unit diagonal pattern."""
    n = len(z)
    bad = np.triu(z, 1) != 0
    bad[np.diag_indices(n)] = z.diagonal() != 1
    if bad.any():
        i, j = divmod(int(bad.argmax()), n)
        if i == j:
            raise ValueError(f"diagonal entry at row {i + 1} is {z[i, i]}, expected 1")
        raise ValueError(f"nonzero entry above the diagonal at ({i + 1}, {j + 1})")


def _check_sum_bound(magnitudes: list[int], ks: list[int]) -> None:
    """OverflowError unless every partial sum of the vectors ks fits in int64.

    magnitudes[k] bounds the entries of vector k; the check runs in Python
    integers before the int64 sum does, so a sum that could wrap is never
    computed.
    """
    bound = sum(magnitudes[k] for k in ks)
    if bound > I64_MAX:
        raise OverflowError(
            f"Mobius matrix sums may reach {bound}, beyond the signed 64-bit range"
        )


def _forward_substitute(ones: np.ndarray) -> np.ndarray:
    """M with Z.M = I, Z being the 0/1 lower unitriangular `ones`.

    Row i of M is e_i minus the sum of the earlier rows k with Z[i, k] = 1,
    in int64.  Each row's largest magnitude is kept, so a sum that could
    leave int64 raises OverflowError before it runs.
    """
    n = len(ones)
    m = np.zeros((n, n), dtype=np.int64)
    magnitude = [0] * n
    for i in range(n):
        ks = np.flatnonzero(ones[i, :i])
        if len(ks):
            _check_sum_bound(magnitude, ks.tolist())
            np.negative(m[ks, :i].sum(0), out=m[i, :i])
        m[i, i] = 1
        magnitude[i] = int(np.abs(m[i, : i + 1]).max())
    return m


def invert_zeta(zeta: ZetaMatrix) -> MobiusMatrix:
    """Exact integer inverse of a lower unitriangular 0/1 matrix.

    Forward substitution in int64, guarded against overflow.  The product
    check runs before returning, on the arrays already in hand, so a bad
    inverse can never escape.
    """
    _require_lower_unitriangular(zeta.array)
    mobius = MobiusMatrix(_forward_substitute(zeta.array == 1))
    if not verify_inverse(zeta, mobius):
        raise ArithmeticError("forward substitution produced a non-inverse")
    return mobius


def verify_inverse(zeta: ZetaMatrix, mobius: MobiusMatrix) -> bool:
    """True iff mobius . zeta is exactly the identity matrix.

    Column j of the product is the sum of the columns k of mobius with
    Z[k, j] = 1, gathered in int64 after a magnitude bound rules out
    wrapping (OverflowError otherwise).
    """
    if zeta.n != mobius.n:
        raise ValueError(f"dimension mismatch: {mobius.n} vs {zeta.n}")
    ones = zeta.array == 1
    m = mobius.array
    # exact column magnitudes: max(|max|, |min|) in Python integers
    highs, lows = m.max(0, initial=0).tolist(), m.min(0, initial=0).tolist()
    magnitude = [max(hi, -lo) for hi, lo in zip(highs, lows)]
    for j in range(zeta.n):
        ks = np.flatnonzero(ones[:, j])
        _check_sum_bound(magnitude, ks.tolist())
        col = m[:, ks].sum(1)
        col[j] -= 1
        if col.any():
            return False
    return True
