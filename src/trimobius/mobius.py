"""Mobius values of divisibility posets, by recursion and by exact matrix inversion.

The recursion over the predecessor table is the production path.  The
dense inverse (n <= DENSE_CAP), product-checked, is the mobius-matrix and
heatmap output and the tests' oracle for mu(m, n).  Exact integers throughout,
each array of values in the narrowest signed type holding them
(poset.int_type), so widen one before further arithmetic on it.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._numpy import np
from .poset import DivisibilityPoset, PredecessorTable, SequenceKind, int_type, magnitude

# Largest n for which a dense n x n matrix is ever materialized.
DENSE_CAP = 1000


@dataclass(frozen=True, eq=False)
class MobiusVector:
    """One-variable values mu(1, n) for n = 1..len(self), as an integer array.

    values[0] is an unused slot so that values[n] is the n-th entry.  The
    recursion fills the narrowest signed type holding its largest |value|
    (poset.int_type), int8 through N = 10**7; the classical sieve
    (identity kind) fills int8.  Arithmetic on values wraps in that type,
    so widen first.  value() and terms() hand out Python ints.  ValueError
    if it holds no term.
    """

    kind: SequenceKind
    values: np.ndarray

    def __post_init__(self) -> None:
        if len(self.values) < 2:
            raise ValueError("empty Mobius vector")

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


def _mu_from(table: PredecessorTable, m: int) -> np.ndarray:
    """mu(m, k) for k = 0..n, n the table's last element, by the zero-sum recursion.

    Entry 0 is 0, and so is entry 1 unless m = 1.  mu(m, m) = 1 and, for
    every other k >= 2, mu(m, k) is minus the sum of mu(m, d) over all
    strict predecessors d of k; a row below m, or not above m, sums only
    zeros.  The values are computed in the table's runs of rows lo..hi,
    each one gather and one np.add.reduceat; every row k >= 2 holds 1, so
    none is empty, and every value a run reads is final.  No row of the
    run holding m reads m, so that run writes 0 over mu(m, m), which is
    set back to 1.  A run's sums are taken in int_type of the largest |mu|
    it gathers times its longest row, which raises OverflowError before a
    sum could leave int64, whatever the run cap.  mu starts as int8 and is
    widened to int_type of a run's largest |sum| when that passes its type,
    so it is returned in the narrowest type holding its values.
    """
    mu = np.zeros(len(table), dtype=np.int8)
    mu[m] = 1
    for lo, hi, entries, offsets in table.runs():
        gathered = mu[entries]
        dtype = int_type(magnitude(gathered) * int(np.diff(offsets).max()))
        sums = np.add.reduceat(gathered, offsets[:-1], dtype=dtype)
        del gathered  # freed before the next run's is built
        top = magnitude(sums)
        if top > np.iinfo(mu.dtype).max:
            mu = mu.astype(int_type(top))
        np.negative(sums, out=mu[lo : hi + 1])
        if lo <= m <= hi:
            mu[m] = 1
    return mu


def mobius_one_var(poset: DivisibilityPoset, n: int | None = None) -> MobiusVector:
    """Compute mu(1, k) for k = 1..n by the zero-sum recursion from 1.

    The values come in the narrowest signed type holding them.
    OverflowError if a sum could leave the signed 64-bit range.
    """
    if n is None:
        n = poset.max_index
    return MobiusVector(kind=poset.kind, values=_mu_from(poset.predecessor_table(n), 1))


def mobius_two_var(poset: DivisibilityPoset, m: int, n: int) -> int:
    """mu(m, n): zero unless m is below n, else the zero-sum recursion from m.

    The recursion runs over the poset's table on 1..n, built on each call.
    """
    if not poset.leq(m, n):
        return 0
    return int(_mu_from(poset.predecessor_table(n), m)[n])


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
    """Exact integer inverse of a zeta matrix: array[i-1, j-1] = mu(j, i).

    invert_zeta fills the narrowest signed type holding its values
    (poset.int_type), int8 at the dense cap for both kinds.
    """


def zeta_matrix(poset: DivisibilityPoset, n: int) -> ZetaMatrix:
    """Dense incidence matrix of the poset restricted to 1..n (n <= DENSE_CAP)."""
    if n > DENSE_CAP:
        raise ValueError(f"dense matrix size {n} exceeds the cap DENSE_CAP = {DENSE_CAP}")
    z = np.eye(n, dtype=np.int8)
    for lo, hi, entries, offsets in poset.predecessor_table(n).runs():
        z[np.repeat(np.arange(lo - 1, hi), np.diff(offsets)), entries - 1] = 1
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


def _forward_substitute(ones: np.ndarray) -> np.ndarray:
    """M with Z.M = I, Z being the 0/1 lower unitriangular `ones`.

    Row i of M is e_i minus the sum of the earlier rows k with Z[i, k] = 1.
    Each row's largest magnitude is kept in Python integers, and the sum
    is taken in int_type of theirs, which raises OverflowError before it
    could leave int64.  M starts as int8 and is widened to int_type(largest
    |row sum|) when a sum passes its type, as _mu_from widens mu, so it is
    returned in the narrowest type holding its values.
    """
    n = len(ones)
    m = np.zeros((n, n), dtype=np.int8)
    tops = [0] * n
    for i in range(n):
        ks = np.flatnonzero(ones[i, :i])
        if len(ks):
            sums = m[ks, :i].sum(0, dtype=int_type(sum(tops[k] for k in ks.tolist())))
            tops[i] = magnitude(sums)
            if tops[i] > np.iinfo(m.dtype).max:
                m = m.astype(int_type(tops[i]))
            np.negative(sums, out=m[i, :i])
        m[i, i] = 1
        tops[i] = max(tops[i], 1)
    return m


def invert_zeta(zeta: ZetaMatrix) -> MobiusMatrix:
    """Exact integer inverse of a lower unitriangular 0/1 matrix.

    Forward substitution, each sum in the type of its bound (OverflowError
    past int64).  The product check runs before returning, on the arrays
    already in hand, so a bad inverse can never escape.
    """
    _require_lower_unitriangular(zeta.array)
    mobius = MobiusMatrix(_forward_substitute(zeta.array == 1))
    if not verify_inverse(zeta, mobius):
        raise ArithmeticError("forward substitution produced a non-inverse")
    return mobius


def verify_inverse(zeta: ZetaMatrix, mobius: MobiusMatrix) -> bool:
    """True iff mobius . zeta is exactly the identity matrix.

    Column j of the product is the sum of the columns k of mobius with
    Z[k, j] = 1, gathered and summed in int_type of the sum of their
    largest magnitudes, which raises OverflowError before it could leave
    int64.
    """
    if zeta.n != mobius.n:
        raise ValueError(f"dimension mismatch: {mobius.n} vs {zeta.n}")
    ones = zeta.array == 1
    m = mobius.array
    # exact column magnitudes: max(|max|, |min|) in Python integers
    highs, lows = m.max(0, initial=0).tolist(), m.min(0, initial=0).tolist()
    tops = [max(hi, -lo) for hi, lo in zip(highs, lows)]
    for j in range(zeta.n):
        ks = np.flatnonzero(ones[:, j])
        col = m[:, ks].sum(1, dtype=int_type(sum(tops[k] for k in ks.tolist())))
        col[j] -= 1
        if col.any():
            return False
    return True
