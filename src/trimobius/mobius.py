"""Mobius values of divisibility posets, by recursion and by exact matrix inversion.

The recursion over cached predecessor lists is the production path; building
the zeta matrix and inverting it stays in as an independent correctness
oracle for moderate sizes.  Everything is exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .poset import I64_MAX, DivisibilityPoset, SequenceKind

def _guard_magnitude(value: int) -> int:
    """Abort loudly instead of letting a value leave the signed 64-bit range."""
    if not -I64_MAX - 1 <= value <= I64_MAX:
        raise OverflowError(f"Mobius value {value} exceeds the signed 64-bit range")
    return value


@dataclass(frozen=True)
class MobiusVector:
    """One-variable values mu(1, n) for n = 1..len(self), exact integers.

    values[0] is an unused slot so that values[n] is the n-th entry.
    """

    kind: SequenceKind
    values: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.values) - 1

    def value(self, n: int) -> int:
        if not 1 <= n < len(self.values):
            raise IndexError(f"index {n} outside 1..{len(self)}")
        return self.values[n]

    __getitem__ = value

    def terms(self) -> list[int]:
        """The entries as a plain 0-based list [mu(1,1), ..., mu(1,N)]."""
        return list(self.values[1:])


def mobius_one_var(poset: DivisibilityPoset, n: int | None = None) -> MobiusVector:
    """Compute mu(1, k) for k = 1..n by the zero-sum recursion.

    mu(1, 1) = 1 and, for k >= 2, mu(1, k) is minus the sum of mu(1, d)
    over all strict predecessors d of k.  Predecessor lists come from the
    poset's bulk cache, so the whole vector costs one pass over the lists.
    """
    if n is None:
        n = poset.max_index
    table = poset.predecessor_table(n)
    values = [0] * (n + 1)
    values[1] = 1
    for k in range(2, n + 1):
        acc = 0
        row = values
        for d in table[k]:
            acc += row[d]
        values[k] = _guard_magnitude(-acc)
    return MobiusVector(kind=poset.kind, values=tuple(values))


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


@dataclass(frozen=True)
class ZetaMatrix:
    """0/1 incidence matrix: rows[i-1][j-1] = 1 iff j is below i.

    Lower triangular with unit diagonal, since a smaller value never has a
    larger index.
    """

    n: int
    rows: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class MobiusMatrix:
    """Exact integer inverse of a zeta matrix: rows[i-1][j-1] = mu(j, i)."""

    n: int
    rows: tuple[tuple[int, ...], ...]

    def first_column(self) -> list[int]:
        return [row[0] for row in self.rows]


def zeta_matrix(poset: DivisibilityPoset, n: int) -> ZetaMatrix:
    """Dense incidence matrix of the poset restricted to 1..n."""
    table = poset.predecessor_table(n)
    rows = []
    for i in range(1, n + 1):
        row = [0] * n
        row[i - 1] = 1
        for d in table[i]:
            row[d - 1] = 1
        rows.append(tuple(row))
    return ZetaMatrix(n=n, rows=tuple(rows))


def _require_lower_unitriangular(rows: tuple[tuple[int, ...], ...]) -> None:
    for i, row in enumerate(rows):
        if row[i] != 1:
            raise ValueError(f"diagonal entry at row {i + 1} is {row[i]}, expected 1")
        for j in range(i + 1, len(rows)):
            if row[j] != 0:
                raise ValueError(f"nonzero entry above the diagonal at ({i + 1}, {j + 1})")


def invert_zeta(zeta: ZetaMatrix) -> MobiusMatrix:
    """Exact integer inverse of a lower unitriangular 0/1 matrix.

    Forward substitution row by row, walking only the positions where a
    zeta column holds a 1.  The product check runs before returning, so a
    bad inverse can never escape.
    """
    n = zeta.n
    _require_lower_unitriangular(zeta.rows)
    # ones_below[j] = rows k > j with a 1 in column j, ascending
    ones_below = [
        [k for k in range(j + 1, n) if zeta.rows[k][j] == 1] for j in range(n)
    ]
    rows = []
    for i in range(n):
        row = [0] * n
        row[i] = 1
        for j in range(i - 1, -1, -1):
            acc = 0
            for k in ones_below[j]:
                if k > i:
                    break
                acc += row[k]
            row[j] = _guard_magnitude(-acc)
        rows.append(tuple(row))
    mobius = MobiusMatrix(n=n, rows=tuple(rows))
    if not verify_inverse(zeta, mobius):
        raise ArithmeticError("forward substitution produced a non-inverse")
    return mobius


def verify_inverse(zeta: ZetaMatrix, mobius: MobiusMatrix) -> bool:
    """True iff mobius . zeta is exactly the identity matrix."""
    if zeta.n != mobius.n:
        raise ValueError(f"dimension mismatch: {mobius.n} vs {zeta.n}")
    n = zeta.n
    ones = [[k for k in range(n) if zeta.rows[k][j] == 1] for j in range(n)]
    for i in range(n):
        mrow = mobius.rows[i]
        for j in range(n):
            acc = 0
            for k in ones[j]:
                acc += mrow[k]
            if acc != (1 if i == j else 0):
                return False
    return True
