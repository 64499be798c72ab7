"""Executable divisibility facts about triangular numbers.

Both checks verify divisibility by direct division and report the actual
quotient; the closed-form quotient and the mod-4 pattern live only in the
tests, so a wrong claim would be falsified rather than baked in.  Python
integers are unbounded, so no input can overflow here.
"""

from __future__ import annotations

from dataclasses import dataclass


def _tri(k: int) -> int:
    return k * (k + 1) // 2


@dataclass(frozen=True)
class PropositionVerdict:
    """Outcome of one divisibility check.

    witness_ratio is the exact quotient dividend / T(n) when the
    divisibility holds, else None.
    """

    n: int
    holds: bool
    witness_ratio: int | None


def _prop1_terms(n: int) -> tuple[int, int]:
    """(dividend, divisor) of proposition 1: T(n(n+1)) and T(n)."""
    return _tri(n * (n + 1)), _tri(n)


def _prop2_terms(n: int) -> tuple[int, int]:
    """(dividend, divisor) of proposition 2: T(T(n)) and T(n)."""
    divisor = _tri(n)
    return _tri(divisor), divisor


def _verdict(n: int, terms) -> PropositionVerdict:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    dividend, divisor = terms(n)
    if dividend % divisor == 0:
        return PropositionVerdict(n=n, holds=True, witness_ratio=dividend // divisor)
    return PropositionVerdict(n=n, holds=False, witness_ratio=None)


def prop1_check(n: int) -> PropositionVerdict:
    """Does T(n) divide T(n(n+1))?  Holds for every n."""
    return _verdict(n, _prop1_terms)


def prop2_check(n: int) -> PropositionVerdict:
    """Does T(n) divide T(T(n))?  Holds exactly when n is 1 or 2 mod 4."""
    return _verdict(n, _prop2_terms)


@dataclass(frozen=True)
class RangeScan:
    """Summary of running both checks over 1..max_n."""

    max_n: int
    prop1_failures: tuple[int, ...]
    prop2_pattern_breaks: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return not self.prop1_failures and not self.prop2_pattern_breaks


def scan_range(max_n: int) -> RangeScan:
    """Exhaustively check 1..max_n.

    prop1 must hold everywhere; prop2 must hold exactly on n = 1, 2 mod 4.
    Divisibility is recomputed by division each time, never inferred from
    the residue; the terms come from the same helpers as prop1_check and
    prop2_check, without building a verdict per n.
    """
    if max_n < 1:
        raise ValueError(f"max_n must be >= 1, got {max_n}")
    p1_bad = []
    p2_bad = []
    for n in range(1, max_n + 1):
        dividend, divisor = _prop1_terms(n)
        if dividend % divisor:
            p1_bad.append(n)
        dividend, divisor = _prop2_terms(n)
        if (dividend % divisor == 0) != (n % 4 in (1, 2)):
            p2_bad.append(n)
    return RangeScan(
        max_n=max_n,
        prop1_failures=tuple(p1_bad),
        prop2_pattern_breaks=tuple(p2_bad),
    )
