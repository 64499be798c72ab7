"""OEIS b-file reading, writing, and comparison.

A b-file is the OEIS flat format: one "index value" pair per line, ASCII
decimal, indices contiguous and ascending.  Snapshots of the two submitted
sequences ship with the package so comparisons work offline; fuller
b-files downloaded from oeis.org can be passed in by path.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass
from pathlib import Path

# Bundled snapshot names -> resource files (first 10 published terms each).
BUNDLED_SNAPSHOTS = {
    "A350682": "b350682.txt",  # Mobius values of the triangular divisibility order
    "A351167": "b351167.txt",  # their partial sums
}


@dataclass(frozen=True)
class BFile:
    """Parsed b-file: contiguous (n, a(n)) pairs starting at offset."""

    offset: int
    lines: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.lines)

    def terms(self) -> list[int]:
        return [value for _, value in self.lines]

    @property
    def last_index(self) -> int:
        return self.lines[-1][0]


def format_bfile(terms, offset: int = 1) -> str:
    """Render terms as b-file text: "n value\\n" per line, nothing else."""
    terms = list(terms)
    if not terms:
        raise ValueError("refusing to format an empty series")
    if not all(issubclass(tp, int) for tp in set(map(type, terms))):
        bad = next(t for t in terms if not isinstance(t, int))
        raise TypeError(f"b-file values must be exact integers, got {bad!r}")
    return "".join([f"{k} {t}\n" for k, t in zip(range(offset, offset + len(terms)), terms)])


def export_bfile(terms, path, offset: int = 1) -> None:
    """Write terms to path in b-file format."""
    Path(path).write_text(format_bfile(terms, offset=offset), encoding="ascii")


def parse_bfile(text: str) -> BFile:
    """Parse b-file text.  Skips blank and '#' comment lines.

    Raises ValueError on malformed lines or non-contiguous indices.
    """
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise ValueError(f"line {lineno}: expected 'index value', got {raw!r}")
        try:
            n, value = int(fields[0]), int(fields[1])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: non-integer field in {raw!r}") from exc
        if pairs and n != pairs[-1][0] + 1:
            raise ValueError(
                f"line {lineno}: index {n} not contiguous after {pairs[-1][0]}"
            )
        pairs.append((n, value))
    if not pairs:
        raise ValueError("b-file contains no data lines")
    return BFile(offset=pairs[0][0], lines=tuple(pairs))


def load_bfile(path) -> BFile:
    return parse_bfile(Path(path).read_text(encoding="ascii"))


def bundled_snapshot(name: str) -> BFile:
    """Load one of the packaged sequence snapshots by its OEIS id."""
    try:
        filename = BUNDLED_SNAPSHOTS[name]
    except KeyError:
        raise KeyError(
            f"no bundled snapshot {name!r}; have {sorted(BUNDLED_SNAPSHOTS)}"
        ) from None
    resource = importlib.resources.files("trimobius").joinpath("data", filename)
    return parse_bfile(resource.read_text(encoding="ascii"))


@dataclass(frozen=True)
class DiffReport:
    """Comparison of a computed series against a reference b-file."""

    overlap_start: int
    overlap_end: int
    first_mismatch: int | None
    expected: int | None
    actual: int | None

    @property
    def matched(self) -> bool:
        return self.first_mismatch is None

    @property
    def overlap_length(self) -> int:
        return self.overlap_end - self.overlap_start + 1

    def summary(self) -> str:
        if self.matched:
            return (
                f"match over indices {self.overlap_start}..{self.overlap_end} "
                f"({self.overlap_length} terms)"
            )
        return (
            f"mismatch at index {self.first_mismatch}: "
            f"reference {self.expected}, computed {self.actual}"
        )


def oeis_diff(reference: BFile, terms, offset: int = 1) -> DiffReport:
    """Compare computed terms (term k has index offset+k) against a b-file.

    Reports the first disagreeing index, or confirms the full overlap.
    An empty overlap is an error, not a vacuous match.
    """
    terms = list(terms)
    lo = max(reference.offset, offset)
    hi = min(reference.last_index, offset + len(terms) - 1)
    if hi < lo:
        raise ValueError(
            f"empty overlap: reference covers {reference.offset}..{reference.last_index}, "
            f"computed covers {offset}..{offset + len(terms) - 1}"
        )
    ref_by_index = dict(reference.lines)
    for n in range(lo, hi + 1):
        expected = ref_by_index[n]
        actual = terms[n - offset]
        if expected != actual:
            return DiffReport(
                overlap_start=lo,
                overlap_end=hi,
                first_mismatch=n,
                expected=expected,
                actual=actual,
            )
    return DiffReport(
        overlap_start=lo, overlap_end=hi, first_mismatch=None, expected=None, actual=None
    )
