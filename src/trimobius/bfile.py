"""OEIS b-file reading, writing, and comparison.

A b-file is the OEIS flat format: one "index value" pair per line, ASCII
decimal, indices contiguous and ascending.  Snapshots of the two submitted
sequences ship with the package so comparisons work offline; fuller
b-files downloaded from oeis.org can be passed in by path.

decimal_blocks is the one writer of integer arrays as text: the b-file here
(through decimal_rows) and the CLI's series CSV and JSON arrays all use it.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass
from pathlib import Path

import numpy as np

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


# Rows per block of decimal_blocks: its temporaries hold a few bytes per
# character of one block, whatever the length of the whole text.
_BLOCK_ROWS = 1 << 16


def _magnitudes(block):
    """(uint64 |v|, v < 0) of a block of an integer column or of a range."""
    if isinstance(block, range):
        block = np.arange(block.start, block.stop, dtype=np.int64)
    neg = block < 0
    mag = block.astype(np.uint64)
    np.negative(mag, out=mag, where=neg)  # two's complement: |v| of every int64
    return mag, neg


def _put_digits(mag, cells, kept) -> None:
    """The decimal digits of mag, right-aligned in cells; kept drops leading zeros.

    cells and kept have one row per digit position; mag is used up.
    """
    quot, rem = np.empty_like(mag), np.empty_like(mag)
    for j in range(len(cells) - 1, -1, -1):
        if j < len(cells) - 1:
            np.greater(mag, 0, out=kept[j])
        np.floor_divide(mag, 10, out=quot)
        np.multiply(quot, 10, out=rem)
        np.subtract(mag, rem, out=rem)
        np.add(rem, ord("0"), out=cells[j], casting="unsafe")
        mag, quot = quot, mag


def _block_text(columns, sep: str, end: str) -> np.ndarray:
    """ASCII bytes of one block of rows, given each column's _magnitudes.

    Each row is laid out in fixed-width cells (per column a sign cell and
    as many digit cells as its widest value needs, then sep or end); the
    cells that are text are then taken in row-major order.
    """
    widths = [len(str(int(mag.max()))) for mag, _ in columns]
    literals = [sep] * (len(columns) - 1) + [end]
    width = sum(widths) + len(columns) + sum(map(len, literals))
    chars = np.empty((len(columns[0][0]), width), dtype=np.uint8)
    keep = np.ones(chars.shape, dtype=bool)
    cells, kept = chars.T, keep.T  # one row per cell position
    at = 0
    for (mag, neg), digits, literal in zip(columns, widths, literals):
        cells[at] = ord("-")
        kept[at] = neg
        _put_digits(mag, cells[at + 1 : at + 1 + digits], kept[at + 1 : at + 1 + digits])
        at += 1 + digits
        cells[at : at + len(literal)] = np.frombuffer(literal.encode("ascii"), np.uint8)[:, None]
        at += len(literal)
    return chars[keep]


def decimal_blocks(columns, sep: str, end: str, joined: bool = False):
    """Integer columns as ASCII text, one str per _BLOCK_ROWS rows.

    Per row, the decimals joined by sep, then end.  Each column is a 1-D
    integer ndarray or a range, all of one length.  With joined=True, end
    goes between the rows and not after the last.  The digits are computed
    with numpy on uint64 magnitudes, so every int64 value, -2**63
    included, is exact.
    """
    n = len(columns[0])
    for lo in range(0, n, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, n)
        text = _block_text([_magnitudes(col[lo:hi]) for col in columns], sep, end)
        if joined and hi == n:
            text = text[: len(text) - len(end)]
        yield str(text, "ascii")


def decimal_rows(columns, sep: str, end: str, joined: bool = False) -> str:
    """The text of decimal_blocks as one str."""
    return "".join(decimal_blocks(columns, sep, end, joined))


def format_bfile(terms, offset: int = 1) -> str:
    """Render terms as b-file text: "n value\\n" per line, nothing else.

    An integer ndarray is written by decimal_rows.  Any other iterable must
    hold Python ints, the only values that may exceed 64 bits.
    """
    is_array = isinstance(terms, np.ndarray)
    if not is_array:
        terms = list(terms)
    if not len(terms):
        raise ValueError("refusing to format an empty series")
    if is_array:
        if terms.ndim != 1 or terms.dtype.kind not in "iu":
            raise TypeError(
                f"b-file values must be exact integers, got a {terms.dtype} array"
            )
        return decimal_rows([range(offset, offset + len(terms)), terms], " ", "\n")
    types = set(map(type, terms))
    if bool in types or not all(issubclass(tp, int) for tp in types):
        bad = next(t for t in terms if isinstance(t, bool) or not isinstance(t, int))
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
    An empty overlap is an error, not a vacuous match.  An ndarray of terms
    is compared as Python ints.
    """
    terms = terms.tolist() if isinstance(terms, np.ndarray) else list(terms)
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
