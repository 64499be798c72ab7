"""OEIS b-file reading, writing, and comparison.

A b-file is the OEIS flat format: one "index value" pair per line, ASCII
decimal, indices contiguous and ascending.  Snapshots of the two submitted
sequences ship with the package so comparisons work offline; fuller
b-files downloaded from oeis.org can be passed in by path.

decimal_blocks is the one writer of integer arrays as text: the b-file here,
the DOT and matrix CSV of exports, and the CLI's series CSV and JSON arrays
all use it.  Its kernel also writes the "{:.2f}" coordinates of svg, through
fixed_text.
"""

from __future__ import annotations

import importlib.resources
import re
from dataclasses import dataclass
from pathlib import Path

from ._numpy import np
from .poset import magnitude

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
_BLOCK_ROWS = 1 << 14


def _magnitudes(block):
    """(uint64 |v|, v < 0) of a block of an integer column."""
    neg = block < 0
    mag = block.astype(np.uint64)
    np.negative(mag, out=mag, where=neg)  # two's complement: |v| of every int64
    return mag, neg


def _put_digits(mag, cells, kept, always: int = 1) -> None:
    """The decimal digits of mag, right-aligned in cells; kept drops leading zeros.

    cells and kept have one row per digit position; the last always
    positions are kept even when zero.  mag is used up.
    """
    quot, rem = np.empty_like(mag), np.empty_like(mag)
    for j in range(len(cells) - 1, -1, -1):
        if j < len(cells) - always:
            np.greater(mag, 0, out=kept[j])
        np.floor_divide(mag, 10, out=quot)
        np.multiply(quot, 10, out=rem)
        np.subtract(mag, rem, out=rem)
        np.add(rem, ord("0"), out=cells[j], casting="unsafe")
        mag, quot = quot, mag


def _block_text(columns, sep: str, end: str, frac: int = 0) -> np.ndarray:
    """ASCII bytes of one block of rows, given each column's slice as an array.

    Each row is laid out in fixed-width cells (per column a sign cell and
    as many digit cells as its widest value needs, then sep or end); the
    cells that are text are then taken in row-major order.  With frac > 0
    each column holds its values times 10**frac, written with a point and
    frac digits after it.  columns is used up: each column is dropped once
    its magnitudes are made, so a block holds those of one column at a time.
    """
    unit = 10**frac
    widths = [len(str(magnitude(col) // unit)) for col in columns]
    literals = [sep] * (len(columns) - 1) + [end]
    point = frac + 1 if frac else 0  # the point and the fraction digits
    width = sum(widths) + len(columns) * (1 + point) + sum(map(len, literals))
    chars = np.empty((len(columns[0]), width), dtype=np.uint8)
    keep = np.ones(chars.shape, dtype=bool)
    cells, kept = chars.T, keep.T  # one row per cell position
    at = 0
    for digits, literal in zip(widths, literals):
        mag, neg = _magnitudes(columns.pop(0))
        cells[at] = ord("-")
        kept[at] = neg
        dot = at + 1 + digits
        _put_digits(mag, cells[at + 1 : dot + frac], kept[at + 1 : dot + frac], frac + 1)
        if frac:  # the fraction digits one cell right, after the point
            cells[dot + 1 : dot + 1 + frac] = cells[dot : dot + frac]
            cells[dot] = ord(".")
        at = dot + point
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
        blocks = [col[lo:hi] for col in columns]
        blocks = [np.arange(b.start, b.stop) if isinstance(b, range) else b for b in blocks]
        text = _block_text(blocks, sep, end)
        if joined and hi == n:
            text = text[: len(text) - len(end)]
        yield str(text, "ascii")


# fixed_text writes the digits of v * 100 rounded by np.rint when v * 100 is
# below _FIXED_LIMIT in magnitude, where its rounding error is at most
# 2**-23, and farther than _TIE_MARGIN from a tie, so that it rounds as the
# exact v * 100 does.
_FIXED_LIMIT = 2.0**31
_TIE_MARGIN = 2.0**-20


def fixed_text(columns, sep: str, end: str) -> str:
    """Rows of float64 columns as text, each value as format(v, ".2f").

    Per row, the values joined by sep, then end.  The digits come from
    _block_text.  A row holding a value it cannot decide (not finite, too
    large, near a tie, or negative but rounding to zero, which Python
    writes as "-0.00") is written by Python's format instead; an exact tie
    such as 0.125 is one of these.
    """
    n = len(columns[0])
    slow = np.zeros(n, dtype=bool)
    scaled = []
    with np.errstate(invalid="ignore"):  # inf - inf in a row that goes to Python
        for col in columns:
            s = col * 100.0
            r = np.rint(s)
            slow |= ~(np.abs(s) < _FIXED_LIMIT) | (np.abs(s - r) > 0.5 - _TIE_MARGIN)
            slow |= (r == 0) & np.signbit(col)
            scaled.append(r)
    ints = [np.where(slow, 0, r).astype(np.int64) for r in scaled]
    pieces, lo = [], 0
    for i in [*np.flatnonzero(slow).tolist(), n]:
        if lo < i:
            pieces.append(str(_block_text([c[lo:i] for c in ints], sep, end, 2), "ascii"))
        if i < n:
            pieces.append(sep.join(format(float(c[i]), ".2f") for c in columns) + end)
        lo = i + 1
    return "".join(pieces)


def bfile_pieces(terms, offset: int = 1):
    """The b-file text of terms, "n value\\n" per line, as an iterable of pieces.

    An integer ndarray is written by decimal_blocks, a block of lines per
    piece.  Any other iterable must hold Python ints, the only values that
    may exceed 64 bits.  The terms are checked here, before any piece is made.
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
        return decimal_blocks([range(offset, offset + len(terms)), terms], " ", "\n")
    types = set(map(type, terms))
    if bool in types or not all(issubclass(tp, int) for tp in types):
        bad = next(t for t in terms if isinstance(t, bool) or not isinstance(t, int))
        raise TypeError(f"b-file values must be exact integers, got {bad!r}")
    return map("{} {}\n".format, range(offset, offset + len(terms)), terms)


def format_bfile(terms, offset: int = 1) -> str:
    """The text of bfile_pieces as one str."""
    return "".join(bfile_pieces(terms, offset))


# A b-file field: an optional minus sign and ASCII digits, nothing else that
# int() would take (no '+', '_' or non-ASCII digits).
_BFILE_INT = re.compile(r"-?[0-9]+")


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
        if not all(map(_BFILE_INT.fullmatch, fields)):
            raise ValueError(f"line {lineno}: non-integer field in {raw!r}")
        try:
            n, value = int(fields[0]), int(fields[1])
        except ValueError:  # a field past the interpreter's limit on digits
            raise ValueError(f"line {lineno}: a field is too long to convert") from None
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


def oeis_diff(reference: BFile, terms) -> DiffReport:
    """Compare computed terms (term k, counting from 0, has index k + 1) against a b-file.

    Reports the first disagreeing index, or confirms the full overlap; an
    empty overlap is an error, not a vacuous match.  terms is a list of ints
    or an integer ndarray, of which only the overlap goes to Python ints.
    """
    lo, hi = max(reference.offset, 1), min(reference.last_index, len(terms))
    if hi < lo:
        raise ValueError(
            f"empty overlap: reference covers {reference.offset}..{reference.last_index}, "
            f"computed covers 1..{len(terms)}"
        )
    computed = terms[lo - 1 : hi]
    computed = computed.tolist() if isinstance(computed, np.ndarray) else computed
    published = reference.terms()[lo - reference.offset : hi - reference.offset + 1]
    for n, expected, actual in zip(range(lo, hi + 1), published, computed):
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
