"""Command-line front end.

Exit codes: 0 success, 1 computation failure or failed verification,
2 usage error.  Output goes to stdout unless --out is given.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from fractions import Fraction

import numpy as np

from . import analysis, bfile, exports, mobius, props, svg
from .poset import DivisibilityPoset, SequenceKind, int_type, magnitude, sequence_values


class UsageError(Exception):
    """Bad flag combination detected after argparse."""


def positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _kind(args) -> SequenceKind:
    return SequenceKind(args.kind)


def _output(out):
    """The file out opened for writing, or stdout, to enter before anything is computed."""
    return open(out, "w", encoding="utf-8") if out else contextlib.nullcontext(sys.stdout)


# Rows per piece of the float writers: .tolist() and the per-row strings
# take ~100 bytes of Python objects per row, so a piece stays near 0.4 MB.
_PIECE_ROWS = 1 << 12


def _json_pieces(payload, indent=None):
    """The payload as json.dumps(payload, indent=indent) writes it, plus a newline, in pieces.

    json lays out the payload with each ndarray or range in it swapped for
    a marker, and each array is written at its marker a block at a time,
    with json's separators: integers by bfile.decimal_blocks, a 2-D array
    (indent None only) as its list of rows, and float64 by repr, which is
    what json writes for a finite float, over .tolist() (repr of an
    np.float64 is not its number).
    """
    # Longer than the payload's text with its arrays as null: it equals no
    # string there, so its token "\u0000..." can start nowhere else.
    mark = "\0" * len(json.dumps(payload, default=lambda value: None))
    arrays = []
    text = json.dumps(payload, indent=indent, default=lambda value: arrays.append(value) or mark)
    parts = (text + "\n").split(json.dumps(mark))
    yield parts[0]
    for values, before, after in zip(arrays, parts, parts[1:]):
        line = before[before.rfind("\n") + 1 :]
        close = "" if indent is None else "\n" + line[: len(line) - len(line.lstrip(" "))]
        open_ = "" if indent is None else close + " " * indent
        sep, columns = "," + (open_ or " "), [values]
        if getattr(values, "ndim", 1) == 2:
            open_, close, sep, columns = "[", "]", "], [", list(values.T)
        if not len(values):
            yield "[]" + after
            continue
        yield "[" + open_
        if isinstance(values, np.ndarray) and values.dtype.kind == "f":
            for lo in range(0, len(values), _PIECE_ROWS):
                rows = sep.join(map(repr, values[lo : lo + _PIECE_ROWS].tolist()))
                yield rows if lo == 0 else sep + rows
        else:
            yield from bfile.decimal_blocks(columns, ", ", sep, joined=True)
        yield close + "]" + after


def _series_payload(report: analysis.SeriesReport) -> dict:
    """The series as its JSON payload: xs as a range, a Fraction as its float."""
    n, slope, final = len(report), report.slope_estimate, report.final_value
    payload = {
        "name": report.name,
        "xs": range(1, n + 1),
        "ys": report.ys,
        "slope_estimate": float(slope) if isinstance(slope, Fraction) else slope,
        "slope_lsq": report.slope_lsq,
        "final_value": float(final) if isinstance(final, Fraction) else final,
    }
    if isinstance(slope, Fraction):
        payload["slope_estimate_exact"] = str(slope)
    if n >= 2:
        payload["drift_last_half"] = abs(float(report.ys[-1]) - float(report.ys[n // 2 - 1]))
    return payload


def _index_csv(values: np.ndarray):
    """"n,value" rows of an integer array, n counting from 1, in pieces."""
    return bfile.decimal_blocks([range(1, len(values) + 1), values], ",", "\n")


def _series_csv(report: analysis.SeriesReport):
    if report.ys.dtype.kind != "f":
        return _index_csv(report.ys)
    return (
        "".join(map("{},{:.12g}\n".format, range(lo + 1, lo + _PIECE_ROWS + 1),
                    report.ys[lo : lo + _PIECE_ROWS].tolist()))
        for lo in range(0, len(report), _PIECE_ROWS)
    )


def _records_csv(table: analysis.MagnitudeRecordTable) -> list[str]:
    lines = ["magnitude,first_geq,first_eq\n"]
    for row in table.rows:
        eq = "" if row.first_equal is None else str(row.first_equal)
        lines.append(f"{row.magnitude},{row.first_at_least},{eq}\n")
    return lines


# One table per output shape: --format -> writer of the value's text, as an
# iterable of pieces that _write writes in order.
_SERIES = {
    "bfile": lambda report: bfile.bfile_pieces(report.ys),
    "csv": _series_csv,
    "json": lambda report: _json_pieces(_series_payload(report), indent=2),
    "svg": svg.line_chart_pieces,
}
# Ratio series hold floats, which a b-file cannot.
_RATIO_SERIES = {fmt: write for fmt, write in _SERIES.items() if fmt != "bfile"}
# Integer terms arrive as their JSON payload, with the integer array of the
# terms (the narrowest type holding them) under "values".
_TERMS = {
    "bfile": lambda payload: bfile.bfile_pieces(payload["values"]),
    "csv": lambda payload: _index_csv(payload["values"]),
    "json": _json_pieces,
}
_MATRIX = {
    "csv": lambda matrix: [exports.matrix_to_csv(matrix)],
    "json": lambda matrix: _json_pieces({"n": matrix.n, "rows": matrix.array}),
}
_RECORDS = {
    "csv": _records_csv,
    "json": lambda table: _json_pieces({"signed": table.signed, "rows": [
        {"magnitude": r.magnitude, "first_geq": r.first_at_least, "first_eq": r.first_equal}
        for r in table.rows]}, indent=2),
}


def _write(table: dict, default: str, value, args) -> int:
    """Write value(args) in args.format, or in default, with the writer from table.

    The format is checked, and --out opened, before value(args) runs:
    UsageError unless table has a writer for the format.
    """
    fmt = getattr(args, "format", None) or default
    if fmt not in table:
        raise UsageError(f"--format {fmt} does not apply here; use one of {', '.join(table)}")
    with _output(args.out) as fh:
        fh.writelines(table[fmt](value(args)))
    return 0


def _mu(args) -> mobius.MobiusVector:
    return mobius.mobius_one_var(DivisibilityPoset(_kind(args), args.limit), args.limit)


def _matrix(args, which: str):
    """The zeta matrix of the chosen poset up to args.limit, or its inverse."""
    zeta = mobius.zeta_matrix(DivisibilityPoset(_kind(args), args.limit), args.limit)
    return zeta if which == "zeta" else mobius.invert_zeta(zeta)


# The subcommands that compute one value and write it, in parser order: name
# -> (help, the value of the parsed args, writer table, default format).  A
# table of more than one writer gives the subcommand --format.  The values
# look the library functions up when they run, so that a wrapped or patched
# one is the one called.
_WRITTEN = {
    "mobius": ("one-variable Mobius values",
               lambda a: {"kind": a.kind, "values": _mu(a).values[1:]}, _TERMS, "bfile"),
    "sums": ("partial sums of Mobius values",
             lambda a: analysis.mertens_tri(_mu(a)), _SERIES, "bfile"),
    "abs-sums": ("partial sums of |Mobius values|",
                 lambda a: analysis.abs_sums(_mu(a)), _SERIES, "bfile"),
    "ratio-sums": ("partial sums of mu(n)/n or mu(n)/value(n)",
                   lambda a: (analysis.ratio_sums_index if a.denom == "index"
                              else analysis.ratio_sums_triangular)(_mu(a)), _RATIO_SERIES, "csv"),
    "zeta-matrix": ("0/1 incidence matrix", lambda a: _matrix(a, "zeta"), _MATRIX, "csv"),
    "mobius-matrix": ("exact inverse of the zeta matrix",
                      lambda a: _matrix(a, "mobius"), _MATRIX, "csv"),
    "hasse": ("covering relations as a DOT digraph",
              lambda a: DivisibilityPoset(_kind(a), a.limit).hasse_edges(a.limit),
              {"dot": exports.dot_pieces}, "dot"),
    "heatmap": ("SVG heatmap of a matrix",
                lambda a: (_matrix(a, a.matrix),
                           f"{a.matrix} matrix heatmap ({a.kind}, n={a.limit})"),
                {"svg": lambda pair: [svg.svg_heatmap(*pair)]}, "svg"),
    "records": ("first index reaching each magnitude",
                lambda a: analysis.magnitude_records(_mu(a), signed=a.signed),
                _RECORDS, "csv"),
}


def cmd_props(args) -> int:
    with _output(args.out) as fh:
        scan = props.scan_range(args.max_n)
        if scan.prop1_failures:
            fh.write(f"prop1 FAIL: T(n) | T(n(n+1)) broken at n={list(scan.prop1_failures[:5])}\n")
        else:
            fh.write(f"prop1 OK: T(n) divides T(n(n+1)) for all n <= {scan.max_n}\n")
        if scan.prop2_pattern_breaks:
            fh.write("prop2 FAIL: divisibility/mod-4 pattern broken at "
                     f"n={list(scan.prop2_pattern_breaks[:5])}\n")
        else:
            fh.write(f"prop2 OK: T(n) | T(T(n)) exactly when n = 1, 2 (mod 4), n <= {scan.max_n}\n")
    return 0 if scan.ok else 1


def cmd_classical(args) -> int:
    if args.series == "mobius":
        return _write(_TERMS, "bfile",
                      lambda a: {"values": analysis.classical_mobius(a.limit).values[1:]}, args)
    return _write(_SERIES, "bfile",
                  lambda a: analysis.classical_mertens(analysis.classical_mobius(a.limit)), args)


# Rows of the relation per block of verify: a block's uint64 remainders
# take 0.5 MB at n = DENSE_CAP, not n x n of them.
_VERIFY_ROWS = 64


def _verify_kind(kind: SequenceKind, n: int, failures: list[str]) -> mobius.MobiusVector:
    """Check the table, and mu by R.mu = e_1, against the order R on 1..n; return mu.

    R is built and used _VERIFY_ROWS rows at a time.
    """
    poset = DivisibilityPoset(kind, n)
    # zeta_matrix refuses n > DENSE_CAP before any table is built
    zeta = mobius.zeta_matrix(poset, n).array
    values = sequence_values(kind, np.arange(1, n + 1, dtype=np.uint64))
    vec = mobius.mobius_one_var(poset, n)
    bound = magnitude(vec.values) * n  # each of the n terms of a row sum is at most max |mu|
    try:
        mu = vec.values[1:].astype(int_type(bound))  # so no product or row sum wraps
    except OverflowError:
        mu = None
    differs = np.zeros(n, dtype=bool)
    sums = np.zeros(n, dtype=np.int64)
    for lo in range(0, n, _VERIFY_ROWS):
        block = slice(lo, lo + _VERIFY_ROWS)
        # R[i-1, j-1] = 1 iff the j-th sequence value divides the i-th
        relation = values[block, None] % values == 0
        differs[block] = (zeta[block] != relation).any(1)
        if mu is not None:
            sums[block] = relation @ mu
    if differs.any():
        failures.append(f"{kind.value}: predecessor row {differs.argmax() + 1} differs")
    if mu is None:
        failures.append(f"{kind.value}: zero sums may reach {bound}, beyond int64")
        return vec
    sums[0] -= 1
    broken = np.flatnonzero(sums)
    if len(broken):
        failures.append(f"{kind.value}: zero-sum broken at n={broken[0] + 1}")
    return vec


def cmd_verify(args) -> int:
    n = args.limit or 200
    failures: list[str] = []
    _verify_kind(SequenceKind.TRIANGULAR, n, failures)
    ident = _verify_kind(SequenceKind.IDENTITY, n, failures)
    if not np.array_equal(ident.values, analysis.classical_mobius(n).values):
        failures.append("identity kind disagrees with the classical sieve")
    sys.stdout.writelines([f"FAIL: {f}\n" for f in failures] or ["OK\n"])
    return 1 if failures else 0


def cmd_oeis_diff(args) -> int:
    if args.bfile:
        reference = bfile.load_bfile(args.bfile)
    else:
        if _kind(args) is not SequenceKind.TRIANGULAR:
            raise UsageError("bundled snapshots cover the triangular kind only")
        name = "A350682" if args.series == "mobius" else "A351167"
        reference = bfile.bundled_snapshot(name)
    # n >= 1 even for a b-file ending at index 0, whose overlap oeis_diff rejects
    n = args.limit or max(reference.last_index, 1)
    vec = mobius.mobius_one_var(DivisibilityPoset(_kind(args), n), n)
    if args.series == "mobius":
        terms = vec.values[1:]
    else:
        terms = analysis.mertens_tri(vec).ys
    report = bfile.oeis_diff(reference, terms)
    sys.stdout.write(report.summary() + "\n")
    return 0 if report.matched else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trimobius",
        description="Exact Mobius values of triangular-number divisibility posets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_, *, limit=True, kind=True, fmt=None, out=True):
        p = sub.add_parser(name, help=help_)
        if limit:
            p.add_argument("-n", "--limit", type=positive_int, required=(limit == "req"))
        if kind:
            p.add_argument("--kind", choices=[k.value for k in SequenceKind],
                           default=SequenceKind.TRIANGULAR.value)
        if fmt:
            p.add_argument("--format", choices=list(fmt), default=None)
        if out:
            p.add_argument("--out", metavar="PATH", default=None)
        p.set_defaults(func=func)
        return p

    for name, (help_, value, table, default) in _WRITTEN.items():
        add(name, functools.partial(_write, table, default, value), help_, limit="req",
            fmt=table if len(table) > 1 else None)
    sub.choices["ratio-sums"].add_argument("--denom", choices=["index", "value"],
                                           default="index")
    sub.choices["heatmap"].add_argument("--matrix", choices=["zeta", "mobius"],
                                        default="mobius")
    sub.choices["records"].add_argument("--signed", action="store_true",
                                        help="record mu(n) >= M instead of |mu(n)| >= M")
    p = add("props", cmd_props, "verify the divisibility propositions",
            limit=False, kind=False)
    p.add_argument("--max-n", type=positive_int, default=10_000)
    p = add("classical", cmd_classical, "classical Mobius baseline", limit="req",
            kind=False, fmt=_SERIES)
    p.add_argument("--series", choices=["mobius", "mertens"], default="mobius")
    add("verify", cmd_verify, "internal consistency checks (default n=200)",
        kind=False, out=False)
    p = add("oeis-diff", cmd_oeis_diff, "compare against an OEIS b-file", out=False)
    p.add_argument("--series", choices=["mobius", "sums"], default="mobius")
    p.add_argument("--bfile", metavar="PATH", default=None,
                   help="reference b-file (default: bundled snapshot)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, IndexError, ArithmeticError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
