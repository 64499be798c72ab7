"""Command-line front end.

Exit codes: 0 success, 1 computation failure or failed verification,
2 usage error.  Output goes to stdout unless --out is given.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

import numpy as np

from . import analysis, bfile, exports, mobius, props, svg
from .poset import DivisibilityPoset, SequenceKind


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


def _emit(pieces, out) -> None:
    """Write an iterable of text pieces, in order, to the file out or to stdout."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)


def _jsonable(value):
    if isinstance(value, Fraction):
        return float(value)
    return value


# Rows per piece of the float writers: .tolist() and the per-row strings
# take ~100 bytes of Python objects per row, so a piece stays near 0.4 MB.
_PIECE_ROWS = 1 << 12


def _json_array(values: np.ndarray | range):
    """Numbers as json.dumps(..., indent=2) writes a list one level deep, in pieces.

    An integer array or a range is written by bfile.decimal_blocks; a
    float64 array by repr, which is what json writes for a finite float,
    over .tolist() (repr of an np.float64 is not its number).
    """
    if not len(values):
        yield "[]"
        return
    yield "[\n    "
    if isinstance(values, np.ndarray) and values.dtype.kind == "f":
        for lo in range(0, len(values), _PIECE_ROWS):
            rows = ",\n    ".join(map(repr, values[lo : lo + _PIECE_ROWS].tolist()))
            yield rows if lo == 0 else ",\n    " + rows
    else:
        yield from bfile.decimal_blocks([values], "", ",\n    ", joined=True)
    yield "\n  ]"


def _series_json(report: analysis.SeriesReport):
    """The series as json.dumps(..., indent=2) writes it, plus a newline, in pieces.

    One piece per field, and xs and ys a block at a time; the scalar
    fields still go through json.
    """
    n = len(report)
    scalars = {
        "slope_estimate": _jsonable(report.slope_estimate),
        "slope_lsq": report.slope_lsq,
        "final_value": _jsonable(report.final_value),
    }
    if isinstance(report.slope_estimate, Fraction):
        scalars["slope_estimate_exact"] = str(report.slope_estimate)
    if n >= 2:
        scalars["drift_last_half"] = abs(
            float(report.ys[-1]) - float(report.ys[n // 2 - 1])
        )
    yield '{\n  "name": ' + json.dumps(report.name) + ',\n  "xs": '
    yield from _json_array(range(1, n + 1))
    yield ',\n  "ys": '
    yield from _json_array(report.ys)
    for key, value in scalars.items():
        yield f',\n  "{key}": {json.dumps(value)}'
    yield "\n}\n"


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


def _records_json(table: analysis.MagnitudeRecordTable) -> list[str]:
    rows = [
        {"magnitude": r.magnitude, "first_geq": r.first_at_least, "first_eq": r.first_equal}
        for r in table.rows
    ]
    return [json.dumps({"signed": table.signed, "rows": rows}, indent=2) + "\n"]


# One table per output shape: --format -> writer of the value's text, as an
# iterable of pieces that _emit writes in order.  The writers look
# serializers up when called, so a wrapper installed on the module
# attribute (as the benchmark's tracer does) still sees each call.
_SERIES = {
    "bfile": lambda report: [bfile.format_bfile(report.ys)],
    "csv": _series_csv,
    "json": _series_json,
    "svg": lambda report: [svg.svg_line_chart(report)],
}
# Ratio series hold floats, which a b-file cannot.
_RATIO_SERIES = {fmt: write for fmt, write in _SERIES.items() if fmt != "bfile"}
# Integer terms arrive as their JSON payload, with the int64 or int8 array
# of the terms under "values"; JSON gets them as a list of Python ints.
_TERMS = {
    "bfile": lambda payload: [bfile.format_bfile(payload["values"])],
    "csv": lambda payload: _index_csv(payload["values"]),
    "json": lambda payload: [
        json.dumps({**payload, "values": payload["values"].tolist()}) + "\n"
    ],
}
_MATRIX = {
    "csv": lambda matrix: [exports.matrix_to_csv(matrix)],
    "json": lambda matrix: [json.dumps({"n": matrix.n, "rows": matrix.array.tolist()}) + "\n"],
}
_RECORDS = {"csv": _records_csv, "json": _records_json}


def _write(table: dict, default: str, value, args) -> None:
    """Write value in args.format, or in default, with the writer from table."""
    fmt = args.format or default
    if fmt not in table:
        raise UsageError(f"--format {fmt} does not apply here; use one of {', '.join(table)}")
    _emit(table[fmt](value), args.out)


def _mobius_vector(args) -> mobius.MobiusVector:
    poset = DivisibilityPoset(_kind(args), args.limit)
    return mobius.mobius_one_var(poset, args.limit)


def _matrix(args, which: str):
    """The zeta matrix of the chosen poset up to args.limit, or its inverse."""
    zeta = mobius.zeta_matrix(DivisibilityPoset(_kind(args), args.limit), args.limit)
    return zeta if which == "zeta" else mobius.invert_zeta(zeta)


def cmd_mobius(args) -> int:
    vec = _mobius_vector(args)
    _write(_TERMS, "bfile", {"kind": vec.kind.value, "values": vec.values[1:]}, args)
    return 0


def cmd_sums(args) -> int:
    _write(_SERIES, "bfile", analysis.mertens_tri(_mobius_vector(args)), args)
    return 0


def cmd_abs_sums(args) -> int:
    _write(_SERIES, "bfile", analysis.abs_sums(_mobius_vector(args)), args)
    return 0


def cmd_ratio_sums(args) -> int:
    vec = _mobius_vector(args)
    if args.denom == "index":
        report = analysis.ratio_sums_index(vec)
    else:
        report = analysis.ratio_sums_triangular(vec)
    _write(_RATIO_SERIES, "csv", report, args)
    return 0


def cmd_zeta_matrix(args) -> int:
    _write(_MATRIX, "csv", _matrix(args, "zeta"), args)
    return 0


def cmd_mobius_matrix(args) -> int:
    _write(_MATRIX, "csv", _matrix(args, "mobius"), args)
    return 0


def cmd_hasse(args) -> int:
    poset = DivisibilityPoset(_kind(args), args.limit)
    _emit([exports.hasse_to_dot(poset.hasse_edges(args.limit))], args.out)
    return 0


def cmd_heatmap(args) -> int:
    title = f"{args.matrix} matrix heatmap ({args.kind}, n={args.limit})"
    _emit([svg.svg_heatmap(_matrix(args, args.matrix), title)], args.out)
    return 0


def cmd_records(args) -> int:
    table = analysis.magnitude_records(_mobius_vector(args), signed=args.signed)
    _write(_RECORDS, "csv", table, args)
    return 0


def cmd_props(args) -> int:
    scan = props.scan_range(args.max_n)
    lines = []
    if scan.prop1_failures:
        lines.append(
            f"prop1 FAIL: T(n) | T(n(n+1)) broken at n={list(scan.prop1_failures[:5])}\n"
        )
    else:
        lines.append(f"prop1 OK: T(n) divides T(n(n+1)) for all n <= {scan.max_n}\n")
    if scan.prop2_pattern_breaks:
        lines.append(
            "prop2 FAIL: divisibility/mod-4 pattern broken at "
            f"n={list(scan.prop2_pattern_breaks[:5])}\n"
        )
    else:
        lines.append(
            f"prop2 OK: T(n) | T(T(n)) exactly when n = 1, 2 (mod 4), n <= {scan.max_n}\n"
        )
    _emit(lines, args.out)
    return 0 if scan.ok else 1


def cmd_classical(args) -> int:
    vec = analysis.classical_mobius(args.limit)
    if args.series == "mobius":
        _write(_TERMS, "bfile", {"values": vec.values[1:]}, args)
    else:
        _write(_SERIES, "bfile", analysis.classical_mertens(vec), args)
    return 0


def _verify_kind(kind: SequenceKind, n: int, failures: list[str]) -> mobius.MobiusVector:
    """Check the recursion against the dense inverse and the zero sums; return it."""
    poset = DivisibilityPoset(kind, n)
    vec = mobius.mobius_one_var(poset, n)
    zeta = mobius.zeta_matrix(poset, n)
    try:
        minv = mobius.invert_zeta(zeta)  # checks M.Z == I internally
    except ArithmeticError as exc:
        failures.append(f"{kind.value}: {exc}")
        return vec
    if not np.array_equal(minv.array[:, 0], vec.values[1:]):
        failures.append(f"{kind.value}: inversion and recursion disagree")
    table = poset.predecessor_table(n)
    for k in range(2, n + 1):
        if vec.value(k) + sum(vec.value(d) for d in table[k]) != 0:
            failures.append(f"{kind.value}: zero-sum broken at n={k}")
            break
    return vec


def cmd_verify(args) -> int:
    n = args.limit or 200
    failures: list[str] = []
    _verify_kind(SequenceKind.TRIANGULAR, n, failures)
    ident = _verify_kind(SequenceKind.IDENTITY, n, failures)
    if not np.array_equal(ident.values, analysis.classical_mobius(n).values):
        failures.append("identity kind disagrees with the classical sieve")
    if failures:
        for f in failures:
            sys.stdout.write(f"FAIL: {f}\n")
        return 1
    sys.stdout.write("OK\n")
    return 0


def cmd_oeis_diff(args) -> int:
    if args.bfile:
        reference = bfile.load_bfile(args.bfile)
    else:
        if _kind(args) is not SequenceKind.TRIANGULAR:
            raise UsageError("bundled snapshots cover the triangular kind only")
        name = "A350682" if args.series == "mobius" else "A351167"
        reference = bfile.bundled_snapshot(name)
    n = args.limit or reference.last_index
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
            p.add_argument(
                "--kind", choices=["triangular", "identity"], default="triangular"
            )
        if fmt:
            p.add_argument("--format", choices=list(fmt), default=None)
        if out:
            p.add_argument("--out", metavar="PATH", default=None)
        p.set_defaults(func=func)
        return p

    add("mobius", cmd_mobius, "one-variable Mobius values", limit="req", fmt=_TERMS)
    add("sums", cmd_sums, "partial sums of Mobius values", limit="req", fmt=_SERIES)
    add("abs-sums", cmd_abs_sums, "partial sums of |Mobius values|", limit="req",
        fmt=_SERIES)
    p = add("ratio-sums", cmd_ratio_sums, "partial sums of mu(n)/n or mu(n)/value(n)",
            limit="req", fmt=_RATIO_SERIES)
    p.add_argument("--denom", choices=["index", "value"], default="index")
    add("zeta-matrix", cmd_zeta_matrix, "0/1 incidence matrix", limit="req", fmt=_MATRIX)
    add("mobius-matrix", cmd_mobius_matrix, "exact inverse of the zeta matrix",
        limit="req", fmt=_MATRIX)
    add("hasse", cmd_hasse, "covering relations as a DOT digraph", limit="req")
    p = add("heatmap", cmd_heatmap, "SVG heatmap of a matrix", limit="req")
    p.add_argument("--matrix", choices=["zeta", "mobius"], default="mobius")
    p = add("records", cmd_records, "first index reaching each magnitude",
            limit="req", fmt=_RECORDS)
    p.add_argument("--signed", action="store_true",
                   help="record mu(n) >= M instead of |mu(n)| >= M")
    p = add("props", cmd_props, "verify the divisibility propositions",
            limit=False, kind=False)
    p.add_argument("--max-n", type=positive_int, default=10_000)
    p = add("classical", cmd_classical, "classical Mobius baseline", limit="req",
            kind=False, fmt=_SERIES)
    p.add_argument("--series", choices=["mobius", "mertens"], default="mobius")
    add("verify", cmd_verify, "internal consistency checks (default n=200)",
        out=False)
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
    except (
        ValueError, IndexError, OverflowError, ArithmeticError, OSError, MemoryError
    ) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
