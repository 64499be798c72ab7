"""Command-line front end.

Exit codes: 0 success, 1 computation failure or failed verification,
2 usage error.  Output goes to stdout unless --out is given.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

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


def _emit(text: str, out) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _decimal(value) -> str:
    if isinstance(value, int):
        return str(value)
    return f"{float(value):.12g}"


def _jsonable(value):
    if isinstance(value, Fraction):
        return float(value)
    return value


def _json_array(values) -> str:
    """Numbers as json.dumps(..., indent=2) writes a list one level deep.

    repr is what json writes for an int and for a finite float.  A Fraction
    is written as a float, as _jsonable does; a list of only Fractions and
    floats (a ratio series) converts with map(float), which makes no
    Python-level call per value.
    """
    types = set(map(type, values))
    if types <= {Fraction, float}:
        values = map(float, values)
    elif not types <= {int, float}:
        values = map(_jsonable, values)
    body = ",\n    ".join(map(repr, values))
    return "[\n    " + body + "\n  ]" if body else "[]"


def _series_json(report: analysis.SeriesReport) -> str:
    """The series as json.dumps(..., indent=2) writes it, with xs and ys in bulk.

    The scalar fields still go through json.
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
    fields = [
        ("name", json.dumps(report.name)),
        ("xs", _json_array(range(1, n + 1))),
        ("ys", _json_array(report.ys)),
        *((key, json.dumps(value)) for key, value in scalars.items()),
    ]
    return "{\n" + ",\n".join(f'  "{key}": {text}' for key, text in fields) + "\n}"


def _emit_series(report: analysis.SeriesReport, args, integer_values: bool) -> None:
    fmt = args.format or ("bfile" if integer_values else "csv")
    if fmt == "bfile":
        if not integer_values:
            raise UsageError("b-file output needs integer values; use csv or json")
        _emit(bfile.format_bfile(report.ys), args.out)
    elif fmt == "csv":
        lines = "".join(f"{x},{_decimal(y)}\n" for x, y in enumerate(report.ys, 1))
        _emit(lines, args.out)
    elif fmt == "json":
        _emit(_series_json(report) + "\n", args.out)
    elif fmt == "svg":
        _emit(svg.svg_line_chart(report), args.out)
    else:
        raise UsageError(f"unsupported format {fmt!r}")


def _emit_matrix(matrix, args) -> None:
    fmt = args.format or "csv"
    if fmt == "csv":
        _emit(exports.matrix_to_csv(matrix), args.out)
    elif fmt == "json":
        _emit(
            json.dumps({"n": matrix.n, "rows": [list(r) for r in matrix.rows]}) + "\n",
            args.out,
        )
    else:
        raise UsageError(f"matrix output supports csv or json, not {fmt!r}")


def _mobius_vector(args) -> mobius.MobiusVector:
    poset = DivisibilityPoset(_kind(args), args.limit)
    return mobius.mobius_one_var(poset, args.limit)


def _emit_terms(terms: list[int], args, payload: dict) -> None:
    """Write integer terms as a b-file, index,value csv, or JSON.

    The JSON output is payload with the terms added under "values".
    """
    fmt = args.format or "bfile"
    if fmt == "bfile":
        _emit(bfile.format_bfile(terms), args.out)
    elif fmt == "csv":
        _emit("".join(f"{n},{v}\n" for n, v in enumerate(terms, 1)), args.out)
    elif fmt == "json":
        _emit(json.dumps({**payload, "values": terms}) + "\n", args.out)
    else:
        raise UsageError(f"unsupported format {fmt!r}")


def cmd_mobius(args) -> int:
    vec = _mobius_vector(args)
    _emit_terms(vec.terms(), args, {"kind": vec.kind.value})
    return 0


def cmd_sums(args) -> int:
    _emit_series(analysis.mertens_tri(_mobius_vector(args)), args, integer_values=True)
    return 0


def cmd_abs_sums(args) -> int:
    _emit_series(analysis.abs_sums(_mobius_vector(args)), args, integer_values=True)
    return 0


def cmd_ratio_sums(args) -> int:
    vec = _mobius_vector(args)
    if args.denom == "index":
        report = analysis.ratio_sums_index(vec)
    else:
        report = analysis.ratio_sums_triangular(vec)
    _emit_series(report, args, integer_values=False)
    return 0


def cmd_zeta_matrix(args) -> int:
    poset = DivisibilityPoset(_kind(args), args.limit)
    _emit_matrix(mobius.zeta_matrix(poset, args.limit), args)
    return 0


def cmd_mobius_matrix(args) -> int:
    poset = DivisibilityPoset(_kind(args), args.limit)
    zeta = mobius.zeta_matrix(poset, args.limit)
    _emit_matrix(mobius.invert_zeta(zeta), args)
    return 0


def cmd_hasse(args) -> int:
    poset = DivisibilityPoset(_kind(args), args.limit)
    _emit(exports.hasse_to_dot(poset.hasse_edges(args.limit)), args.out)
    return 0


def cmd_heatmap(args) -> int:
    spec = svg.HeatmapSpec(matrix=args.matrix, kind=_kind(args), n=args.limit)
    _emit(svg.svg_heatmap(spec), args.out)
    return 0


def cmd_records(args) -> int:
    table = analysis.magnitude_records(_mobius_vector(args), signed=args.signed)
    fmt = args.format or "csv"
    if fmt == "csv":
        lines = ["magnitude,first_geq,first_eq\n"]
        for row in table.rows:
            eq = "" if row.first_equal is None else str(row.first_equal)
            lines.append(f"{row.magnitude},{row.first_at_least},{eq}\n")
        _emit("".join(lines), args.out)
    elif fmt == "json":
        payload = {
            "signed": table.signed,
            "rows": [
                {
                    "magnitude": r.magnitude,
                    "first_geq": r.first_at_least,
                    "first_eq": r.first_equal,
                }
                for r in table.rows
            ],
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        raise UsageError(f"records output supports csv or json, not {fmt!r}")
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
    _emit("".join(lines), args.out)
    return 0 if scan.ok else 1


def cmd_classical(args) -> int:
    sieve = analysis.classical_mobius(args.limit)
    if args.series == "mobius":
        _emit_terms(sieve.terms(), args, {})
    else:
        _emit_series(analysis.classical_mertens(sieve), args, integer_values=True)
    return 0


def _verify_kind(kind: SequenceKind, n: int, failures: list[str]) -> None:
    poset = DivisibilityPoset(kind, n)
    vec = mobius.mobius_one_var(poset, n)
    zeta = mobius.zeta_matrix(poset, n)
    try:
        minv = mobius.invert_zeta(zeta)  # checks M.Z == I internally
    except ArithmeticError as exc:
        failures.append(f"{kind.value}: {exc}")
        return
    if minv.first_column() != vec.terms():
        failures.append(f"{kind.value}: inversion and recursion disagree")
    table = poset.predecessor_table(n)
    for k in range(2, n + 1):
        if vec.value(k) + sum(vec.value(d) for d in table[k]) != 0:
            failures.append(f"{kind.value}: zero-sum broken at n={k}")
            break


def cmd_verify(args) -> int:
    n = args.limit or 200
    failures: list[str] = []
    for kind in (SequenceKind.TRIANGULAR, SequenceKind.IDENTITY):
        _verify_kind(kind, n, failures)
    ident = DivisibilityPoset(SequenceKind.IDENTITY, n)
    vec = mobius.mobius_one_var(ident, n)
    if vec.terms() != analysis.classical_mobius(n).terms():
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
        terms = vec.terms()
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
            p.add_argument("--format", choices=fmt, default=None)
        if out:
            p.add_argument("--out", metavar="PATH", default=None)
        p.set_defaults(func=func)
        return p

    series_fmt = ["bfile", "csv", "json", "svg"]
    add("mobius", cmd_mobius, "one-variable Mobius values", limit="req",
        fmt=["bfile", "csv", "json"])
    add("sums", cmd_sums, "partial sums of Mobius values", limit="req", fmt=series_fmt)
    add("abs-sums", cmd_abs_sums, "partial sums of |Mobius values|", limit="req",
        fmt=series_fmt)
    p = add("ratio-sums", cmd_ratio_sums, "partial sums of mu(n)/n or mu(n)/value(n)",
            limit="req", fmt=["csv", "json", "svg"])
    p.add_argument("--denom", choices=["index", "value"], default="index")
    add("zeta-matrix", cmd_zeta_matrix, "0/1 incidence matrix", limit="req",
        fmt=["csv", "json"])
    add("mobius-matrix", cmd_mobius_matrix, "exact inverse of the zeta matrix",
        limit="req", fmt=["csv", "json"])
    add("hasse", cmd_hasse, "covering relations as a DOT digraph", limit="req")
    p = add("heatmap", cmd_heatmap, "SVG heatmap of a matrix", limit="req")
    p.add_argument("--matrix", choices=["zeta", "mobius"], default="mobius")
    p = add("records", cmd_records, "first index reaching each magnitude",
            limit="req", fmt=["csv", "json"])
    p.add_argument("--signed", action="store_true",
                   help="record mu(n) >= M instead of |mu(n)| >= M")
    p = add("props", cmd_props, "verify the divisibility propositions",
            limit=False, kind=False)
    p.add_argument("--max-n", type=positive_int, default=10_000)
    p = add("classical", cmd_classical, "classical Mobius baseline", limit="req",
            kind=False, fmt=["bfile", "csv", "json", "svg"])
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
