"""Run one trimobius CLI command with a span around each layer's public functions.

    PYTHONPATH=src python3 perfbench/trace_driver.py SPANS.json -- sums -n 1000

Wraps the functions in TRACED, calls ``trimobius.cli.main(argv)`` and writes
the spans and counters to SPANS.json; the exit code is the command's.
Per-element methods (``leq``, ``value``) are deliberately not wrapped: the
covering check calls them millions of times, so a span there would measure
the wrapper.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from contextlib import contextmanager
from time import perf_counter

# (module, class or None, function): the span is named "<module>.<function>".
TRACED = (
    ("poset", "DivisibilityPoset", "predecessor_table"),
    ("poset", "DivisibilityPoset", "hasse_edges"),
    ("mobius", None, "mobius_one_var"),
    ("mobius", None, "zeta_matrix"),
    ("mobius", None, "invert_zeta"),
    ("mobius", None, "verify_inverse"),
    ("analysis", None, "mertens_tri"),
    ("analysis", None, "abs_sums"),
    ("analysis", None, "ratio_sums_triangular"),
    ("analysis", None, "classical_mobius"),
    ("analysis", None, "classical_mertens"),
    ("props", None, "scan_range"),
    ("bfile", None, "format_bfile"),
    ("bfile", None, "oeis_diff"),
    ("exports", None, "hasse_to_dot"),
    ("svg", None, "svg_line_chart"),
    ("cli", None, "main"),
)

# Counters and how one command's values combine: the largest table built,
# or a total.
COUNTERS = {
    "poset.pred_entries": max,
    "poset.hasse_edge_count": sum,
    "bfile.bytes_out": sum,
    "exports.bytes_out": sum,
}

# Span around the benchmark's own counting work, so that it is subtracted
# from the self time of the layer that called the wrapped function.
COUNT_SPAN = "trace.count"


class Recorder:
    """Spans and counters of one process, kept in memory until written."""

    def __init__(self):
        self.spans: list = []
        self.counters = {name: 0 for name in COUNTERS}
        self._stack: list[int] = []
        # references, not ids: an id can be reused once a poset is freed
        self._tables_seen: list = []

    @contextmanager
    def span(self, name: str):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(span_id)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[span_id] = (span_id, parent, name, start, end)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            with self.span(COUNT_SPAN):
                self._count(name, result)
            return result

        return traced

    def _count(self, name: str, result) -> None:
        if name == "poset.predecessor_table":
            # the table is cached per poset; count each distinct table once
            if not any(table is result for table in self._tables_seen):
                self._tables_seen.append(result)
                entries = sum(len(row) for row in result)
                self.counters["poset.pred_entries"] = max(
                    self.counters["poset.pred_entries"], entries
                )
        elif name == "poset.hasse_edges":
            self.counters["poset.hasse_edge_count"] += len(result.edges)
        elif name == "bfile.format_bfile":
            self.counters["bfile.bytes_out"] += len(result.encode("utf-8"))
        elif name == "exports.hasse_to_dot":
            self.counters["exports.bytes_out"] += len(result.encode("utf-8"))


def install(recorder: Recorder):
    """Replace each traced function with its wrapper; return the wrapped cli.main."""
    for module_name, class_name, fn_name in TRACED:
        module = importlib.import_module(f"trimobius.{module_name}")
        owner = getattr(module, class_name) if class_name else module
        wrapped = recorder.wrap(f"{module_name}.{fn_name}", getattr(owner, fn_name))
        setattr(owner, fn_name, wrapped)
    return importlib.import_module("trimobius.cli").main


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: trace_driver.py SPANS.json -- COMMAND [ARGS...]", file=sys.stderr)
        return 2
    spans_path, command = argv[0], argv[2:]
    recorder = Recorder()
    cli_main = install(recorder)
    try:
        rc = cli_main(command)
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 2
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": recorder.spans, "counters": recorder.counters}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
