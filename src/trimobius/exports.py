"""Text serializations: CSV matrices and DOT Hasse diagrams.

All output is byte-deterministic for a given input.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from .poset import HasseGraph

# Edges formatted per slice by hasse_to_dot.
_EDGE_SLICE = 1 << 16


def matrix_to_csv(matrix) -> str:
    """One row per line, comma-separated decimal integers, zeros explicit.

    Accepts anything with a .rows attribute (zeta or Mobius matrices) or a
    bare sequence of rows.
    """
    rows = getattr(matrix, "rows", matrix)
    return "".join(",".join(str(v) for v in row) + "\n" for row in rows)


def export_matrix_csv(matrix, path) -> None:
    Path(path).write_text(matrix_to_csv(matrix), encoding="ascii")


def hasse_to_dot(graph: HasseGraph) -> str:
    """DOT digraph of the covering relations, edges written lower -> upper.

    rankdir=BT keeps covers pointing upward when rendered, the usual Hasse
    convention.  Every element gets a node line, so isolated elements
    survive a round trip.  Edge lines are formatted a slice at a time.
    """
    out = ["digraph hasse {\n  rankdir=BT;\n"]
    if graph.n_elements:
        out.append("  " + ";\n  ".join(map(str, range(1, graph.n_elements + 1))) + ";\n")
    lower, upper = graph.lower, graph.upper
    for s in range(0, len(lower), _EDGE_SLICE):
        pairs = zip(lower[s : s + _EDGE_SLICE].tolist(), upper[s : s + _EDGE_SLICE].tolist())
        out.append("".join(map("  %s -> %s;\n".__mod__, pairs)))
    out.append("}\n")
    return "".join(out)


def export_dot(graph: HasseGraph, path) -> None:
    Path(path).write_text(hasse_to_dot(graph), encoding="ascii")


_DOT_EDGE = re.compile(r"^\s*(\d+)\s*->\s*(\d+)\s*;\s*$")
_DOT_NODE = re.compile(r"^\s*(\d+)\s*;\s*$")


def parse_dot(text: str) -> HasseGraph:
    """Rebuild a HasseGraph from DOT text produced by hasse_to_dot."""
    nodes = set()
    edges = []
    for line in text.splitlines():
        m = _DOT_EDGE.match(line)
        if m:
            edges.append((int(m.group(1)), int(m.group(2))))
            continue
        m = _DOT_NODE.match(line)
        if m:
            nodes.add(int(m.group(1)))
    if not nodes:
        raise ValueError("no node lines found in DOT text")
    lower, upper = np.array(sorted(edges), dtype=np.int64).reshape(-1, 2).T
    return HasseGraph(max(nodes), lower, upper)
