"""Text serializations: CSV matrices and DOT Hasse diagrams.

All output is byte-deterministic for a given input.
"""

from __future__ import annotations

import re

from ._numpy import np
from .bfile import decimal_blocks
from .poset import I64_MAX, HasseGraph


def matrix_to_csv(matrix) -> str:
    """One row of matrix.array per line, comma-separated integers, zeros explicit."""
    return "".join(decimal_blocks(list(matrix.array.T), ",", "\n"))


def dot_pieces(graph: HasseGraph):
    """DOT digraph of the covering relations, edges written lower -> upper, in pieces.

    rankdir=BT keeps covers pointing upward when rendered, the usual Hasse
    convention.  Every element gets a node line, so isolated elements
    survive a round trip.  The node and edge lines are integer columns
    written by decimal_blocks, a block per piece.
    """
    yield "digraph hasse {\n  rankdir=BT;\n"
    if graph.n_elements:
        yield "  "
        yield from decimal_blocks([range(1, graph.n_elements + 1)], "", ";\n  ", joined=True)
        yield ";\n"
    if len(graph.lower):
        yield "  "
        yield from decimal_blocks([graph.lower, graph.upper], " -> ", ";\n  ", joined=True)
        yield ";\n"
    yield "}\n"


def hasse_to_dot(graph: HasseGraph) -> str:
    """The text of dot_pieces as one str."""
    return "".join(dot_pieces(graph))


_DOT_EDGE = re.compile(r"^\s*([0-9]+)\s*->\s*([0-9]+)\s*;\s*$")
_DOT_NODE = re.compile(r"^\s*([0-9]+)\s*;\s*$")


def _dot_id(digits: str) -> int:
    """A node id of DOT text: 1..I64_MAX, as the HasseGraph arrays hold."""
    if len(digits.lstrip("0")) > 19:  # before int(), which refuses 4,300 digits
        raise ValueError(f"DOT node id of {len(digits)} digits is outside 1..{I64_MAX}")
    value = int(digits)
    if not 1 <= value <= I64_MAX:
        raise ValueError(f"DOT node id {digits} is outside 1..{I64_MAX}")
    return value


def parse_dot(text: str) -> HasseGraph:
    """Rebuild a HasseGraph from DOT text produced by hasse_to_dot.

    n is the largest node id.  Raises ValueError if there is no node line,
    on an id outside 1..I64_MAX, and on an edge that is not lower < upper
    <= n or that repeats an earlier one.
    """
    nodes = set()
    edges = []
    for line in text.splitlines():
        m = _DOT_EDGE.match(line)
        if m:
            edges.append((_dot_id(m.group(1)), _dot_id(m.group(2))))
            continue
        m = _DOT_NODE.match(line)
        if m:
            nodes.add(_dot_id(m.group(1)))
    if not nodes:
        raise ValueError("no node lines found in DOT text")
    n = max(nodes)
    edges.sort()
    for t, (lower, upper) in enumerate(edges):
        if not lower < upper <= n:
            raise ValueError(f"DOT edge {lower} -> {upper} is not lower < upper <= {n}")
        if t and edges[t - 1] == (lower, upper):
            raise ValueError(f"DOT edge {lower} -> {upper} appears twice")
    lower, upper = np.array(edges, dtype=np.int64).reshape(-1, 2).T
    return HasseGraph(n, lower, upper)
