"""Span records and self-time arithmetic for the traced benchmark runs.

A span is a tuple (span_id, parent_id, name, start_s, end_s); parent_id is
-1 for a root span.  Spans come from one thread, so a child always lies
inside its parent, but the arithmetic clips to the parent interval anyway.
"""

from __future__ import annotations

from collections import defaultdict


def self_times(spans) -> dict[int, float]:
    """Map each span id to its duration minus the time its child spans cover."""
    children = defaultdict(list)
    for _, parent, _, start, end in spans:
        children[parent].append((start, end))
    result = {}
    for span_id, _, _, start, end in spans:
        covered = 0.0
        reached = start
        for c_start, c_end in sorted(children[span_id]):
            c_start = max(c_start, reached)
            c_end = min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reached = c_end
        result[span_id] = (end - start) - covered
    return result


def layer_totals(spans) -> dict[str, tuple[float, int]]:
    """Per span name: (summed self time in seconds, number of spans)."""
    own = self_times(spans)
    totals: dict[str, tuple[float, int]] = {}
    for span_id, _, name, _, _ in spans:
        self_s, calls = totals.get(name, (0.0, 0))
        totals[name] = (self_s + own[span_id], calls + 1)
    return totals
