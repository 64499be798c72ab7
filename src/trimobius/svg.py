"""Hand-emitted SVG line charts and matrix heatmaps.

No plotting stack: a fixed viewBox and explicitly formatted coordinates
keep the output byte-deterministic, which the golden tests rely on.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from . import bfile
from .poset import magnitude

_GRAY = (217, 217, 217)
_BLUE = (33, 102, 172)
_RED = (178, 24, 43)

_CHART_W, _CHART_H = 800, 500
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 20, 40, 50
_POINT_CHUNK = 4096


def heat_color(value, max_abs) -> str:
    """Diverging cell color: blue above zero, red below, light gray at zero.

    Nonzero cells keep at least 30% tint so the sign is always visible,
    scaling up to the full hue at |value| == max_abs.
    """
    if value == 0:
        return "#%02x%02x%02x" % _GRAY
    t = 0.3 + 0.7 * min(1.0, abs(value) / max_abs)
    base = _BLUE if value > 0 else _RED
    rgb = tuple(round(g + (b - g) * t) for g, b in zip(_GRAY, base))
    return "#%02x%02x%02x" % rgb


def _escape(text: str) -> str:
    """text with &, < and > as XML character entities, for element content."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _scale(values, lo, hi, px_lo, px_hi):
    """Pixel coordinates of a value or an array of values on the axis lo..hi.

    The operations and their order are those of the scalar
    px_lo + (value - lo) * (px_hi - px_lo) / (hi - lo), so each coordinate
    is bit-identical to it.
    """
    if hi == lo:
        return np.full(np.shape(values), (px_lo + px_hi) / 2.0)
    return px_lo + (values - lo) * (px_hi - px_lo) / (hi - lo)


def line_chart_pieces(series):
    """Standalone SVG line chart with axes and the series name as title, in pieces.

    series is an analysis.SeriesReport, or any sized value with .name and
    .ys.  It is checked and the head made here; the polyline points then
    come _POINT_CHUNK at a time, each chunk's pixel coordinates scaled and
    written by bfile.fixed_text as "{:.2f}" would.
    """
    n = len(series)
    if not n:
        raise ValueError("empty series")
    ys = series.ys
    if not isinstance(ys, np.ndarray):
        ys = np.asarray(ys, dtype=np.float64)  # Python ints, Fractions or floats
    xmin, xmax = 1, n
    # float64 conversion is monotonic, so these are the extremes of the
    # float64 values, and the chunks convert one at a time
    ymin, ymax = float(ys.min()), float(ys.max())
    px_l, px_r = _MARGIN_L, _CHART_W - _MARGIN_R
    px_t, px_b = _MARGIN_T, _CHART_H - _MARGIN_B
    name = _escape(series.name)

    head = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_CHART_W} {_CHART_H}">\n',
        f'<title>{name}</title>\n',
        f'<rect x="0" y="0" width="{_CHART_W}" height="{_CHART_H}" fill="white"/>\n',
        f'<text x="{_CHART_W // 2}" y="24" text-anchor="middle" '
        f'font-family="monospace" font-size="16">{name}</text>\n',
        # axes
        f'<line x1="{px_l}" y1="{px_t}" x2="{px_l}" y2="{px_b}" stroke="black"/>\n',
        f'<line x1="{px_l}" y1="{px_b}" x2="{px_r}" y2="{px_b}" stroke="black"/>\n',
    ]
    if ymin < 0 < ymax:
        zero_y = _scale(0.0, ymin, ymax, px_b, px_t)
        head.append(
            f'<line x1="{px_l}" y1="{zero_y:.2f}" x2="{px_r}" y2="{zero_y:.2f}" '
            f'stroke="gray" stroke-dasharray="4 3"/>\n'
        )
    head += [
        f'<text x="{px_l}" y="{px_b + 18}" font-family="monospace" font-size="12" '
        f'text-anchor="middle">{xmin}</text>\n',
        f'<text x="{px_r}" y="{px_b + 18}" font-family="monospace" font-size="12" '
        f'text-anchor="middle">{xmax}</text>\n',
        f'<text x="{px_l - 6}" y="{px_b}" font-family="monospace" font-size="12" '
        f'text-anchor="end">{ymin:.6g}</text>\n',
        f'<text x="{px_l - 6}" y="{px_t + 4}" font-family="monospace" font-size="12" '
        f'text-anchor="end">{ymax:.6g}</text>\n',
        '<polyline fill="none" stroke="#1f4e9c" stroke-width="1" points="',
    ]
    return chain(["".join(head)], _points(ys, ymin, ymax), ['"/>\n</svg>\n'])


def _points(ys, ymin, ymax):
    """The polyline's "x,y" pairs, space-separated, a chunk of points per piece."""
    n = len(ys)
    for lo in range(0, n, _POINT_CHUNK):
        hi = min(lo + _POINT_CHUNK, n)
        px = _scale(np.arange(lo + 1, hi + 1), 1, n, _MARGIN_L, _CHART_W - _MARGIN_R)
        py = _scale(np.asarray(ys[lo:hi], dtype=np.float64), ymin, ymax,
                    _CHART_H - _MARGIN_B, _MARGIN_T)
        text = bfile.fixed_text([px, py], ",", " ")
        yield text if hi < n else text[:-1]


def svg_line_chart(series) -> str:
    """The text of line_chart_pieces as one str."""
    return "".join(line_chart_pieces(series))


def svg_heatmap(matrix, title: str) -> str:
    """n x n cell grid of matrix.array; zero cells come from one gray background rect.

    matrix is a zeta or Mobius matrix, or anything with a square integer
    .array.  The caller builds it, so the size cap is that of zeta_matrix.
    """
    entries = matrix.array
    n = len(entries)
    cell = max(1, 640 // n)
    side = n * cell
    max_abs = magnitude(entries)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {side} {side}">\n',
        f"<title>{_escape(title)}</title>\n",
        f'<rect x="0" y="0" width="{side}" height="{side}" '
        f'fill="#%02x%02x%02x"/>\n' % _GRAY,
    ]
    # np.nonzero lists the cells in row-major order
    rows, cols = np.nonzero(entries)
    for i, j, v in zip(rows.tolist(), cols.tolist(), entries[rows, cols].tolist()):
        parts.append(
            f'<rect x="{j * cell}" y="{i * cell}" width="{cell}" height="{cell}" '
            f'fill="{heat_color(v, max_abs)}"/>\n'
        )
    parts.append("</svg>\n")
    return "".join(parts)
