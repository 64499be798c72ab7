"""Hand-emitted SVG line charts and matrix heatmaps.

No plotting stack: a fixed viewBox and explicitly formatted coordinates
keep the output byte-deterministic, which the golden tests rely on.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .analysis import SeriesReport

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


def _scale(values, lo, hi, px_lo, px_hi):
    """Pixel coordinates of a value or an array of values on the axis lo..hi.

    The operations and their order are those of the scalar
    px_lo + (value - lo) * (px_hi - px_lo) / (hi - lo), so each coordinate
    is bit-identical to it.
    """
    if hi == lo:
        return np.full(np.shape(values), (px_lo + px_hi) / 2.0)
    return px_lo + (values - lo) * (px_hi - px_lo) / (hi - lo)


def svg_line_chart(series: SeriesReport) -> str:
    """Standalone SVG line chart with axes and the series name as title."""
    n = len(series)
    if not n:
        raise ValueError("empty series")
    ys = np.asarray(series.ys, dtype=np.float64)
    xmin, xmax = 1, n
    ymin, ymax = float(ys.min()), float(ys.max())
    px_l, px_r = _MARGIN_L, _CHART_W - _MARGIN_R
    px_t, px_b = _MARGIN_T, _CHART_H - _MARGIN_B

    px = _scale(np.arange(1, n + 1), xmin, xmax, px_l, px_r)
    py = _scale(ys, ymin, ymax, px_b, px_t)
    # formatted a chunk at a time: no list of every point's floats or text
    c = _POINT_CHUNK
    points = " ".join(
        " ".join(map("{:.2f},{:.2f}".format, px[i : i + c].tolist(), py[i : i + c].tolist()))
        for i in range(0, n, c)
    )
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_CHART_W} {_CHART_H}">\n',
        f'<title>{series.name}</title>\n',
        f'<rect x="0" y="0" width="{_CHART_W}" height="{_CHART_H}" fill="white"/>\n',
        f'<text x="{_CHART_W // 2}" y="24" text-anchor="middle" '
        f'font-family="monospace" font-size="16">{series.name}</text>\n',
        # axes
        f'<line x1="{px_l}" y1="{px_t}" x2="{px_l}" y2="{px_b}" stroke="black"/>\n',
        f'<line x1="{px_l}" y1="{px_b}" x2="{px_r}" y2="{px_b}" stroke="black"/>\n',
    ]
    if ymin < 0 < ymax:
        zero_y = _scale(0.0, ymin, ymax, px_b, px_t)
        parts.append(
            f'<line x1="{px_l}" y1="{zero_y:.2f}" x2="{px_r}" y2="{zero_y:.2f}" '
            f'stroke="gray" stroke-dasharray="4 3"/>\n'
        )
    parts += [
        f'<text x="{px_l}" y="{px_b + 18}" font-family="monospace" font-size="12" '
        f'text-anchor="middle">{xmin}</text>\n',
        f'<text x="{px_r}" y="{px_b + 18}" font-family="monospace" font-size="12" '
        f'text-anchor="middle">{xmax}</text>\n',
        f'<text x="{px_l - 6}" y="{px_b}" font-family="monospace" font-size="12" '
        f'text-anchor="end">{ymin:.6g}</text>\n',
        f'<text x="{px_l - 6}" y="{px_t + 4}" font-family="monospace" font-size="12" '
        f'text-anchor="end">{ymax:.6g}</text>\n',
        f'<polyline fill="none" stroke="#1f4e9c" stroke-width="1" points="{points}"/>\n',
        "</svg>\n",
    ]
    return "".join(parts)


def render_svg_plot(series: SeriesReport, path) -> None:
    Path(path).write_text(svg_line_chart(series), encoding="ascii")


def svg_heatmap(matrix, title: str) -> str:
    """n x n cell grid of matrix.array; zero cells come from one gray background rect.

    matrix is a zeta or Mobius matrix, or anything with a square integer
    .array.  The caller builds it, so the size cap is that of zeta_matrix.
    """
    entries = matrix.array
    n = len(entries)
    cell = max(1, 640 // n)
    side = n * cell
    max_abs = max(int(entries.max()), -int(entries.min()))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {side} {side}">\n',
        f"<title>{title}</title>\n",
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


def render_svg_heatmap(matrix, title: str, path) -> None:
    Path(path).write_text(svg_heatmap(matrix, title), encoding="ascii")
