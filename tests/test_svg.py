import re
import tracemalloc
import xml.etree.ElementTree as ET
from fractions import Fraction

import numpy as np
import pytest

from trimobius import (
    DENSE_CAP,
    DivisibilityPoset,
    SeriesReport,
    SequenceKind,
    abs_sums,
    classical_mertens,
    classical_mobius,
    invert_zeta,
    mertens_tri,
    mobius_one_var,
    ratio_sums_index,
    ratio_sums_triangular,
    svg_heatmap,
    svg_line_chart,
    zeta_matrix,
)
from trimobius import bfile as bfile_module
from trimobius import svg as svg_module
from trimobius.cli import main
from trimobius.svg import heat_color, line_chart_pieces

TRI = SequenceKind.TRIANGULAR


def _polyline_points(svg_text):
    match = re.search(r'points="([^"]*)"', svg_text)
    assert match, "no polyline in chart"
    return [tuple(float(c) for c in p.split(",")) for p in match.group(1).split()]


def _flat_series(value, n):
    return SeriesReport(
        name="flat", ys=[value] * n,
        slope_estimate=0.0, slope_lsq=0.0, final_value=value,
    )


class TestLineChart:
    def test_downward_trend_renders_downward(self, tri_poset):
        vec = mobius_one_var(tri_poset, 1000)
        svg = svg_line_chart(mertens_tri(vec))
        points = _polyline_points(svg)
        # SVG y grows downward, so a falling series ends at a larger y
        assert points[-1][1] > points[0][1]

    def test_constant_series_is_horizontal(self):
        points = _polyline_points(svg_line_chart(_flat_series(7, 40)))
        ys = {y for _, y in points}
        assert len(ys) == 1

    def test_abs_sums_near_linear(self, tri_poset):
        vec = mobius_one_var(tri_poset, 1000)
        report = abs_sums(vec)
        assert 0.4 <= float(report.slope_estimate) <= 0.6
        points = _polyline_points(svg_line_chart(report))
        # pixel-space slope of a near-linear series: interior point sits
        # close to the chord between the endpoints
        (x0, y0), (xm, ym), (x1, y1) = points[0], points[len(points) // 2], points[-1]
        chord_y = y0 + (y1 - y0) * (xm - x0) / (x1 - x0)
        assert abs(ym - chord_y) < 25  # of a 500px-tall canvas

    def test_deterministic(self, tri_poset):
        report = mertens_tri(mobius_one_var(tri_poset, 100))
        assert svg_line_chart(report) == svg_line_chart(report)

    def test_contains_title_and_axes(self):
        svg = svg_line_chart(_flat_series(1, 5))
        assert "<title>flat</title>" in svg
        assert svg.count("<line") >= 2

    def test_write_to_file(self, tri_poset, tmp_path, monkeypatch):
        monkeypatch.setattr(svg_module, "_POINT_CHUNK", 7)
        report = mertens_tri(mobius_one_var(tri_poset, 50))
        path = tmp_path / "chart.svg"
        assert main(["sums", "-n", "50", "--format", "svg", "--out", str(path)]) == 0
        assert path.read_text() == svg_line_chart(report)
        assert path.read_text().startswith("<svg")

    def test_empty_series_raises_before_any_piece(self):
        # line_chart_pieces checks eagerly: the call raises, not the first next()
        with pytest.raises(ValueError, match="empty series"):
            line_chart_pieces(_flat_series(0, 0))

    def test_title_is_escaped(self):
        report = SeriesReport(name="a<b&c>", ys=np.array([1, -2, 3]), slope_estimate=0.0,
                              slope_lsq=0.0, final_value=3)
        root = ET.fromstring(svg_line_chart(report))
        svg_ns = "{http://www.w3.org/2000/svg}"
        assert root.find(f"{svg_ns}title").text == "a<b&c>"
        assert root.find(f"{svg_ns}text").text == "a<b&c>"
        assert len(root.find(f"{svg_ns}polyline").get("points").split()) == 3

    def test_pieces_are_consumed_in_bounded_memory(self, tri_poset_1e5):
        report = abs_sums(mobius_one_var(tri_poset_1e5))
        tracemalloc.start()
        try:
            size = sum(map(len, svg_module.line_chart_pieces(report)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert size > 1_300_000
        assert peak < 1 << 20  # the whole-document writer peaked at ~6 MB


def _scalar_chart_parts(series):
    """Pieces of the chart as the original per-point scalar path wrote them."""

    def scale(value, lo, hi, px_lo, px_hi):
        if hi == lo:
            return (px_lo + px_hi) / 2.0
        return px_lo + (value - lo) * (px_hi - px_lo) / (hi - lo)

    ys = [float(v) for v in series.ys]
    n, ymin, ymax = len(ys), min(ys), max(ys)
    points = " ".join(
        f"{scale(x, 1, n, 70, 780):.2f},{scale(y, ymin, ymax, 450, 40):.2f}"
        for x, y in enumerate(ys, 1)
    )
    parts = [
        f'points="{points}"',
        f'text-anchor="end">{ymin:.6g}</text>',
        f'text-anchor="end">{ymax:.6g}</text>',
    ]
    if ymin < 0 < ymax:
        zero_y = scale(0.0, ymin, ymax, 450, 40)
        parts.append(f'y1="{zero_y:.2f}" x2="780" y2="{zero_y:.2f}"')
    return parts


class TestChartCoordinates:
    def test_matches_scalar_path_1e5(self, tri_poset_1e5):
        mu = mobius_one_var(tri_poset_1e5)
        for report in (mertens_tri(mu), abs_sums(mu), ratio_sums_triangular(mu)):
            svg = svg_line_chart(report)
            for part in _scalar_chart_parts(report):
                assert part in svg, part[:60]

    def test_scale_is_bit_identical_to_the_scalar_formula(self, tri_poset_1e5):
        ys = [float(y) for y in mertens_tri(mobius_one_var(tri_poset_1e5)).ys]
        n, lo, hi = len(ys), min(ys), max(ys)
        xs = svg_module._scale(np.arange(1, n + 1), 1, n, 70, 780).tolist()
        assert xs == [70 + (x - 1) * (780 - 70) / (n - 1) for x in range(1, n + 1)]
        pys = svg_module._scale(np.array(ys), lo, hi, 450, 40).tolist()
        assert pys == [450 + (y - lo) * (40 - 450) / (hi - lo) for y in ys]

    def test_chunks_match_scalar_path(self, monkeypatch):
        monkeypatch.setattr(svg_module, "_POINT_CHUNK", 7)
        rng = np.random.default_rng(5)
        for n in (1, 2, 7, 8, 9, 4095, 4096, 4097):
            for ys in (np.cumsum(rng.integers(-1, 2, n)), rng.uniform(-3, 1, n)):
                report = SeriesReport(name="chunks", ys=ys, slope_estimate=0.0,
                                      slope_lsq=0.0, final_value=ys[-1])
                svg = svg_line_chart(report)
                for part in _scalar_chart_parts(report):
                    assert part in svg, part[:60]

    def test_golden_chart_points_match_format(self):
        """Every coordinate of the charts the golden digests pin, against "{:.2f}"."""
        reports = [classical_mertens(classical_mobius(60))]
        for kind, n in ((TRI, 60), (SequenceKind.IDENTITY, 60), (TRI, 20_000)):
            mu = mobius_one_var(DivisibilityPoset(kind, n), n)
            reports += [ratio_sums_index(mu), ratio_sums_triangular(mu)]
            if n == 60:
                reports += [mertens_tri(mu), abs_sums(mu)]
        for report in reports:
            n, ys = len(report), report.ys.astype(np.float64)
            px = svg_module._scale(np.arange(1, n + 1), 1, n, 70, 780)
            py = svg_module._scale(ys, ys.min(), ys.max(), 450, 40)
            expected = "".join(f"{x:.2f},{y:.2f} " for x, y in zip(px.tolist(), py.tolist()))
            assert bfile_module.fixed_text([px, py], ",", " ") == expected

    def test_matches_scalar_path_on_odd_values(self):
        ys = [2**53 + 1, -(2**60) - 3, 2**70 + 1, Fraction(1, 3), -0.1, 5e-324, 0]
        for values in (ys, ys[:1], [Fraction(2, 3)] * 3, [-(2**65)] * 2):
            report = SeriesReport(name="odd", ys=values, slope_estimate=0.0,
                                  slope_lsq=0.0, final_value=values[-1])
            svg = svg_line_chart(report)
            for part in _scalar_chart_parts(report):
                assert part in svg, part[:60]


class TestHeatColor:
    def test_zero_is_light_gray(self):
        assert heat_color(0, 5) == "#d9d9d9"

    def test_sign_families(self):
        for v in (1, 2, 5):
            rgb = heat_color(v, 5)
            r, g, b = int(rgb[1:3], 16), int(rgb[3:5], 16), int(rgb[5:7], 16)
            assert b > r, "positive must be blue-dominant"
        for v in (-1, -4, -5):
            rgb = heat_color(v, 5)
            r, g, b = int(rgb[1:3], 16), int(rgb[3:5], 16), int(rgb[5:7], 16)
            assert r > b, "negative must be red-dominant"

    def test_magnitude_scales_saturation(self):
        faint = heat_color(1, 8)
        strong = heat_color(8, 8)
        assert faint != strong
        assert strong == "#2166ac"


def _zeta(n, kind=TRI):
    return zeta_matrix(DivisibilityPoset(kind, n), n)


class TestHeatmap:
    def test_mobius_cells(self):
        svg = svg_heatmap(invert_zeta(_zeta(10)), "t")
        cell = 64  # 640 // 10
        # cell (row 2, col 1) holds -1: a red-family rect
        assert f'<rect x="0" y="{cell}" width="{cell}" height="{cell}" fill="#b2182b"/>' in svg
        # diagonal holds +1: blue
        assert f'<rect x="0" y="0" width="{cell}" height="{cell}" fill="#2166ac"/>' in svg

    def test_zeta_has_no_red(self):
        svg = svg_heatmap(_zeta(20), "t")
        assert "#b2182b" not in svg
        assert "#2166ac" in svg

    def test_zero_background_present(self):
        svg = svg_heatmap(invert_zeta(_zeta(10)), "t")
        assert "#d9d9d9" in svg

    def test_title_and_row_major_cells(self):
        minv = invert_zeta(_zeta(30))
        svg = svg_heatmap(minv, "mobius matrix heatmap (triangular, n=30)")
        assert "<title>mobius matrix heatmap (triangular, n=30)</title>" in svg
        cell = 640 // 30
        cells = [(int(y) // cell, int(x) // cell) for x, y in re.findall(
            rf'<rect x="(\d+)" y="(\d+)" width="{cell}"', svg)]
        expected = [(i, j) for i, row in enumerate(minv.array.tolist())
                    for j, v in enumerate(row) if v != 0]
        assert cells == expected

    def test_cap_enforced(self):
        # the heatmap is drawn from a matrix the caller builds; past DENSE_CAP
        # zeta_matrix refuses to build one, so no oversized heatmap is drawn
        with pytest.raises(ValueError, match="DENSE_CAP"):
            svg_heatmap(_zeta(DENSE_CAP + 1), "t")

    def test_identity_kind_matches_classical_pattern(self):
        # spot-check the divisor-lattice heatmap against classical values:
        # row 6 has entries mu(6/j) at j | 6
        minv = invert_zeta(_zeta(10, SequenceKind.IDENTITY))
        svg = svg_heatmap(minv, "t")
        assert svg.count("<rect") > 10
        sieve = classical_mobius(10)
        for j in (1, 2, 3, 6):
            assert minv.array[5, j - 1] == sieve.value(6 // j)

    def test_title_is_escaped(self):
        root = ET.fromstring(svg_heatmap(_zeta(3), "zeta <3 & more>"))
        assert root.find("{http://www.w3.org/2000/svg}title").text == "zeta <3 & more>"

    def test_write_to_file(self, tmp_path):
        path = tmp_path / "heat.svg"
        assert main(["heatmap", "-n", "5", "--matrix", "zeta", "--out", str(path)]) == 0
        title = "zeta matrix heatmap (triangular, n=5)"
        assert path.read_text() == svg_heatmap(_zeta(5), title)
        assert path.read_text().endswith("</svg>\n")
