"""The scan's renderers print from the integer `ScanResult` and its
`ScanGrid`: the JSON samples and the SVG curve must equal what the Fraction
samples give."""

import io
import json
import re
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings, strategies as st

import cyclicquad.cli as cli
from cyclicquad import exactnum, oracle, svg
from cyclicquad.construct import brahmagupta_quad
from cyclicquad.exactnum import Surd, fixed_ratio, render_decimal
from cyclicquad.mensuration import DiagQuad, InvalidQuad, quad
from cyclicquad.oracle import ScanGrid, ScanResult, area_scan, embed
from cyclicquad.svg import _PLOT, scan_svg
from cyclicquad.triples import PythTriple

from conftest import time_limit


def reference_map(value, lo, hi, out_lo, out_len):
    """The Fraction mapping the curve used before it worked on integers."""
    if hi == lo:
        return Fraction(out_lo) + Fraction(out_len, 2)
    return out_lo + (value - lo) * out_len / (hi - lo)


def reference_curve(result: ScanResult) -> str:
    px, py, pw, ph = _PLOT
    diags = [s[0] for s in result.samples]
    areas = [s[1] for s in result.samples]
    lo_d, hi_d = diags[0], diags[-1]
    lo_a, hi_a = min(areas), max(areas)

    def fixed(value: Fraction) -> str:
        return fixed_ratio(value.numerator, value.denominator, 2)

    return " ".join(
        f"{fixed(reference_map(d, lo_d, hi_d, px, pw))},"
        f"{fixed(py + ph - reference_map(a, lo_a, hi_a, 0, ph))}"
        for d, a in zip(diags, areas)
    )


def svg_curve(text: str) -> str:
    return re.search(r'<polyline points="([^"]*)"', text).group(1)


def json_samples(result: ScanResult, digits: int) -> list:
    """The JSON samples `cmd_scan` prints for `result`, whatever the sides."""
    out = io.StringIO()
    argv = ["--format", "json", "--digits", str(digits), "scan", "3", "4", "3", "4"]
    with patch.object(cli, "area_scan", lambda q, steps, digits: result), redirect_stdout(out):
        assert cli.main(argv) == 0
    return json.loads(out.getvalue())["report"]["samples"]


rational_sides = st.fractions(min_value=Fraction(1, 12), max_value=200, max_denominator=12)
surd_sides = st.one_of(
    rational_sides,
    st.builds(Surd, st.fractions(min_value=Fraction(1, 4), max_value=40, max_denominator=4),
              st.sampled_from([2, 3, 5, 6, 7])),
)


def quad_of(sides):
    try:
        return quad(*sides)
    except InvalidQuad:
        assume(False)


quads = st.one_of(
    st.tuples(*[rational_sides] * 4),
    st.tuples(*[surd_sides] * 4),
).map(quad_of)


class TestRenderersMatchFractions:
    @settings(deadline=None)
    @given(quads, st.integers(3, 60), st.integers(1, 60))
    def test_json_samples(self, q, steps, digits):
        result = area_scan(q, steps, digits)
        expected = [[render_decimal(d, digits), render_decimal(a, digits)] for d, a in result.samples]
        assert json_samples(result, digits) == expected

    @settings(deadline=None)
    @given(quads, st.integers(3, 60), st.integers(1, 60))
    def test_svg_curve(self, q, steps, digits):
        result = area_scan(q, steps, digits)
        assert svg_curve(scan_svg(q, result)) == reference_curve(result)

    @pytest.mark.parametrize("roots", [(7, 7, 7), (1, 9, 4)], ids=["flat", "varied"])
    def test_zero_step(self, roots):
        # every sample at diagonal 5; `scan_grid` never builds dx == 0, so
        # only the JSON renderer is checked on this hand-built grid
        grid = ScanGrid(den=2, x0=10, dx=0, k1=0, m1=0, k2=0, m2=0, scale=1)
        result = ScanResult(grid, roots, argmax=roots.index(max(roots)))
        expected = [[render_decimal(d, 12), render_decimal(a, 12)] for d, a in result.samples]
        assert json_samples(result, 12) == expected
        assert result.samples[result.argmax][0] == 5

    def test_renderers_leave_the_fraction_samples_unbuilt(self):
        q = quad(75, 40, 51, 68)
        result = area_scan(q, 99, 12)

        def unread(self):
            raise AssertionError("a renderer read ScanResult.samples")

        with patch.object(ScanResult, "samples", property(unread)):
            scan_svg(q, result)
            json_samples(result, 12)
        assert len(result.samples) == 99


def polygons(text: str) -> list[list[tuple[float, float]]]:
    return [
        [tuple(float(v) for v in point.split(",")) for point in points.split()]
        for points in re.findall(r'<polygon points="([^"]*)"', text)
    ]


def svg_scan(*sides) -> str:
    result = area_scan(quad(*sides), 9, 12)
    return scan_svg(quad(*sides), result)


class TestSmallFigures:
    @pytest.mark.parametrize("k", [Fraction(1, 40), Fraction(1, 10**39)], ids=["1/40", "1e-39"])
    def test_snapshots_fill_their_box_at_any_scale(self, k):
        expected = polygons(svg_scan(3, 4, 5, 6))
        scaled = polygons(svg_scan(*(k * s for s in (3, 4, 5, 6))))
        assert len(scaled) == len(expected) == 3
        for got, want in zip(scaled, expected):
            for (gx, gy), (wx, wy) in zip(got, want):
                assert abs(gx - wx) <= 0.01 and abs(gy - wy) <= 0.01

    def test_labels_keep_significant_digits(self):
        side = Fraction(1, 10**39)
        text = svg_scan(side, side, side, side)
        labels = re.findall(r">(?:diagonal |area |max area |at diagonal )?([0-9.]+)(?: to ([0-9.]+))?<", text)
        values = [v for pair in labels for v in pair if v]
        # 4 plot labels (two of them ranges) and 4 side labels per snapshot
        assert len(values) == 6 + 12
        assert all(Fraction(v) > 0 for v in values)
        assert "at diagonal 0." + "0" * 38 + "140<" in text
        assert ">0." + "0" * 38 + "100<" in text

    def test_labels_from_a_tenth_keep_two_places(self):
        text = svg_scan(Fraction(1, 10), Fraction(1, 10), Fraction(1, 10), Fraction(1, 10))
        assert ">0.10<" in text


def brahmagupta_sides():
    t1, t2 = PythTriple(3, 4, 5), PythTriple(5, 12, 13)
    return tuple(brahmagupta_quad(t1, t2).sides)


class TestSnapshotsFromTheGrid:
    @pytest.mark.parametrize(
        "sides",
        [
            pytest.param((75, 40, 51, 68), id="integer"),
            pytest.param((Fraction(15, 2), Fraction(13, 3), 9, Fraction(41, 4)), id="rational"),
            pytest.param((Surd(3, 2), Surd(2, 2), 2, 4), id="surd"),
            pytest.param(brahmagupta_sides(), id="brahmagupta"),
        ],
    )
    def test_vertices_match_the_embedding(self, sides):
        # segments exactly, heights floored: each below the exact height by
        # less than one unit over the denominator
        q = quad(*sides)
        result = area_scan(q, 9, 12)
        shown = (0, result.argmax, 8)
        for i in shown:
            den, vertices = result.grid.vertices(i)
            exact = embed(DiagQuad(q, result.samples[i][0]))
            assert den > 0
            for (x, y), (ex, ey) in zip(vertices, exact):
                assert Fraction(x, den) == ex
                assert 0 <= abs(ey) - Fraction(abs(y), den) < Fraction(1, den)

    def test_scan_svg_neither_embeds_nor_factors(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("drawing a scan must not embed or factor")

        cases = [quad(75, 40, 51, 68), quad(13, Surd(14, 7), 7, Surd(8, 5)),
                 quad(*brahmagupta_sides())]
        scans = [(q, area_scan(q, 99, 12)) for q in cases]
        monkeypatch.setattr(oracle, "embed", forbidden)
        monkeypatch.setattr(exactnum, "square_free_split", forbidden)
        monkeypatch.setattr(exactnum.Surd, "sqrt", forbidden)
        for q, result in scans:
            assert scan_svg(q, result).count("<polygon ") == 3

    def test_scan_svg_never_rebuilds_the_grid(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("drawing a scan must read the scan's own grid")

        q = quad(75, 40, 51, 68)
        result = area_scan(q, 99, 12)
        for module in (oracle, svg):
            monkeypatch.setattr(module, "scan_grid", forbidden, raising=False)
        golden = Path(__file__).resolve().parent / "data" / "cli" / "scan_steps99.svg"
        assert scan_svg(q, result) == golden.read_text()

    def test_20_digit_svg_scan_finishes(self, capsys):
        # drawing by embedding factored each snapshot's heights: past 60 s
        argv = ["--format", "svg", "scan", "64319778597937997879", "55114109362843527589",
                "16401117268241863454", "30000000000000000001"]
        with time_limit(5):
            assert cli.main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out.count("<polygon ") == 3 and captured.err == ""

    def test_surd_sides_svg_scan_finishes(self):
        # drawing by embedding ran past 100 s on these sides
        q = quad(13, Surd(14, 7), 7, Surd(8, 5))
        with time_limit(5):
            text = scan_svg(q, area_scan(q, 9, 50))
        assert text.count("<polygon ") == 3
