"""The scan's renderers print from the integer `ScanResult` and its
`ScanGrid`: the JSON samples and the SVG curve must equal what the Fraction
samples give, and the SVG drawing, which proves most curve points from
doubles, must equal the drawing from every sample's exact root."""

import io
import json
import re
from contextlib import redirect_stdout
from fractions import Fraction
from math import floor
from pathlib import Path
from types import SimpleNamespace
from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings, strategies as st

import cyclicquad.cli as cli
from cyclicquad import exactnum, oracle, svg
from cyclicquad.construct import brahmagupta_quad
from cyclicquad.exactnum import Surd, approx, fixed_ratio, fixed_ratios, render_decimal
from cyclicquad.mensuration import DiagQuad, InvalidQuad, quad
from cyclicquad.oracle import ScanGrid, ScanResult, area_scan, embed, scan_grid
from cyclicquad.svg import _PLOT, _SNAP_W, VIEW_H, VIEW_W, _label, _snapshot, scan_svg
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
    with patch.object(oracle, "area_scan", lambda q, steps, digits: result), redirect_stdout(out):
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
        assert svg_curve(scan_svg(q, result.grid)) == reference_curve(result)

    @pytest.mark.parametrize("roots", [(7, 7, 7), (1, 9, 4)], ids=["flat", "varied"])
    def test_zero_step(self, roots):
        # every sample at diagonal 5; `scan_grid` never builds dx == 0, so
        # only the JSON renderer is checked on this hand-built grid
        grid = ScanGrid(den=2, x0=10, dx=0, k1=0, m1=0, k2=0, m2=0, scale=1, steps=3)
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
            scan_svg(q, result.grid)
            json_samples(result, 12)
        assert len(result.samples) == 99


def polygons(text: str) -> list[list[tuple[float, float]]]:
    return [
        [tuple(float(v) for v in point.split(",")) for point in points.split()]
        for points in re.findall(r'<polygon points="([^"]*)"', text)
    ]


def svg_scan(*sides) -> str:
    result = area_scan(quad(*sides), 9, 12)
    return scan_svg(quad(*sides), result.grid)


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
            assert scan_svg(q, result.grid).count("<polygon ") == 3

    def test_scan_svg_never_rebuilds_the_grid(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("drawing a scan must read the scan's own grid")

        q = quad(75, 40, 51, 68)
        result = area_scan(q, 99, 12)
        for module in (oracle, svg):
            monkeypatch.setattr(module, "scan_grid", forbidden, raising=False)
        golden = Path(__file__).resolve().parent / "data" / "cli" / "scan_steps99.svg"
        assert scan_svg(q, result.grid) == golden.read_text()

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
            text = scan_svg(q, area_scan(q, 9, 50).grid)
        assert text.count("<polygon ") == 3


def reference_scan_svg(q, result: ScanResult) -> str:
    """The drawing from every sample's exact root, each curve point
    through `fixed_ratios`: `scan_svg` as it was before it proved curve
    points from doubles."""
    px, py, pw, ph = _PLOT
    grid, roots, argmax = result
    den, x0, dx, area_den = grid.den, grid.x0, grid.dx, grid.area_den
    last = len(roots) - 1
    lo_r, hi_r = min(roots), max(roots)
    xs = fixed_ratios(range(px * last, px * last + (last + 1) * pw, pw), last, 2)
    if hi_r > lo_r:
        span = hi_r - lo_r
        top = (py + ph) * span + lo_r * ph
        ys = fixed_ratios([top - r * ph for r in roots], span, 2)
    else:
        ys = [fixed_ratio(2 * py + ph, 2, 2)] * (last + 1)
    curve = " ".join(map(",".join, zip(xs, ys)))
    body = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {VIEW_W} {VIEW_H}">',
        f'<rect x="{px}" y="{py}" width="{pw}" height="{ph}" fill="none" stroke="black" stroke-width="2"/>',
        f'<polyline points="{curve}" fill="none" stroke="black" stroke-width="2"/>',
        f'<text x="{px}" y="{py + ph + 22}" font-size="13">diagonal {_label(x0, den)} to {_label(x0 + last * dx, den)}</text>',
        f'<text x="{px}" y="{py - 12}" font-size="13">area {_label(lo_r, area_den)} to {_label(hi_r, area_den)}</text>',
        f'<text x="{px + pw + 16}" y="{py + 16}" font-size="13">max area {_label(roots[argmax], area_den)}</text>',
        f'<text x="{px + pw + 16}" y="{py + 36}" font-size="13">at diagonal {_label(x0 + argmax * dx, den)}</text>',
    ]
    sides = [_label(v.numerator, v.denominator) for v in (approx(s, 12) for s in q)]
    labels = ("smallest sampled diagonal", "area-maximizing diagonal", "largest sampled diagonal")
    for k, (i, label) in enumerate(zip((0, argmax, last), labels)):
        _, vertices = grid.vertices(i)
        body.extend(_snapshot(vertices, sides, 20 + k * (_SNAP_W + 30), label))
    body.append("</svg>")
    return "\n".join(body) + "\n"


def exact_result(grid: ScanGrid, steps: int) -> ScanResult:
    """The whole scan on `grid`, every root taken exactly."""
    roots = grid.roots(range(steps))
    return ScanResult(grid, tuple(roots), roots.index(max(roots)))


@pytest.fixture
def evaluated(monkeypatch):
    """The sample indices whose roots `ScanGrid.roots` takes, in order."""
    indices = []
    roots = ScanGrid.roots

    def counted(self, which):
        which = list(which)
        indices.extend(which)
        return roots(self, which)

    monkeypatch.setattr(ScanGrid, "roots", counted)
    return indices


def digit_sides(n):
    return st.integers(10 ** (n - 1), 10**n - 1)


# the 80-digit sides of tests/data/cli/scan_80digit_sides.svg: P > 2**1024
SIDES_80 = (
    53702342298702900314186501861978917952591646589069216578666847614225793129935131,
    38645708957458125109916684478674801782240005510317688634899862001321450129624253,
    25472285789645087989880181318047485199648290023307462091389693829302135896208000,
    87939823223186002773145329248828446915704894884080899850836230542941273950599438,
)


class TestCurveCertificate:
    @settings(deadline=None, max_examples=60)
    @given(
        st.one_of(
            quads,
            st.tuples(*[digit_sides(20)] * 4).map(quad_of),
            st.tuples(*[digit_sides(80)] * 4).map(quad_of),
        ),
        st.integers(3, 2000),
        st.integers(1, 50),
    )
    def test_matches_the_exact_drawing(self, q, steps, digits):
        grid = scan_grid(q, steps, digits)
        assert scan_svg(q, grid) == reference_scan_svg(q, exact_result(grid, steps))

    @pytest.mark.parametrize("patch", ["margin", "doubles"])
    def test_unproved_points_take_every_exact_root(self, monkeypatch, evaluated, patch):
        q = quad(75, 40, 51, 68)
        grid = scan_grid(q, 99, 12)
        expected = reference_scan_svg(q, exact_result(grid, 99))
        evaluated.clear()
        if patch == "margin":
            # a margin wider than the plot proves nothing
            monkeypatch.setattr(svg, "_ROUNDING", 1.0)
        else:
            # doubles that are not binary64 prove nothing
            monkeypatch.setattr(svg, "sys", SimpleNamespace(float_info=SimpleNamespace(mant_dig=24)))
        assert scan_svg(q, grid) == expected
        assert set(evaluated) == set(range(99))

    def test_proved_points_lie_above_the_least_root(self):
        # with sample 5's root taken as the least, the samples before it
        # lie below it, at the steep first end, and must stay unproved
        _, py, _, ph = _PLOT
        q = quad(75, 40, 51, 68)
        grid = scan_grid(q, 99, 12)
        roots = grid.roots(range(99))
        lo_r = roots[5]
        span = max(roots) - lo_r
        assert all(r < lo_r for r in roots[:5])
        units = svg._proved_units(grid, lo_r, span)
        proved = [i for i, n in enumerate(units) if n is not None]
        assert len(proved) > 90
        for i in proved:
            assert roots[i] > lo_r
            y = py + ph - Fraction((roots[i] - lo_r) * ph, span)
            assert units[i] == floor(100 * y + Fraction(1, 2))

    @pytest.mark.parametrize("sides", [(75, 40, 51, 68), (81, 39, 54, 65)], ids=["first", "last"])
    def test_either_end_can_hold_the_least_root(self, evaluated, sides):
        q = quad(*sides)
        grid = scan_grid(q, 999, 12)
        roots = grid.roots((0, 998))
        assert (roots[0] < roots[1]) == (sides[0] == 75)
        expected = reference_scan_svg(q, exact_result(grid, 999))
        evaluated.clear()
        assert scan_svg(q, grid) == expected
        assert len(evaluated) <= 16

    def test_overflowing_p_takes_every_exact_root(self, evaluated):
        q = quad(*SIDES_80)
        grid = scan_grid(q, 999, 12)
        with pytest.raises(OverflowError):
            float((grid.k1 - grid.x0**2) * grid.x0**2 - grid.m1**2)
        expected = reference_scan_svg(q, exact_result(grid, 999))
        evaluated.clear()
        assert scan_svg(q, grid) == expected
        assert set(evaluated) == set(range(999))

    def test_flat_scan_draws_at_mid_height(self):
        # dx == 0: every sample is the first, so every root is equal
        q = quad(75, 40, 51, 68)
        grid = scan_grid(q, 9, 12)._replace(dx=0)
        text = scan_svg(q, grid)
        assert text == reference_scan_svg(q, exact_result(grid, 9))
        assert svg_curve(text).count(",250.00") == 9

    def test_interior_root_below_both_ends_moves_every_point(self, monkeypatch):
        class Dipped(ScanGrid):
            """Sample 1's root sits below both ends' roots."""

            __slots__ = ()

            def roots(self, indices):
                return [r - (10**30 if i == 1 else 0) for i, r in zip(indices, super().roots(indices))]

        q = quad(75, 40, 51, 68)
        grid = Dipped(*scan_grid(q, 99, 12))
        result = exact_result(grid, 99)
        assert result.roots[1] < min(result.roots[0], result.roots[-1])
        # doubles would prove sample 1 where its true root puts it
        monkeypatch.setattr(svg, "_ROUNDING", 1.0)
        assert scan_svg(q, grid) == reference_scan_svg(q, result)

    def test_cli_svg_scan_skips_the_full_kernel(self, monkeypatch, capsys, evaluated):
        def forbidden(*args, **kwargs):
            raise AssertionError("an SVG scan must not evaluate every sample")

        monkeypatch.setattr(oracle, "area_scan", forbidden)
        assert cli.main(["--format", "svg", "scan", "75", "40", "51", "68"]) == 0
        captured = capsys.readouterr()
        golden = Path(__file__).resolve().parent / "data" / "cli" / "scan_steps999.svg"
        assert captured.out == golden.read_text() and captured.err == ""
        assert len(evaluated) <= 16
