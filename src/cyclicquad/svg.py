"""Static SVG figures for the diagonal scan: area-versus-diagonal curve
plus snapshots of the hinged quadrilateral at the smallest,
area-maximizing and largest sampled diagonals.  All three are drawn from
the scan's `ScanGrid`, which `scan_svg` reads but never rebuilds.  The
snapshots come from `ScanGrid.vertices`, each sample's exact segments and
floored heights over one denominator, so drawing never embeds and never
factors.  The curve takes exact roots only at both ends and around the
peak: every other point is proved from doubles of the grid's
exact integers, with a stated error bound, to round to the pixel its
exact root gives, and a point the bound does not prove takes its exact
root.  Every coordinate and label is printed from an integer or an
integer ratio, so output is byte-identical across runs and platforms."""

from __future__ import annotations

import sys
from math import floor, sqrt
from operator import add

from .exactnum import approx, fixed_ratio, fixed_ratios, render_ratio
from .oracle import ScanGrid

VIEW_W = 1000
VIEW_H = 700

_PLOT = (70, 40, 610, 420)  # x, y, width, height of the curve region
_SNAP_Y = 520
_SNAP_W = 300
_SNAP_H = 160

# the double curve's error margin per unit of its magnitude M: 32u for
# u = 2**-53 (see `_proved_units`)
_ROUNDING = 2.0**-48


def _label(num: int, den: int) -> str:
    """A length or area num/den as text: two places from 0.1 up, three
    significant digits below it (render_ratio counts the leading "0." as
    one), so a small figure's labels do not read 0.00."""
    if 10 * num < den:
        return render_ratio(num, den, 4)
    return fixed_ratio(num, den, 2)


def _snapshot(vertices, sides: list[str], x0: int, label: str) -> list[str]:
    """The figure with integer `vertices`, over any one denominator (it
    cancels), scaled to fill a box whose left edge is x0: pixel coordinates
    are integer ratios over the figure's larger extent `span`."""
    xs = [x for x, _ in vertices]
    ys = [y for _, y in vertices]
    lo_x, lo_y = min(xs), min(ys)
    span = max(max(xs) - lo_x, max(ys) - lo_y)
    pad = 16
    fit = min(_SNAP_W, _SNAP_H) - 2 * pad
    left, bottom = x0 + pad, _SNAP_Y + _SNAP_H - pad
    sx = [left * span + (x - lo_x) * fit for x in xs]
    sy = [bottom * span - (y - lo_y) * fit for y in ys]
    point_text = " ".join(map(",".join, zip(fixed_ratios(sx, span, 2), fixed_ratios(sy, span, 2))))
    parts = [
        f'<polygon points="{point_text}" fill="none" stroke="black" stroke-width="2"/>'
    ]
    # side i runs from vertex i to vertex i + 1; its label sits at the middle
    mx = fixed_ratios([u + v for u, v in zip(sx, sx[1:] + sx[:1])], 2 * span, 2)
    my = fixed_ratios([u + v for u, v in zip(sy, sy[1:] + sy[:1])], 2 * span, 2)
    for x, y, side in zip(mx, my, sides):
        parts.append(f'<text x="{x}" y="{y}" font-size="12">{side}</text>')
    parts.append(
        f'<text x="{x0 + 4}" y="{_SNAP_Y + _SNAP_H + 18}" font-size="13">{label}</text>'
    )
    return parts


def _proved_units(grid: ScanGrid, lo_r: int, span: int) -> list:
    """Each sample's curve y in hundredths of a pixel where doubles prove
    it, else None.  With A = 100*(py + ph) and K = 100*ph/span, sample i is
    drawn at n = floor(v + 1/2), v = A + K*(lo_r - r), where its root
    r = floor(F*sqrt(P1)) + floor(F*sqrt(P2)) lies in (F*S - 2, F*S] for
    S = sqrt(P1) + sqrt(P2), so v lies in [Y, Y + 2K) for
    Y = A + K*(lo_r - F*S).

    Certificate (a floating-point filter; Shewchuk, Discrete Comput. Geom.
    18, 1997).  Every double operation here is correctly rounded, with
    relative error at most u = 2**-53: the conversion of each P, each sqrt,
    the quotients c = K*F, l = lo_r/F and g = 2K, and each sum and product.
    So s = sqrt(P1) + sqrt(P2) is within 2.5u*S of S, and the doubles
    low - c*s and high - c*s below are within 7u*M + 2u*E of
    Y + 1/2 - E and Y + 1/2 + E, where M = A + c*(max(s) + l) bounds every
    term and E is the margin.  E = 32u*M + g exceeds 2K + 7u*M + 2u*E, so
    v + 1/2 lies between the two doubles and their floors bound n.  When
    they agree, sample i is drawn at n; when also n < A, then v < A, so
    r > lo_r and lo_r stays the least root.  A sample that fails either
    test is left None, and so is every sample when a P or c is too large
    for a double, when the platform's doubles are not binary64, or when the
    scan is flat."""
    unproved = [None] * grid.steps
    if not span or sys.float_info.mant_dig != 53:
        return unproved
    _, py, _, ph = _PLOT
    top = 100 * (py + ph)
    p1, p2 = grid.radicands(range(grid.steps))
    try:
        sums = list(map(add, map(sqrt, p1), map(sqrt, p2)))
        c = 100 * ph * grid.scale / span
    except OverflowError:
        return unproved
    base = lo_r / grid.scale
    margin = _ROUNDING * (top + c * (max(sums) + base)) + 200 * ph / span
    if not margin < 0.5:
        return unproved
    # low - c*s and high - c*s are y + 1/2 - E and y + 1/2 + E for
    # y = top - c*(s - base)
    low = top + 0.5 + c * base - margin
    high = low + 2 * margin
    return [
        n if n == floor(high - c * s) < top else None for s in sums for n in [floor(low - c * s)]
    ]


def _curve_units(grid: ScanGrid) -> tuple[int, list[int], int, int]:
    """The first maximum, every sample's curve y in hundredths of a pixel,
    and the least and the largest root.  Exact roots are taken for the
    window `ScanGrid.peak` checks, for samples 0 and steps - 1, and for each
    sample `_proved_units` leaves unproved, each once; if one of those
    undercuts both ends, the least root moves, and so does every pixel, so
    every sample takes its exact root."""
    _, py, _, ph = _PLOT
    known: dict = {}
    argmax = grid.peak(known)
    r_first, r_peak, r_last = grid.known_roots(known, (0, argmax, grid.steps - 1))
    lo_r = min(r_first, r_last)
    units = _proved_units(grid, lo_r, r_peak - lo_r)
    grid.known_roots(known, [i for i, n in enumerate(units) if n is None])
    if min(known.values()) < lo_r:
        lo_r = min(grid.known_roots(known, range(grid.steps)))
    hi_r = known[argmax]
    span = hi_r - lo_r
    if not span:
        return argmax, [100 * py + 50 * ph] * grid.steps, lo_r, hi_r
    for i, r in known.items():
        units[i] = (200 * ((py + ph) * span + (lo_r - r) * ph) + span) // (2 * span)
    return argmax, units, lo_r, hi_r


def scan_svg(q: tuple, grid: ScanGrid) -> str:
    """The scan on `grid` (see `oracle.area_scan`).  The curve places
    sample i of n = `grid.steps` at x = px + i*pw/(n - 1) and its area
    r/area_den at y = py + ph - (r - r_min)*ph/(r_max - r_min), rounded to
    two places; a zero area range places every sample at mid-height.  The
    y column comes from `_curve_units`, which takes exact roots only where
    doubles do not prove the pixel.  The snapshots are samples 0, argmax
    and n - 1, read off `grid.vertices`."""
    px, py, pw, ph = _PLOT
    den, area_den, last = grid.den, grid.area_den, grid.steps - 1
    argmax, units, lo_r, hi_r = _curve_units(grid)
    first_x, peak_x, last_x = grid.diagonals((0, argmax, last))
    # x = px + i*pw/last in hundredths, rounded like `fixed_ratio`
    xs = [(200 * n + last) // (2 * last) for n in range(px * last, (px + pw) * last + pw, pw)]
    curve = " ".join(
        ["%d.%02d,%d.%02d" % (x // 100, x % 100, y // 100, y % 100) for x, y in zip(xs, units)]
    )
    body: list[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {VIEW_W} {VIEW_H}">',
        f'<rect x="{px}" y="{py}" width="{pw}" height="{ph}" fill="none" stroke="black" stroke-width="2"/>',
        f'<polyline points="{curve}" fill="none" stroke="black" stroke-width="2"/>',
        f'<text x="{px}" y="{py + ph + 22}" font-size="13">diagonal {_label(first_x, den)} to {_label(last_x, den)}</text>',
        f'<text x="{px}" y="{py - 12}" font-size="13">area {_label(lo_r, area_den)} to {_label(hi_r, area_den)}</text>',
        f'<text x="{px + pw + 16}" y="{py + 16}" font-size="13">max area {_label(hi_r, area_den)}</text>',
        f'<text x="{px + pw + 16}" y="{py + 36}" font-size="13">at diagonal {_label(peak_x, den)}</text>',
    ]
    sides = [_label(v.numerator, v.denominator) for v in (approx(s, 12) for s in q)]
    labels = ("smallest sampled diagonal", "area-maximizing diagonal", "largest sampled diagonal")
    for k, (i, label) in enumerate(zip((0, argmax, last), labels)):
        _, vertices = grid.vertices(i)
        body.extend(_snapshot(vertices, sides, 20 + k * (_SNAP_W + 30), label))
    body.append("</svg>")
    return "\n".join(body) + "\n"
