"""Static SVG figures for the diagonal scan: area-versus-diagonal curve
plus snapshots of the hinged quadrilateral at the smallest,
area-maximizing and largest sampled diagonals.  All three are drawn from
the scan's `ScanGrid`: the curve from the scan's roots, and each snapshot
from `ScanGrid.vertices`, the sample's exact segments and floored heights
over one denominator, so drawing never embeds, never factors and never
rebuilds the grid.  Every coordinate
and label is printed from an integer ratio, so output is byte-identical
across runs."""

from __future__ import annotations

from .exactnum import approx, fixed_ratio, fixed_ratios, render_ratio
from .oracle import ScanResult

VIEW_W = 1000
VIEW_H = 700

_PLOT = (70, 40, 610, 420)  # x, y, width, height of the curve region
_SNAP_Y = 520
_SNAP_W = 300
_SNAP_H = 160


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


def scan_svg(q: tuple, result: ScanResult) -> str:
    """The curve places sample i of n at x = px + i*pw/(n - 1) and its area
    r/area_den at y = py + ph - (r - r_min)*ph/(r_max - r_min), exact
    integer ratios; a zero area range places every sample at mid-height.
    The snapshots are samples 0, argmax and n - 1, read off
    `result.grid.vertices`."""
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
    body: list[str] = [
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
