"""Static SVG figures for the diagonal scan: area-versus-diagonal curve
plus embedded snapshots of the hinged quadrilateral at the smallest,
area-maximizing and largest sampled diagonals.  A snapshot approximates
each exact vertex coordinate to `digits` places only to draw it, and all
coordinates are rendered from rationals, so output is byte-identical
across runs."""

from __future__ import annotations

from fractions import Fraction

from .exactnum import approx, fixed_ratio, fixed_ratios, render_decimal
from .mensuration import DiagQuad, QuadSides
from .oracle import ScanResult, embed

VIEW_W = 1000
VIEW_H = 700

_PLOT = (70, 40, 610, 420)  # x, y, width, height of the curve region
_SNAP_Y = 520
_SNAP_W = 300
_SNAP_H = 160


def _fmt(value: Fraction) -> str:
    return fixed_ratio(value.numerator, value.denominator, 2)


def _label(value: Fraction) -> str:
    """A length or area as text: two places from 0.1 up, three significant
    digits below it (render_decimal counts the leading "0." as one), so a
    small figure's labels do not read 0.00."""
    if 10 * value < 1:
        return render_decimal(value, 4)
    return _fmt(value)


def _snapshot(dq: DiagQuad, digits: int, x0: int, label: str) -> list[str]:
    points = embed(dq)
    xs = [approx(x, digits) for x, _ in points]
    ys = [approx(y, digits) for _, y in points]
    lo_x, hi_x = min(xs), max(xs)
    lo_y, hi_y = min(ys), max(ys)
    span = max(hi_x - lo_x, hi_y - lo_y)
    pad = 16
    scale = Fraction(min(_SNAP_W, _SNAP_H) - 2 * pad) / span
    pts = []
    for px, py in zip(xs, ys):
        sx = x0 + pad + (px - lo_x) * scale
        sy = _SNAP_Y + _SNAP_H - pad - (py - lo_y) * scale
        pts.append((sx, sy))
    point_text = " ".join(f"{_fmt(px)},{_fmt(py)}" for px, py in pts)
    parts = [
        f'<polygon points="{point_text}" fill="none" stroke="black" stroke-width="2"/>'
    ]
    sides = dq.sides
    for i in range(4):
        ax, ay = pts[i]
        bx, by = pts[(i + 1) % 4]
        mx, my = (ax + bx) / 2, (ay + by) / 2
        parts.append(
            f'<text x="{_fmt(mx)}" y="{_fmt(my)}" font-size="12">{_label(approx(sides[i], 12))}</text>'
        )
    parts.append(
        f'<text x="{x0 + 4}" y="{_SNAP_Y + _SNAP_H + 18}" font-size="13">{label}</text>'
    )
    return parts


def scan_svg(q: QuadSides, result: ScanResult, digits: int) -> str:
    """The curve places sample i of n at x = px + i*pw/(n - 1) and its area
    r/area_den at y = py + ph - (r - r_min)*ph/(r_max - r_min), exact
    integer ratios; a zero range places every sample at the middle."""
    px, py, pw, ph = _PLOT
    den, x0, dx, roots, area_den = result.den, result.x0, result.dx, result.roots, result.area_den
    last = len(roots) - 1
    lo_r, hi_r = min(roots), max(roots)
    if dx:
        xs = fixed_ratios(range(px * last, px * last + (last + 1) * pw, pw), last, 2)
    else:
        xs = [fixed_ratio(2 * px + pw, 2, 2)] * (last + 1)
    if hi_r > lo_r:
        span = hi_r - lo_r
        top = (py + ph) * span + lo_r * ph
        ys = fixed_ratios([top - r * ph for r in roots], span, 2)
    else:
        ys = [fixed_ratio(2 * py + ph, 2, 2)] * (last + 1)
    curve = " ".join(map(",".join, zip(xs, ys)))
    lo_d, hi_d = Fraction(x0, den), Fraction(x0 + last * dx, den)
    lo_a, hi_a = Fraction(lo_r, area_den), Fraction(hi_r, area_den)
    body: list[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {VIEW_W} {VIEW_H}">',
        f'<rect x="{px}" y="{py}" width="{pw}" height="{ph}" fill="none" stroke="black" stroke-width="2"/>',
        f'<polyline points="{curve}" fill="none" stroke="black" stroke-width="2"/>',
        f'<text x="{px}" y="{py + ph + 22}" font-size="13">diagonal {_label(lo_d)} to {_label(hi_d)}</text>',
        f'<text x="{px}" y="{py - 12}" font-size="13">area {_label(lo_a)} to {_label(hi_a)}</text>',
        f'<text x="{px + pw + 16}" y="{py + 16}" font-size="13">max area {_label(result.max_area)}</text>',
        f'<text x="{px + pw + 16}" y="{py + 36}" font-size="13">at diagonal {_label(result.argmax_diagonal)}</text>',
    ]
    snapshots = [
        (lo_d, 20, "smallest sampled diagonal"),
        (result.argmax_diagonal, 20 + _SNAP_W + 30, "area-maximizing diagonal"),
        (hi_d, 20 + 2 * (_SNAP_W + 30), "largest sampled diagonal"),
    ]
    for diag, left, label in snapshots:
        body.extend(_snapshot(DiagQuad(q, diag), digits, left, label))
    body.append("</svg>")
    return "\n".join(body) + "\n"
