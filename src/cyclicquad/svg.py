"""Static SVG figures for the diagonal scan: area-versus-diagonal curve
plus embedded snapshots of the hinged quadrilateral at the smallest,
area-maximizing and largest sampled diagonals.  All coordinates are
rendered from exact rationals, so output is byte-identical across runs."""

from __future__ import annotations

from fractions import Fraction

from .exactnum import approx, fixed_point
from .mensuration import DiagQuad, QuadSides
from .oracle import ScanResult, embed

VIEW_W = 1000
VIEW_H = 700

_PLOT = (70, 40, 610, 420)  # x, y, width, height of the curve region
_SNAP_Y = 520
_SNAP_W = 300
_SNAP_H = 160


def _fmt(value: Fraction) -> str:
    return fixed_point(value, 2)


def _map(value: Fraction, lo: Fraction, hi: Fraction, out_lo: int, out_len: int) -> Fraction:
    if hi == lo:
        return Fraction(out_lo) + Fraction(out_len, 2)
    return out_lo + (value - lo) * out_len / (hi - lo)


def _snapshot(dq: DiagQuad, digits: int, x0: int, label: str) -> list[str]:
    e = embed(dq, digits)
    xs = [x for x, _ in e.points]
    ys = [y for _, y in e.points]
    lo_x, hi_x = min(xs), max(xs)
    lo_y, hi_y = min(ys), max(ys)
    span = max(hi_x - lo_x, hi_y - lo_y, Fraction(1))
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
    sides = dq.sides.sides
    for i in range(4):
        ax, ay = pts[i]
        bx, by = pts[(i + 1) % 4]
        mx, my = (ax + bx) / 2, (ay + by) / 2
        parts.append(
            f'<text x="{_fmt(mx)}" y="{_fmt(my)}" font-size="12">{_fmt(approx(sides[i], 12))}</text>'
        )
    parts.append(
        f'<text x="{x0 + 4}" y="{_SNAP_Y + _SNAP_H + 18}" font-size="13">{label}</text>'
    )
    return parts


def scan_svg(q: QuadSides, result: ScanResult, digits: int) -> str:
    px, py, pw, ph = _PLOT
    diags = [s[0] for s in result.samples]
    areas = [s[1] for s in result.samples]
    lo_d, hi_d = diags[0], diags[-1]
    lo_a, hi_a = min(areas), max(areas)
    curve = " ".join(
        f"{_fmt(_map(d, lo_d, hi_d, px, pw))},{_fmt(py + ph - (_map(a, lo_a, hi_a, 0, ph)))}"
        for d, a in zip(diags, areas)
    )
    body: list[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {VIEW_W} {VIEW_H}">',
        f'<rect x="{px}" y="{py}" width="{pw}" height="{ph}" fill="none" stroke="black" stroke-width="2"/>',
        f'<polyline points="{curve}" fill="none" stroke="black" stroke-width="2"/>',
        f'<text x="{px}" y="{py + ph + 22}" font-size="13">diagonal {_fmt(lo_d)} to {_fmt(hi_d)}</text>',
        f'<text x="{px}" y="{py - 12}" font-size="13">area {_fmt(lo_a)} to {_fmt(hi_a)}</text>',
        f'<text x="{px + pw + 16}" y="{py + 16}" font-size="13">max area {_fmt(result.max_area)}</text>',
        f'<text x="{px + pw + 16}" y="{py + 36}" font-size="13">at diagonal {_fmt(result.argmax_diagonal)}</text>',
    ]
    snapshots = [
        (result.samples[0][0], 20, "smallest sampled diagonal"),
        (result.argmax_diagonal, 20 + _SNAP_W + 30, "area-maximizing diagonal"),
        (result.samples[-1][0], 20 + 2 * (_SNAP_W + 30), "largest sampled diagonal"),
    ]
    for diag, x0, label in snapshots:
        body.extend(_snapshot(DiagQuad(q, diag), digits, x0, label))
    body.append("</svg>")
    return "\n".join(body) + "\n"
