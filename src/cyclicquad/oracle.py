"""Independent verification by coordinate embedding: lay the diagonal on
the x-axis, place the two off-diagonal vertices via the perpendicular-foot
split, then measure with the shoelace rule and a circumcenter equidistance
test.  An `Embedding` holds its points as plain Fraction coordinates, each
the `precision`-digit approximation of an exact one, and the shoelace
area is a plain Fraction; a report renders it as a decimal only where it
prints it.  Also hosts the diagonal scan that demonstrates the
indeterminacy of a quadrilateral's area when only the four sides are
fixed.  The scan does not embed: it evaluates each sample's closed-form
area on integers scaled to a shared denominator, with relative error below
2/F for F = 10**(digits + guard digits), and returns those integers
(`ScanResult`), so a renderer prints a sample from its numerator and
denominator.  The embedding serves as its independent oracle in the
tests."""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from fractions import Fraction
from math import isqrt, lcm

from .exactnum import (
    DEFAULT_DIGITS,
    GUARD_DIGITS,
    IncompatibleRadicands,
    approx,
    sqrt_fraction,
)
from .mensuration import (
    DiagQuad,
    GeometryError,
    InvalidTriangle,
    QuadSides,
    Triangle,
    _frozen,
    abadha_split,
)

Point = tuple[Fraction, Fraction]


class DegenerateCollinear(GeometryError):
    """The three points meant to define a circle are (nearly) collinear."""


class Embedding(namedtuple("Embedding", "points precision")):
    """Planar realization of a figure as rational points, each coordinate
    the `precision`-digit approximation of an exact one."""

    __slots__ = ()


def embed(dq: DiagQuad, digits: int = DEFAULT_DIGITS) -> Embedding:
    """Vertex 0 at the origin, vertex 2 on the positive x-axis at the
    diagonal's length, the apex of the (a, b) triangle strictly above the
    axis and the apex of the (c, d) triangle strictly below (convex
    position)."""
    t1, t2 = dq.triangles
    seg1, _, h1 = abadha_split(t1)
    _, seg2, h2 = abadha_split(t2)
    diag, x1, y1, x2, y2 = (approx(v, digits) for v in (dq.diagonal, seg1, h1, seg2, h2))
    zero = Fraction(0)
    return Embedding(((zero, zero), (x1, y1), (diag, zero), (x2, -y2)), digits)


def embed_triangle(t: Triangle, digits: int = DEFAULT_DIGITS) -> Embedding:
    """Planar realization of a triangle with side c on the x-axis."""
    seg, _, h = abadha_split(t)
    c, x, y = (approx(v, digits) for v in (t.c, seg, h))
    zero = Fraction(0)
    return Embedding(((zero, zero), (c, zero), (x, y)), digits)


def shoelace_area(e: Embedding) -> Fraction:
    """Polygon area by the shoelace rule, at the embedding's precision."""
    points = e.points
    total = Fraction(0)
    for (x1, y1), (x2, y2) in zip(points, points[1:] + points[:1]):
        total += x1 * y2 - x2 * y1
    return abs(total) / 2


def _circumcenter(p0: Point, p1: Point, p2: Point) -> tuple[Fraction, Fraction]:
    (x0, y0), (x1, y1), (x2, y2) = p0, p1, p2
    ax, ay = 2 * (x1 - x0), 2 * (y1 - y0)
    bx, by = 2 * (x2 - x0), 2 * (y2 - y0)
    ra = x1 * x1 + y1 * y1 - x0 * x0 - y0 * y0
    rb = x2 * x2 + y2 * y2 - x0 * x0 - y0 * y0
    det = ax * by - ay * bx
    if det == 0:
        raise DegenerateCollinear("circumcenter undefined for collinear points")
    cx = (ra * by - rb * ay) / det
    cy = (ax * rb - bx * ra) / det
    return cx, cy


def concyclic(e: Embedding, tolerance=None) -> bool:
    """True iff all four embedded points are equidistant, within tolerance,
    from the circumcenter of the first three.  The default tolerance is
    scale-relative, span * 10**-precision: the embedding carries `precision`
    significant digits plus guard digits, so a cyclic figure passes and a
    visibly non-cyclic one fails at every scale."""
    digits = e.precision
    (x0, y0), (x1, y1), (x2, y2), _ = e.points
    span = max(abs(x) + abs(y) for x, y in e.points)
    tolerance = span / 10**digits if tolerance is None else Fraction(tolerance)
    # collinearity guard on the first three points, scale-relative
    cross = (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0)
    if span > 0 and abs(cross) <= tolerance * span * span:
        raise DegenerateCollinear("first three points are collinear within tolerance")
    cx, cy = _circumcenter(*e.points[:3])
    radii = [
        sqrt_fraction((x - cx) ** 2 + (y - cy) ** 2, digits + GUARD_DIGITS)
        for x, y in e.points
    ]
    return max(radii) - min(radii) < tolerance


def concyclic_exact(dq: DiagQuad) -> bool:
    """Exact concyclicity of the convex embedding: the angles B between a
    and b and D between c and d, both facing the diagonal x, must sum to pi,
    so cos B == -cos D.  By the law of cosines that is
    (a^2 + b^2 - x^2) * c * d == -(c^2 + d^2 - x^2) * a * b, one exact
    comparison with no square root."""
    a, b, c, d = dq.sides.sides
    diag_sq = dq.diagonal * dq.diagonal
    return (a * a + b * b - diag_sq) * c * d == -((c * c + d * d - diag_sq) * a * b)


def diagonal_range(q: QuadSides):
    """Open interval of diagonals that hinge the (a,b)/(c,d) split into a
    genuine quadrilateral: (max(|a-b|, |c-d|), min(a+b, c+d))."""
    a, b, c, d = q.sides
    return max(abs(a - b), abs(c - d)), min(a + b, c + d)


class ScanResult(namedtuple("ScanResult", "den x0 dx roots area_den argmax")):
    """A diagonal scan on integers: sample i, for 0 <= i < len(roots), has
    diagonal (x0 + i*dx)/den and area roots[i]/area_den, and `argmax` is the
    index of the first maximum.  `samples`, `argmax_diagonal` and `max_area`
    give the same values as Fractions; `samples` is built on first read and
    kept in the instance dict, out of the tuple."""

    __setattr__ = __delattr__ = _frozen

    def __reduce__(self):
        # copy and pickle carry the integers only, not the cached samples
        return type(self), tuple(self)

    @cached_property
    def samples(self) -> tuple[tuple[Fraction, Fraction], ...]:
        x0, dx, den, area_den = self.x0, self.dx, self.den, self.area_den
        return tuple(
            (Fraction(x0 + i * dx, den), Fraction(r, area_den))
            for i, r in enumerate(self.roots)
        )

    @property
    def argmax_diagonal(self) -> Fraction:
        return Fraction(self.x0 + self.argmax * self.dx, self.den)

    @property
    def max_area(self) -> Fraction:
        return Fraction(self.roots[self.argmax], self.area_den)


def area_scan(q: QuadSides, steps: int, digits: int = DEFAULT_DIGITS) -> ScanResult:
    """Sample the feasible diagonal interval at `steps` interior grid
    points and measure each hinged configuration.  The family realizes the
    classical indeterminacy argument: same four sides, many diagonals, many
    areas.

    Closed form: a triangle with sides s, t and diagonal x has
    16T^2 = 2(s^2 + t^2)x^2 - x^4 - (s^2 - t^2)^2, so the sample's area is
    (sqrt(X1) + sqrt(X2))/4 for the two triangles' 16T^2 values.  Only the
    squared sides enter, so single-term surd sides scan as well as rational
    ones; a side whose square is irrational (a sum of surds such as
    1 + sqrt(2)) raises IncompatibleRadicands.

    Integer scaling: the squared sides and the grid share one denominator
    Q (`den` below), so P = Q^4 * 16T^2 is an exact integer per triangle
    and the area is (r1 + r2) / (4 Q^2 F) with r = isqrt(P F^2),
    F = 10**(digits + guard).
    P <= 0 means the strict triangle inequality fails, raised as
    InvalidTriangle like DiagQuad does.  Every valid P is a positive
    integer, so sqrt(P) >= 1 and each floor root is off by less than one
    unit in sqrt(P)*F >= F: the relative error of every sample is below
    2/F at any scale.  The argmax is taken on the integers, first maximum
    winning.  `embed`/`shoelace_area` stay the independent oracle."""
    if steps < 3:
        raise ValueError("steps must be >= 3")
    lower, upper = diagonal_range(q)
    lo = approx(lower, digits)
    hi = approx(upper, digits)
    step = (hi - lo) / (steps + 1)
    squares = [s * s for s in q.sides]
    if not all(isinstance(v, Fraction) for v in squares):
        raise IncompatibleRadicands("the scan needs sides with rational squares")
    den = lcm(lo.denominator, step.denominator, *(v.denominator for v in squares))
    sa, sb, sc, sd = (v.numerator * (den // v.denominator) for v in squares)
    dx = step.numerator * (den // step.denominator)
    x0 = lo.numerator * (den // lo.denominator) + dx
    # per triangle: P = k * X^2 - X^4 - c for the scaled diagonal X
    k1, c1 = 2 * (sa + sb) * den, (sa - sb) ** 2 * den * den
    k2, c2 = 2 * (sc + sd) * den, (sc - sd) ** 2 * den * den
    scale = 10 ** (digits + GUARD_DIGITS)
    scale_sq = scale * scale
    roots = []
    for i in range(steps):
        xx = (x0 + i * dx) ** 2
        x4 = xx * xx
        p1 = k1 * xx - x4 - c1
        p2 = k2 * xx - x4 - c2
        if p1 <= 0 or p2 <= 0:
            raise InvalidTriangle(
                f"grid diagonal {Fraction(x0 + i * dx, den)} leaves no triangle "
                f"with sides {', '.join(str(s) for s in q.sides)}"
            )
        roots.append(isqrt(p1 * scale_sq) + isqrt(p2 * scale_sq))
    return ScanResult(
        den=den,
        x0=x0,
        dx=dx,
        roots=tuple(roots),
        area_den=4 * den * den * scale,
        argmax=max(range(steps), key=roots.__getitem__),
    )
