"""Independent verification by coordinate embedding: lay the diagonal on
the x-axis and place the two off-diagonal vertices by the
perpendicular-foot split (`abadha_split`), every coordinate exact, a
Fraction or a Surd.  The shoelace rule then gives the area exactly, and
the in-circle determinant decides concyclicity exactly, with no division
and no square root.  A renderer approximates a coordinate only where it
draws it.  Also hosts the diagonal scan that demonstrates the
indeterminacy of a quadrilateral's area when only the four sides are
fixed.  The scan does not embed: `scan_grid` builds one integer
`ScanGrid`, which carries its sample count and alone computes a sample's
diagonal, its triangles' radicands P and its area root, over shared
denominators with relative error below 2/F for F = 10**(digits + guard
digits).  Every reader takes its samples from it: `area_scan` evaluates
all of them (`ScanResult`), `ScanGrid.peak` the first maximum alone (it
bisects the unimodal area and certifies a window around the peak),
`ScanGrid.vertices` a sample's four vertices, so that a drawing never
embeds or factors, and `svg._proved_units` the curve points it proves from
doubles of the P values.  The embedding is the scan's oracle in the tests."""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from fractions import Fraction
from math import isqrt

from .exactnum import (
    DEFAULT_DIGITS,
    GUARD_DIGITS,
    Exact,
    IncompatibleRadicands,
    Units,
    approx,
    integer_units,
)
from .mensuration import DiagQuad, GeometryError, QuadSides, abadha_split


class DegenerateCollinear(GeometryError):
    """The three points meant to define a circle are collinear."""


def embed(dq: DiagQuad) -> tuple:
    """The four vertices as exact (x, y) points: vertex 0 at the origin,
    vertex 2 on the positive x-axis at the diagonal's length, the apex of
    the (a, b) triangle strictly above the axis and the apex of the (c, d)
    triangle strictly below (convex position)."""
    t1, t2 = dq.triangles
    x1, _, y1 = abadha_split(t1)
    _, x2, y2 = abadha_split(t2)
    zero = Fraction(0)
    return (zero, zero), (x1, y1), (dq.diagonal, zero), (x2, -y2)


def shoelace_area(points) -> Exact:
    """Polygon area by the shoelace rule, exact."""
    total = Fraction(0)
    for (x1, y1), (x2, y2) in zip(points, points[1:] + points[:1]):
        total += x1 * y2 - x2 * y1
    return abs(total) / 2


def concyclic(points) -> bool:
    """True iff the four points lie on one circle, by the in-circle
    determinant (Guibas and Stolfi, ACM Trans. Graph. 4, 1985): with the
    first point moved to the origin and the others at (xi, yi), they are
    concyclic iff det[xi, yi, xi^2 + yi^2] == 0.  Exact, with no division
    and no square root.  Raises DegenerateCollinear when the first three
    points are collinear, so that no circle passes through them."""
    (x0, y0), *rest = points
    rows = []
    for x, y in rest:
        dx, dy = x - x0, y - y0
        rows.append((dx, dy, dx * dx + dy * dy))
    (x1, y1, w1), (x2, y2, w2), (x3, y3, w3) = rows
    if x1 * y2 - y1 * x2 == 0:
        raise DegenerateCollinear("the first three points are collinear")
    det = x1 * (y2 * w3 - w2 * y3) - y1 * (x2 * w3 - w2 * x3) + w1 * (x2 * y3 - y2 * x3)
    return det == 0


def concyclic_exact(dq: DiagQuad) -> bool:
    """Exact concyclicity of the convex embedding: the angles B between a
    and b and D between c and d, both facing the diagonal x, must sum to pi,
    so cos B == -cos D.  By the law of cosines that is
    (a^2 + b^2 - x^2) * c * d == -(c^2 + d^2 - x^2) * a * b, one exact
    comparison with no square root.  It is homogeneous of degree 4, so it is
    made on the sides and diagonal in one unit."""
    return concyclic_exact_in_units(integer_units((*dq.sides, dq.diagonal)))


def concyclic_exact_in_units(units: Units) -> bool:
    (a, b, c, d, x), _ = units
    diag_sq = x * x
    return (a * a + b * b - diag_sq) * c * d == -((c * c + d * d - diag_sq) * a * b)


def diagonal_range(q: QuadSides):
    """Open interval of diagonals that hinge the (a,b)/(c,d) split into a
    genuine quadrilateral: (max(|a-b|, |c-d|), min(a+b, c+d))."""
    a, b, c, d = q
    return max(abs(a - b), abs(c - d)), min(a + b, c + d)


class ScanGrid(namedtuple("ScanGrid", "den x0 dx k1 m1 k2 m2 scale steps")):
    """The integer grid of a diagonal scan, built by `scan_grid`: `steps`
    samples, sample i at scaled diagonal X = x0 + i*dx over `den`, each
    triangle's P = (k - X^2) * X^2 - m^2, and area root(i)/area_den floored
    at F = `scale`.  Only `diagonals` computes X, only `radicands` P, and
    only `roots` the roots."""

    __slots__ = ()

    def diagonals(self, indices):
        """The scaled diagonals X at `indices`: a range of X for a range."""
        x0, dx = self.x0, self.dx
        if type(indices) is range and dx:
            return range(x0 + indices.start * dx, x0 + indices.stop * dx, indices.step * dx)
        return [x0 + i * dx for i in indices]

    def radicands(self, indices) -> tuple[list, list]:
        """(P1, P2): each triangle's P at the samples at `indices`."""
        k1, c1, k2, c2 = self.k1, self.m1 * self.m1, self.k2, self.m2 * self.m2
        p1, p2 = [], []
        for x in self.diagonals(indices):
            xx = x * x
            p1.append((k1 - xx) * xx - c1)
            p2.append((k2 - xx) * xx - c2)
        return p1, p2

    def roots(self, indices) -> list:
        """The integer area numerators of the samples at `indices`."""
        scale_sq = self.scale * self.scale
        p1, p2 = self.radicands(indices)
        return [isqrt(u * scale_sq) + isqrt(v * scale_sq) for u, v in zip(p1, p2)]

    def known_roots(self, known: dict, indices) -> list:
        """The roots at `indices`: from `known`, index to root, or else
        taken in one `roots` call and added to it."""
        missing = [i for i in indices if i not in known]
        known.update(zip(missing, self.roots(missing)))
        return [known[i] for i in indices]

    @property
    def area_den(self) -> int:
        return 4 * self.den * self.den * self.scale

    def vertices(self, i: int) -> tuple[int, tuple]:
        """Sample i's four `embed` vertices as integer points over one
        denominator, 2*den*X*F for F = `scale`: a segment (X^2 + m)/(2*den*X)
        exactly, a height sqrt(P)/(2*den*X) as the floor isqrt(P*F^2)."""
        [x] = self.diagonals((i,))
        [p1], [p2] = self.radicands((i,))
        xx, scale = x * x, self.scale
        return 2 * self.den * x * scale, (
            (0, 0),
            (scale * (xx + self.m1), isqrt(p1 * scale * scale)),
            (2 * scale * xx, 0),
            (scale * (xx - self.m2), -isqrt(p2 * scale * scale)),
        )

    def peak(self, known: dict | None = None) -> int:
        """The first maximum of `roots(range(steps))`, at a cost that does
        not depend on `steps`: it evaluates a window around the exact peak,
        never the whole grid, and adds the roots it takes to `known`.

        With X the squared diagonal, each triangle's P(X) = (k - X)X - c is a
        concave quadratic, so sqrt(P) is concave in X and the area
        sqrt(P1) + sqrt(P2) is strictly concave in X.  X grows along the
        grid, so the area is strictly unimodal in the sample index.

        Peak: d(area)/dX has the sign of D1*sqrt(P2) + D2*sqrt(P1) with
        D = k - 2X, decided on integers by the signs of D1 and D2 or, where
        they differ, by D1^2 * P2 against D2^2 * P1.  Bisection finds the
        first sample j past the peak, and m is the first maximum of the
        roots on the window [j-2, j+1].

        Certificate: each root is below the exact value S it floors by less
        than 2 units.  Take a window end w that is not a grid end, with
        root(m) >= root(w) + 2.  Then S[m] > S[w], so by unimodality every
        sample i beyond w has S[i] <= S[w] < root(m), and its root is below
        root(m).  When this holds at both ends, m is the first maximum.  It
        rests on unimodality and the 2-unit bound alone, not on the
        bisection; when it fails, the window doubles and is checked again.
        Each root is taken once and kept, so memory grows with the window;
        only a grid flatter than 2 units around its peak widens it."""
        last = self.steps - 1
        known = {} if known is None else known
        xs = self.diagonals(range(self.steps))

        def falling(i: int) -> bool:
            # whether the area falls from sample i on: the sign of
            # d1*sqrt(v) + d2*sqrt(u)
            xx = xs[i] ** 2
            d1, d2 = self.k1 - 2 * xx, self.k2 - 2 * xx
            if d1 * d2 >= 0:
                return d1 + d2 < 0
            [u], [v] = self.radicands((i,))
            return d1 * (d1 * d1 * v - d2 * d2 * u) < 0

        j = bisect_left(range(self.steps), True, key=falling)
        lo, hi = max(j - 2, 0), min(j + 1, last)
        while True:
            window = range(lo, hi + 1)
            self.known_roots(known, window)
            m = max(window, key=known.__getitem__)
            bound = known[m] - 2
            if (lo == 0 or known[lo] <= bound) and (hi == last or known[hi] <= bound):
                return m
            width = hi - lo + 1
            lo, hi = max(lo - width, 0), min(hi + width, last)


def scan_grid(q: QuadSides, steps: int, digits: int = DEFAULT_DIGITS) -> ScanGrid:
    """`steps` equally spaced samples strictly inside `diagonal_range(q)`.
    The ends are approximated to `digits` places, and to twice as many
    until lower < first sample < last sample < upper holds by exact
    comparison.  Rational ends are exact and pass at once; irrational ones
    pass once the approximations are close enough, so the loop ends."""
    if steps < 3:
        raise ValueError("steps must be >= 3")
    squares = [s * s for s in q]
    if not all(isinstance(v, Fraction) for v in squares):
        raise IncompatibleRadicands("the scan needs sides with rational squares")
    lower, upper = diagonal_range(q)
    places = digits
    while True:
        lo, hi = approx(lower, places), approx(upper, places)
        step = (hi - lo) / (steps + 1)
        if lower < lo + step < hi - step < upper:
            break
        places *= 2
    (sa, sb, sc, sd, x_lo, dx), den = integer_units((*squares, lo, step))
    return ScanGrid(
        den=den,
        x0=x_lo + dx,
        dx=dx,
        k1=2 * (sa + sb) * den,
        m1=(sa - sb) * den,
        k2=2 * (sc + sd) * den,
        m2=(sc - sd) * den,
        scale=10 ** (digits + GUARD_DIGITS),
        steps=steps,
    )


class ScanResult(namedtuple("ScanResult", "grid roots argmax")):
    """A whole diagonal scan: `roots` holds root(i) of `grid` for every
    sample, and `argmax` is the index of the first maximum.  `samples` gives
    the (diagonal, area) pairs as Fractions, built on each read; no renderer
    reads it."""

    __slots__ = ()

    @property
    def samples(self) -> tuple[tuple[Fraction, Fraction], ...]:
        den, area_den, steps = self.grid.den, self.grid.area_den, self.grid.steps
        pairs = zip(self.grid.diagonals(range(steps)), self.roots)
        return tuple((Fraction(x, den), Fraction(r, area_den)) for x, r in pairs)


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
    Every sample lies strictly inside the feasible interval (`scan_grid`),
    where both strict triangle inequalities hold, so every P is a positive
    integer, sqrt(P) >= 1 and each floor root is off by less than one
    unit in sqrt(P)*F >= F: the relative error of every sample is below
    2/F at any scale.  The argmax is taken on the integers, first maximum
    winning.  `embed`/`shoelace_area` stay the independent oracle."""
    grid = scan_grid(q, steps, digits)
    roots = grid.roots(range(grid.steps))
    return ScanResult(grid, tuple(roots), max(range(grid.steps), key=roots.__getitem__))
