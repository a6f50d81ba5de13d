"""Area, diagonal and perpendicular formulas for triangles, trapezia,
rhombuses and quadrilaterals, over exact scalar arithmetic.

The quadrilateral rules implemented here are the gross rule (product of the
half-sums of opposite sides), the square-root rule
sqrt((s-a)(s-b)(s-c)(s-d)) which is exact only for cyclic quadrilaterals,
Heron's rule for triangles, the perpendicular-foot (abadha) split, and the
cyclic diagonal formulas tied to Ptolemy's theorem.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .exactnum import Exact, Surd, to_exact


class GeometryError(ValueError):
    """A figure violates one of its defining constraints."""


class InvalidTriangle(GeometryError):
    pass


class InvalidQuad(GeometryError):
    pass


class InvalidTrapezium(GeometryError):
    pass


class DegenerateRhombus(GeometryError):
    pass


@dataclass(frozen=True)
class Triangle:
    a: Exact
    b: Exact
    c: Exact

    def __post_init__(self):
        sides = [to_exact(self.a), to_exact(self.b), to_exact(self.c)]
        object.__setattr__(self, "a", sides[0])
        object.__setattr__(self, "b", sides[1])
        object.__setattr__(self, "c", sides[2])
        if not all(s > 0 for s in sides):
            raise InvalidTriangle(f"sides must be positive: {sides}")
        for i in range(3):
            if not sides[i] < sides[(i + 1) % 3] + sides[(i + 2) % 3]:
                raise InvalidTriangle(
                    f"triangle inequality fails: {sides[i]} >= sum of the others"
                )

    @property
    def sides(self) -> tuple[Exact, Exact, Exact]:
        return (self.a, self.b, self.c)


@dataclass(frozen=True)
class QuadSides:
    """Four side lengths in cyclic order (a, b, c, d)."""

    sides: tuple[Exact, Exact, Exact, Exact]

    def __post_init__(self):
        if len(self.sides) != 4:
            raise InvalidQuad("exactly four sides required")
        sides = tuple(to_exact(s) for s in self.sides)
        object.__setattr__(self, "sides", sides)
        if not all(s > 0 for s in sides):
            raise InvalidQuad(f"sides must be positive: {sides}")
        total = sum(sides)
        for side in sides:
            if not 2 * side < total:
                raise InvalidQuad(
                    f"closure fails: side {side} >= sum of the other three"
                )


def quad(a: int | Exact, b: int | Exact, c: int | Exact, d: int | Exact) -> QuadSides:
    return QuadSides((a, b, c, d))


@dataclass(frozen=True)
class DiagQuad:
    """A quadrilateral with one diagonal fixed.  The diagonal always joins
    the vertex between sides d and a to the vertex between sides b and c,
    splitting the figure into `triangles`, Triangle(a, b, diagonal) and
    Triangle(c, d, diagonal), each validated once here; rotate the side
    order for any other split."""

    sides: QuadSides
    diagonal: Exact
    triangles: tuple[Triangle, Triangle] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        diagonal = to_exact(self.diagonal)
        a, b, c, d = self.sides.sides
        # Triangle raises InvalidTriangle for a nonpositive diagonal too
        triangles = (Triangle(a, b, diagonal), Triangle(c, d, diagonal))
        object.__setattr__(self, "diagonal", diagonal)
        object.__setattr__(self, "triangles", triangles)


@dataclass(frozen=True)
class Trapezium:
    """Trapezium with parallel base and face, base the longer one."""

    base: Exact
    face: Exact
    legs: tuple[Exact, Exact]
    height: Exact

    def __post_init__(self):
        object.__setattr__(self, "base", to_exact(self.base))
        object.__setattr__(self, "face", to_exact(self.face))
        object.__setattr__(self, "legs", tuple(to_exact(v) for v in self.legs))
        object.__setattr__(self, "height", to_exact(self.height))
        values = (self.base, self.face, *self.legs, self.height)
        if not all(v > 0 for v in values):
            raise InvalidTrapezium(f"all lengths must be positive: {values}")
        # face == base is the parallelogram limit, still measurable
        if self.face > self.base:
            raise InvalidTrapezium("face must not exceed the base")
        if any(self.height > leg for leg in self.legs):
            raise InvalidTrapezium("height exceeds a leg")


@dataclass(frozen=True)
class Rhombus:
    side: Exact
    d1: Exact

    def __post_init__(self):
        object.__setattr__(self, "side", to_exact(self.side))
        object.__setattr__(self, "d1", to_exact(self.d1))
        if not (self.side > 0 and self.d1 > 0):
            raise DegenerateRhombus("side and diagonal must be positive")
        if not self.d1 < 2 * self.side:
            raise DegenerateRhombus(
                f"diagonal {self.d1} must be strictly less than twice the side"
            )


@dataclass(frozen=True)
class MensurationReport:
    split_area: Exact
    perpendiculars: tuple[Exact, Exact]


@dataclass(frozen=True)
class DiagonalPair:
    """The two diagonals of the cyclic configuration: p joins the vertex
    between d,a to the vertex between b,c; q joins the other two."""

    p: Exact
    q: Exact


def semiperimeter(sides) -> Exact:
    return sum(sides, Fraction(0)) / 2


def gross_area(q: QuadSides) -> Exact:
    """The gross rule: product of the half-sums of opposite sides."""
    a, b, c, d = q.sides
    return (a + c) / 2 * ((b + d) / 2)


def sutra_area(q: QuadSides) -> Exact:
    """The square-root rule sqrt((s-a)(s-b)(s-c)(s-d)).  Evaluated
    unconditionally, as the classical texts state it; it equals the true
    area only when the quadrilateral is cyclic."""
    a, b, c, d = q.sides
    s = semiperimeter(q.sides)
    product = (s - a) * (s - b) * (s - c) * (s - d)
    return Surd.sqrt(product)


def heron_area(t: Triangle) -> Exact:
    """Triangle area sqrt(s(s-a)(s-b)(s-c)).  Computed from the equivalent
    polynomial in the squared sides, which stays exact even when a side is
    itself a surd (its square is rational)."""
    a2, b2, c2 = (s * s for s in t.sides)
    sixteen_t2 = 2 * (a2 * b2 + b2 * c2 + c2 * a2) - a2 * a2 - b2 * b2 - c2 * c2
    return Surd.sqrt(sixteen_t2) / 4


def trapezium_area(t: Trapezium) -> Exact:
    """Half the sum of base and face, times the height."""
    return (t.base + t.face) / 2 * t.height


def rhombus_second_diagonal(r: Rhombus) -> Exact:
    """d2 = sqrt(4 a**2 - d1**2)."""
    return Surd.sqrt(4 * r.side * r.side - r.d1 * r.d1)


def rhombus_area(r: Rhombus) -> Exact:
    """Half the product of the diagonals."""
    return r.d1 * rhombus_second_diagonal(r) / 2


def abadha_split(t: Triangle) -> tuple[Exact, Exact, Exact]:
    """Foot-of-perpendicular split of side c: returns the two segments of c
    (the first adjacent to side a) and the height onto c."""
    segment_a = (t.c * t.c + t.a * t.a - t.b * t.b) / (2 * t.c)
    height = Surd.sqrt(t.a * t.a - segment_a * segment_a)
    return segment_a, t.c - segment_a, height


def area_by_diagonal(dq: DiagQuad) -> MensurationReport:
    """Split the quadrilateral along its diagonal, apply Heron to both
    triangles and report the summed area plus the perpendiculars from the
    off-diagonal vertices onto the diagonal.  When the two triangle areas
    are incommensurable surds the split area is their two-term sum.
    """
    t1, t2 = split_triangle_areas(dq)
    return MensurationReport(
        split_area=t1 + t2,
        perpendiculars=(2 * t1 / dq.diagonal, 2 * t2 / dq.diagonal),
    )


def split_triangle_areas(dq: DiagQuad) -> tuple[Exact, Exact]:
    """The two Heron areas on either side of the diagonal, unsummed."""
    return tuple(heron_area(t) for t in dq.triangles)


def cyclic_diagonal_pair(q: QuadSides) -> DiagonalPair:
    """Diagonals of the cyclic configuration with the given side order:
    p = sqrt((ac+bd)(ad+bc)/(ab+cd)), q = sqrt((ac+bd)(ab+cd)/(ad+bc)).
    Stated unconditionally in the classical sources; valid only for the
    cyclic configuration."""
    a, b, c, d = q.sides
    ac_bd = a * c + b * d
    ad_bc = a * d + b * c
    ab_cd = a * b + c * d
    return DiagonalPair(
        p=Surd.sqrt(ac_bd * ad_bc / ab_cd), q=Surd.sqrt(ac_bd * ab_cd / ad_bc)
    )


def ptolemy_check(q: QuadSides, d: DiagonalPair) -> bool:
    """Exact Ptolemy equality: p*q == ac + bd."""
    a, b, c, d_side = q.sides
    return d.p * d.q == a * c + b * d_side


def triangle_circumradius(t: Triangle) -> Exact:
    """Circumradius abc / (4 * area); standard plumbing for the
    concyclicity oracle."""
    return t.a * t.b * t.c / (4 * heron_area(t))
