"""Area, diagonal and perpendicular formulas for triangles, trapezia,
rhombuses and quadrilaterals, over exact scalar arithmetic.

The quadrilateral rules implemented here are the gross rule (product of the
half-sums of opposite sides), the square-root rule
sqrt((s-a)(s-b)(s-c)(s-d)) which is exact only for cyclic quadrilaterals,
Heron's rule for triangles, the perpendicular-foot (abadha) split, and the
cyclic diagonal formulas tied to Ptolemy's theorem.
"""

from __future__ import annotations

from collections import namedtuple
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


def _remake(cls, iterable):
    """`_make` for a checked tuple, and so `_replace` too: build through the
    constructor, which coerces and checks, and not as a bare tuple."""
    return cls(*iterable)


def _frozen(self, name, *value):
    raise AttributeError(f"{type(self).__name__} is immutable")


class Triangle(namedtuple("Triangle", "a b c")):
    """A triangle with sides a, b, c: a tuple, checked when it is made, so
    it equals and hashes as the tuple (a, b, c)."""

    __slots__ = ()

    def __new__(cls, a: int | Exact, b: int | Exact, c: int | Exact) -> Triangle:
        self = tuple.__new__(cls, (to_exact(a), to_exact(b), to_exact(c)))
        # the checks are looked up on the class at each construction, here
        # and in every figure below, so a wrapper set on the class (a
        # tracer, a test's counter) sees each one
        self.__post_init__()
        return self

    _make = classmethod(_remake)

    def __post_init__(self):
        sides = list(self)
        if not all(s > 0 for s in sides):
            raise InvalidTriangle(f"sides must be positive: {sides}")
        for i in range(3):
            if not sides[i] < sides[(i + 1) % 3] + sides[(i + 2) % 3]:
                raise InvalidTriangle(
                    f"triangle inequality fails: {sides[i]} >= sum of the others"
                )

    @property
    def sides(self) -> tuple[Exact, Exact, Exact]:
        return tuple(self)


class QuadSides(namedtuple("QuadSides", "sides")):
    """Four side lengths in cyclic order (a, b, c, d), as the one field
    `sides`."""

    __slots__ = ()

    def __new__(cls, sides) -> QuadSides:
        self = tuple.__new__(cls, (tuple(to_exact(s) for s in sides),))
        self.__post_init__()
        return self

    _make = classmethod(_remake)

    def __post_init__(self):
        sides = self.sides
        if len(sides) != 4:
            raise InvalidQuad("exactly four sides required")
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


class DiagQuad(namedtuple("DiagQuad", "sides diagonal")):
    """A quadrilateral with one diagonal fixed.  The diagonal always joins
    the vertex between sides d and a to the vertex between sides b and c,
    splitting the figure into `triangles`, Triangle(a, b, diagonal) and
    Triangle(c, d, diagonal), each validated once here; rotate the side
    order for any other split.  `triangles` lives in the instance dict, out
    of the tuple, so equality, hash and repr see only (sides, diagonal)."""

    def __new__(cls, sides: QuadSides, diagonal: int | Exact) -> DiagQuad:
        self = tuple.__new__(cls, (sides, to_exact(diagonal)))
        self.__post_init__()
        return self

    _make = classmethod(_remake)
    __setattr__ = __delattr__ = _frozen

    def __post_init__(self):
        a, b, c, d = self.sides.sides
        diagonal = self.diagonal
        # Triangle raises InvalidTriangle for a nonpositive diagonal too
        vars(self)["triangles"] = (Triangle(a, b, diagonal), Triangle(c, d, diagonal))

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, which rebuilds
        # the triangles, rather than carry them as instance state
        return type(self), tuple(self)


class Trapezium(namedtuple("Trapezium", "base face legs height")):
    """Trapezium with parallel base and face, base the longer one."""

    __slots__ = ()

    def __new__(cls, base, face, legs, height) -> Trapezium:
        self = tuple.__new__(cls, (
            to_exact(base), to_exact(face), tuple(to_exact(v) for v in legs), to_exact(height)
        ))
        self.__post_init__()
        return self

    _make = classmethod(_remake)

    def __post_init__(self):
        values = (self.base, self.face, *self.legs, self.height)
        if not all(v > 0 for v in values):
            raise InvalidTrapezium(f"all lengths must be positive: {values}")
        # face == base is the parallelogram limit, still measurable
        if self.face > self.base:
            raise InvalidTrapezium("face must not exceed the base")
        if any(self.height > leg for leg in self.legs):
            raise InvalidTrapezium("height exceeds a leg")


class Rhombus(namedtuple("Rhombus", "side d1")):
    """Rhombus with side `side` and one diagonal `d1`."""

    __slots__ = ()

    def __new__(cls, side: int | Exact, d1: int | Exact) -> Rhombus:
        self = tuple.__new__(cls, (to_exact(side), to_exact(d1)))
        self.__post_init__()
        return self

    _make = classmethod(_remake)

    def __post_init__(self):
        if not (self.side > 0 and self.d1 > 0):
            raise DegenerateRhombus("side and diagonal must be positive")
        if not self.d1 < 2 * self.side:
            raise DegenerateRhombus(
                f"diagonal {self.d1} must be strictly less than twice the side"
            )


class MensurationReport(namedtuple("MensurationReport", "split_area perpendiculars")):
    """The split area of a DiagQuad and the perpendiculars onto its
    diagonal."""

    __slots__ = ()


class DiagonalPair(namedtuple("DiagonalPair", "p q")):
    """The two diagonals of the cyclic configuration: p joins the vertex
    between d,a to the vertex between b,c; q joins the other two."""

    __slots__ = ()


def semiperimeter(sides) -> Exact:
    return sum(sides, Fraction(0)) / 2


def gross_area(q: QuadSides) -> Exact:
    """The gross rule: product of the half-sums of opposite sides."""
    a, b, c, d = q.sides
    return (a + c) / 2 * ((b + d) / 2)


def sutra_area(q: QuadSides) -> Exact:
    """The square-root rule sqrt((s-a)(s-b)(s-c)(s-d)).  Evaluated
    unconditionally, as the classical texts state it; it equals the true
    area only when the quadrilateral is cyclic.  The four factors go to
    ``Surd.sqrt`` as they are, so for rational sides each is factored on
    its own, at the size of a side, and never their product."""
    a, b, c, d = q.sides
    s = semiperimeter(q.sides)
    return Surd.sqrt(s - a, s - b, s - c, s - d)


def heron_area(t: Triangle) -> Exact:
    """Triangle area sqrt(s(s-a)(s-b)(s-c)) = sqrt(16T**2)/4 with
    16T**2 = (a+b+c)(b+c-a)(a-b+c)(a+b-c).  For rational sides
    ``Surd.sqrt`` factors each of the four factors on its own, at the size
    of a side, rather than their product; a surd side makes it multiply the
    factors out, which is exact whatever the sides are."""
    a, b, c = t.sides
    return Surd.sqrt(a + b + c, b + c - a, a - b + c, a + b - c) / 4


def trapezium_area(t: Trapezium) -> Exact:
    """Half the sum of base and face, times the height."""
    return (t.base + t.face) / 2 * t.height


def rhombus_second_diagonal(r: Rhombus) -> Exact:
    """d2 = sqrt(4 a**2 - d1**2) = sqrt((2a - d1)(2a + d1))."""
    return Surd.sqrt(2 * r.side - r.d1, 2 * r.side + r.d1)


def rhombus_area(r: Rhombus) -> Exact:
    """Half the product of the diagonals."""
    return r.d1 * rhombus_second_diagonal(r) / 2


def abadha_split(t: Triangle) -> tuple[Exact, Exact, Exact]:
    """Foot-of-perpendicular split of side c: returns the two segments of c
    (the first adjacent to side a) and the height onto c,
    sqrt((a - segment)(a + segment))."""
    segment_a = (t.c * t.c + t.a * t.a - t.b * t.b) / (2 * t.c)
    height = Surd.sqrt(t.a - segment_a, t.a + segment_a)
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
        p=Surd.sqrt(ac_bd, ad_bc, 1 / ab_cd), q=Surd.sqrt(ac_bd, ab_cd, 1 / ad_bc)
    )


def ptolemy_check(q: QuadSides, d: DiagonalPair) -> bool:
    """Exact Ptolemy equality: p*q == ac + bd."""
    a, b, c, d_side = q.sides
    return d.p * d.q == a * c + b * d_side


def triangle_circumradius(t: Triangle) -> Exact:
    """Circumradius abc / (4 * area); standard plumbing for the
    concyclicity oracle."""
    return t.a * t.b * t.c / (4 * heron_area(t))
