"""Area, diagonal and perpendicular formulas for triangles, trapezia,
rhombuses and quadrilaterals, over exact scalar arithmetic.

The quadrilateral rules implemented here are the gross rule (product of the
half-sums of opposite sides), the square-root rule
sqrt((s-a)(s-b)(s-c)(s-d)) which is exact only for cyclic quadrilaterals,
Heron's rule for triangles, the perpendicular-foot (abadha) split, and the
cyclic diagonal formulas tied to Ptolemy's theorem.

Every rule and every figure's check is homogeneous in the lengths, so each
brings its lengths to one unit first, as the Lilavati brings fractional
measures to one denominator: ``integer_units`` gives integer numerators
A, B, ... over 1/u, the rule runs on them, and ``ratio`` builds the one
result, a value of degree d in the lengths over u**d.  A Surd length
scales to a Surd with integer coefficients and takes the same code.  The
ints never leave a rule: figures hold, and rules return, Fractions and
Surds.  The integer forms, with S = A + B + C (+ D) the scaled perimeter:

- checks (degree 1): the signs of A, B, ... and the strict inequalities
  between them, such as A < B + C, compared as they are;
- semiperimeter S/(2u) (degree 1), gross area (A + C)(B + D)/(4u**2)
  and trapezium area (B + F)H/(2u**2) on base, face and height (degree 2);
- root rule: sqrt of the product of S - 2A, S - 2B, S - 2C, S - 2D over
  4u**2, or, when S is even, of the halved factors S/2 - A, ... over u**2
  (degree 2);
- Heron: sqrt((A + B + C)(B + C - A)(A - B + C)(A + B - C))/(4u**2)
  (degree 2), the four factors F1 ... F4 below;
- abadha split: segments (C**2 + A**2 - B**2)/(2Cu) and
  (C**2 + B**2 - A**2)/(2Cu), height sqrt(F1 F2 F3 F4)/(2Cu) (degree 1);
- rhombus: d2 = sqrt((2A - D)(2A + D))/u (degree 1) and, from the same
  root, the area D sqrt((2A - D)(2A + D))/(2u**2) (degree 2);
- cyclic diagonals: with P = AC + BD, Q = AD + BC and R = AB + CD,
  p = sqrt(PQR)/(Ru) and q = sqrt(PQR)/(Qu) (degree 1);
- Ptolemy's check pq == ac + bd on the sides and diagonals in one unit
  (degree 2), and the circumradius ABC/(u sqrt(F1 F2 F3 F4)) (degree 1).

A figure is measured once.  Each figure's ``measured`` constructor gives
the checked figure with the ``integer_units`` of its lengths, the ones its
check ran on, and a rule's ``*_in_units`` form runs on those: a caller
that applies several rules to one figure, as each CLI command does, brings
its lengths to one unit once.  The rule itself, such as ``sutra_area(q)``,
measures its figure and calls that form.
"""

from __future__ import annotations

from collections import namedtuple

from .exactnum import Exact, Surd, Units, integer_units, ratio, to_exact


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


class Triangle(namedtuple("Triangle", "a b c")):
    """A triangle with sides a, b, c: a tuple, checked when it is made, so
    it equals and hashes as the tuple (a, b, c)."""

    __slots__ = ()

    def __new__(cls, a: int | Exact, b: int | Exact, c: int | Exact) -> Triangle:
        return cls.measured(a, b, c)[0]

    @classmethod
    def measured(cls, a: int | Exact, b: int | Exact, c: int | Exact) -> tuple[Triangle, Units]:
        """The checked triangle and its sides in one unit, from the one
        ``integer_units`` call that its check and its rules share."""
        self = tuple.__new__(cls, (to_exact(a), to_exact(b), to_exact(c)))
        units = integer_units(self)
        # the checks are looked up on the class at each construction, here
        # and in every figure below, so a wrapper set on the class (a
        # tracer, a test's counter) sees each one
        self.__post_init__(units)
        return self, units

    _make = classmethod(_remake)

    def __post_init__(self, units: Units):
        # on the sides in one unit; a message names the sides as given
        (a, b, c), _ = units
        if not (a > 0 and b > 0 and c > 0):
            raise InvalidTriangle(f"sides must be positive: {list(self)}")
        for given, side, others in ((self.a, a, b + c), (self.b, b, c + a), (self.c, c, a + b)):
            if not side < others:
                raise InvalidTriangle(
                    f"triangle inequality fails: {given} >= sum of the others"
                )


class QuadSides(namedtuple("QuadSides", "a b c d")):
    """Four side lengths in cyclic order: a tuple (a, b, c, d), checked when
    it is made, so it equals and hashes as that plain tuple."""

    __slots__ = ()

    def __new__(cls, a: int | Exact, b: int | Exact, c: int | Exact, d: int | Exact) -> QuadSides:
        return cls.measured(a, b, c, d)[0]

    @classmethod
    def measured(
        cls, a: int | Exact, b: int | Exact, c: int | Exact, d: int | Exact
    ) -> tuple[QuadSides, Units]:
        """The checked sides and their values in one unit, from the one
        ``integer_units`` call that the check and the rules share."""
        self = tuple.__new__(cls, (to_exact(a), to_exact(b), to_exact(c), to_exact(d)))
        units = integer_units(self)
        self.__post_init__(units)
        return self, units

    _make = classmethod(_remake)

    def __post_init__(self, units: Units):
        sides, _ = units
        a, b, c, d = sides
        if not (a > 0 and b > 0 and c > 0 and d > 0):
            raise InvalidQuad(f"sides must be positive: {tuple(self)}")
        total = a + b + c + d
        for given, side in zip(self, sides):
            if not 2 * side < total:
                raise InvalidQuad(
                    f"closure fails: side {given} >= sum of the other three"
                )


quad = QuadSides


class DiagQuad(namedtuple("DiagQuad", "sides diagonal")):
    """A quadrilateral with one diagonal fixed.  The diagonal always joins
    the vertex between sides d and a to the vertex between sides b and c,
    splitting the figure into `triangles`, Triangle(a, b, diagonal) and
    Triangle(c, d, diagonal), each validated once here; rotate the side
    order for any other split."""

    __slots__ = ()

    def __new__(cls, sides: QuadSides, diagonal: int | Exact) -> DiagQuad:
        return cls.measured(sides, diagonal)[0]

    @classmethod
    def measured(cls, sides: QuadSides, diagonal: int | Exact) -> tuple[DiagQuad, Units]:
        """The checked figure and its sides and diagonal, (a, b, c, d, x),
        in one unit, from the one ``integer_units`` call that the checks of
        both triangles and the rules share."""
        if not isinstance(sides, QuadSides):
            raise TypeError(f"sides must be a QuadSides, not {type(sides).__name__}")
        self = tuple.__new__(cls, (sides, to_exact(diagonal)))
        units = integer_units((*sides, self.diagonal))
        self.__post_init__(units)
        return self, units

    _make = classmethod(_remake)

    def __post_init__(self, units: Units):
        (a, b, c, d, x), unit = units
        first, second = self.triangles
        # Triangle's check raises InvalidTriangle for a nonpositive
        # diagonal too
        first.__post_init__(((a, b, x), unit))
        second.__post_init__(((c, d, x), unit))

    @property
    def triangles(self) -> tuple[Triangle, Triangle]:
        # both are checked when the DiagQuad is made, so they are built as
        # tuples without checking them again
        a, b, c, d = self.sides
        new, x = tuple.__new__, self.diagonal
        return new(Triangle, (a, b, x)), new(Triangle, (c, d, x))


class Trapezium(namedtuple("Trapezium", "base face legs height")):
    """Trapezium with parallel base and face, base the longer one."""

    __slots__ = ()

    def __new__(cls, base, face, legs, height) -> Trapezium:
        self = tuple.__new__(cls, (
            to_exact(base), to_exact(face), tuple(to_exact(v) for v in legs), to_exact(height)
        ))
        self.__post_init__(integer_units((self.base, self.face, *self.legs, self.height)))
        return self

    _make = classmethod(_remake)

    def __post_init__(self, units: Units):
        scaled, _ = units
        if not all(v > 0 for v in scaled):
            values = (self.base, self.face, *self.legs, self.height)
            raise InvalidTrapezium(f"all lengths must be positive: {values}")
        base, face, *legs, height = scaled
        # face == base is the parallelogram limit, still measurable
        if face > base:
            raise InvalidTrapezium("face must not exceed the base")
        if any(height > leg for leg in legs):
            raise InvalidTrapezium("height exceeds a leg")


class Rhombus(namedtuple("Rhombus", "side d1")):
    """Rhombus with side `side` and one diagonal `d1`."""

    __slots__ = ()

    def __new__(cls, side: int | Exact, d1: int | Exact) -> Rhombus:
        return cls.measured(side, d1)[0]

    @classmethod
    def measured(cls, side: int | Exact, d1: int | Exact) -> tuple[Rhombus, Units]:
        """The checked rhombus and its side and diagonal in one unit, from
        the one ``integer_units`` call that the check and the rules share."""
        self = tuple.__new__(cls, (to_exact(side), to_exact(d1)))
        units = integer_units(self)
        self.__post_init__(units)
        return self, units

    _make = classmethod(_remake)

    def __post_init__(self, units: Units):
        (side, d1), _ = units
        if not (side > 0 and d1 > 0):
            raise DegenerateRhombus("side and diagonal must be positive")
        if not d1 < 2 * side:
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
    """Half the perimeter, S/(2u): degree 1."""
    return semiperimeter_in_units(integer_units(sides))


def semiperimeter_in_units(units: Units) -> Exact:
    scaled, unit = units
    return ratio(sum(scaled), 2 * unit)


def gross_area(q: QuadSides) -> Exact:
    """The gross rule: product of the half-sums of opposite sides,
    (A + C)(B + D)/(4u**2), degree 2."""
    return gross_area_in_units(integer_units(q))


def gross_area_in_units(units: Units) -> Exact:
    (a, b, c, d), unit = units
    return ratio((a + c) * (b + d), 4 * unit * unit)


def sutra_area(q: QuadSides) -> Exact:
    """The square-root rule sqrt((s-a)(s-b)(s-c)(s-d)).  Evaluated
    unconditionally, as the classical texts state it; it equals the true
    area only when the quadrilateral is cyclic.  Degree 2: s - a is
    (S - 2A)/(2u), and when S is even, (S/2 - A)/u.  Both are (H - kA)/(ku)
    for S/2 = H/k in lowest terms, k = 1 or 2, and the area is the root of
    the four factors H - kA, ... over (ku)**2.  The factors go to
    ``Surd.sqrt`` as they are, so each is factored on its own, at the size
    of a side, and never their product."""
    return sutra_area_in_units(integer_units(q))


def sutra_area_in_units(units: Units) -> Exact:
    (a, b, c, d), unit = units
    total = a + b + c + d
    # S/2 = half/k in lowest terms
    if type(total) is int:
        half, k = (total // 2, 1) if total % 2 == 0 else (total, 2)
    else:
        # a Surd's: over the lcm of its halved coefficients' denominators
        (half,), k = integer_units((ratio(total, 2),))
    root = Surd.sqrt(half - k * a, half - k * b, half - k * c, half - k * d)
    return ratio(root, (k * unit) ** 2)


def _heron_root(a, b, c) -> Exact:
    """sqrt(F1 F2 F3 F4) = 4T for the triangle of sides a, b, c, on
    Heron's four factors."""
    return Surd.sqrt(a + b + c, b + c - a, a - b + c, a + b - c)


def heron_area(t: Triangle) -> Exact:
    """Triangle area sqrt(s(s-a)(s-b)(s-c)) = sqrt(16T**2)/4 with
    16T**2 = (a+b+c)(b+c-a)(a-b+c)(a+b-c): sqrt(F1 F2 F3 F4)/(4u**2) on the
    integer factors A + B + C, B + C - A, A - B + C and A + B - C, degree 2.
    ``Surd.sqrt`` factors each of the four factors on its own, at the size
    of a side, rather than their product; a surd side makes it multiply the
    factors out, which is exact whatever the sides are."""
    return heron_area_in_units(integer_units(t))


def heron_area_in_units(units: Units) -> Exact:
    (a, b, c), unit = units
    return ratio(_heron_root(a, b, c), 4 * unit * unit)


def trapezium_area(t: Trapezium) -> Exact:
    """Half the sum of base and face, times the height: (B + F)H/(2u**2),
    degree 2."""
    (base, face, height), unit = integer_units((t.base, t.face, t.height))
    return ratio((base + face) * height, 2 * unit * unit)


def rhombus_second_diagonal(r: Rhombus) -> Exact:
    """d2 = sqrt(4 a**2 - d1**2) = sqrt((2A - D)(2A + D))/u, degree 1."""
    return rhombus_in_units(integer_units(r))[0]


def rhombus_area(r: Rhombus) -> Exact:
    """Half the product of the diagonals, D sqrt((2A - D)(2A + D))/(2u**2),
    degree 2."""
    return rhombus_in_units(integer_units(r))[1]


def rhombus_in_units(units: Units) -> tuple[Exact, Exact]:
    """(second diagonal, area) of a rhombus, from the one root that both
    take."""
    (side, d1), unit = units
    root = Surd.sqrt(2 * side - d1, 2 * side + d1)
    return ratio(root, unit), ratio(d1 * root, 2 * unit * unit)


def abadha_split(t: Triangle) -> tuple[Exact, Exact, Exact]:
    """Foot-of-perpendicular split of side c: returns the two segments of c
    (the first adjacent to side a) and the height onto c,
    sqrt((a - segment)(a + segment)) = 2T/c.  Degree 1: the segments are
    (C**2 + A**2 - B**2)/(2Cu) and (C**2 + B**2 - A**2)/(2Cu), and the
    height sqrt(F1 F2 F3 F4)/(2Cu) on Heron's four integer factors."""
    (a, b, c), unit = integer_units(t)
    aa, bb, cc = a * a, b * b, c * c
    den = 2 * c * unit
    return ratio(cc + aa - bb, den), ratio(cc + bb - aa, den), ratio(_heron_root(a, b, c), den)


def area_by_diagonal(dq: DiagQuad) -> MensurationReport:
    """Split the quadrilateral along its diagonal, apply Heron to both
    triangles and report the summed area plus the perpendiculars from the
    off-diagonal vertices onto the diagonal, 2*T/x.  On the sides and the
    diagonal in one unit, each triangle's root R = 4Tu**2 gives its area
    R/(4u**2) and its perpendicular R/(2uX).  When the two triangle areas
    are incommensurable surds the split area is their two-term sum.
    """
    return area_by_diagonal_in_units(integer_units((*dq.sides, dq.diagonal)))


def area_by_diagonal_in_units(units: Units) -> MensurationReport:
    (a, b, c, d, x), unit = units
    first, second = _heron_root(a, b, x), _heron_root(c, d, x)
    height = 2 * unit * x
    return MensurationReport(
        split_area=ratio(first + second, 4 * unit * unit),
        perpendiculars=(ratio(first, height), ratio(second, height)),
    )


def cyclic_diagonal_pair(q: QuadSides) -> DiagonalPair:
    """Diagonals of the cyclic configuration with the given side order:
    p = sqrt((ac+bd)(ad+bc)/(ab+cd)), q = sqrt((ac+bd)(ab+cd)/(ad+bc)).
    Stated unconditionally in the classical sources; valid only for the
    cyclic configuration.  Degree 1: with P = AC + BD, Q = AD + BC and
    R = AB + CD, p = sqrt(PQR)/(Ru) and q = sqrt(PQR)/(Qu).  One root is
    taken, of the three factors each split once."""
    return cyclic_diagonal_pair_in_units(integer_units(q))


def cyclic_diagonal_pair_in_units(units: Units) -> DiagonalPair:
    (a, b, c, d), unit = units
    ab_cd = a * b + c * d
    ad_bc = a * d + b * c
    root = Surd.sqrt(a * c + b * d, ad_bc, ab_cd)
    return DiagonalPair(p=ratio(root, ab_cd * unit), q=ratio(root, ad_bc * unit))


def ptolemy_check(q: QuadSides, d: DiagonalPair) -> bool:
    """Exact Ptolemy equality: p*q == ac + bd, on the sides and diagonals
    in one unit (degree 2)."""
    (a, b, c, d_side, p, q_diag), _ = integer_units((*q, *d))
    return p * q_diag == a * c + b * d_side


def triangle_circumradius(t: Triangle) -> Exact:
    """Circumradius abc / (4 * area) = ABC/(u sqrt(F1 F2 F3 F4)) on Heron's
    four integer factors, degree 1.  The manifest's quad77-circumradii
    entry reads it, to show both diagonal triangles of the 77-split on one
    circle."""
    (a, b, c), unit = integer_units(t)
    return ratio(a * b * c, unit * _heron_root(a, b, c))
