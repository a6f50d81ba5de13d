"""Figure constructions: rhombus from a Pythagorean triple, the classical
integer cyclic quadrilateral glued from a pair of scaled right triangles,
and the diagonal-reflection sibling operation."""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .mensuration import (
    DiagonalPair,
    DiagQuad,
    GeometryError,
    QuadSides,
    Rhombus,
    cyclic_diagonal_pair_in_units,
    ptolemy_check,
    quad,
)
from .triples import PythTriple


class PtolemyViolation(GeometryError):
    """A constructed quadrilateral fails Ptolemy's equality, so it is not
    the cyclic figure the construction promises."""


class CyclicQuadConstruction(
    namedtuple("CyclicQuadConstruction", "sides glue_diagonal diagonals")
):
    """Result of gluing two scaled right triangles along a common
    hypotenuse.  The glue diagonal is a circumdiameter: both triangles are
    right triangles standing on it.  `diagonals` is the cyclic diagonal
    pair of `sides`; its p and the glue diagonal are checked against
    Ptolemy's equality."""

    __slots__ = ()

    def as_diag_quad(self) -> DiagQuad:
        """The construction as a DiagQuad split along the glue diagonal
        (side order rotated so the split convention matches).  Its
        triangles are the two scaled right triangles on the glue diagonal,
        so it is built without checking them."""
        a, b, c, d = self.sides
        rotated = tuple.__new__(QuadSides, (b, c, d, a))
        return tuple.__new__(DiagQuad, (rotated, self.glue_diagonal))


def rhombus_from_triple(t: PythTriple) -> Rhombus:
    """Four copies of the right triangle, joined at the right angles: a
    rhombus with side n and diagonals 2l, 2m (area 2*l*m).  Every triple
    has 0 < 2l < 2n, so the rhombus is built without its check."""
    return tuple.__new__(Rhombus, (Fraction(t.n), Fraction(2 * t.l)))


def brahmagupta_quad(t1: PythTriple, t2: PythTriple) -> CyclicQuadConstruction:
    """Integer cyclic quadrilateral from two Pythagorean triples: scale the
    first by n2 and the second by n1, then glue the two right triangles
    along the common hypotenuse n1*n2.  Canonical cyclic side order is
    (l1*n2, l2*n1, m2*n1, m1*n2); the glue diagonal joins the two vertices
    not shared by adjacent canonical sides."""
    sides, units = QuadSides.measured(t1.l * t2.n, t2.l * t1.n, t2.m * t1.n, t1.m * t2.n)
    glue = Fraction(t1.n * t2.n)
    diagonals = cyclic_diagonal_pair_in_units(units)
    # the formulas' own p*q is ac + bd for any four sides, so p is paired
    # with the glue diagonal, which must be the cyclic q
    if not ptolemy_check(sides, DiagonalPair(diagonals.p, glue)):
        text = ", ".join(str(s) for s in sides)
        raise PtolemyViolation(f"glued sides {text} fail Ptolemy's equality")
    return CyclicQuadConstruction(sides=sides, glue_diagonal=glue, diagonals=diagonals)


def reflect_swap(dq: DiagQuad, which: str) -> DiagQuad:
    """Reflect one of the two triangles, `which` is "first_triangle" or
    "second_triangle", in the perpendicular bisector of the diagonal: its
    two non-diagonal sides exchange places.  The diagonal and the side
    multiset are unchanged; applying it twice is the identity."""
    a, b, c, d = dq.sides
    if which == "first_triangle":
        new_sides = quad(b, a, c, d)
    elif which == "second_triangle":
        new_sides = quad(a, b, d, c)
    else:
        raise ValueError(f"unknown triangle selector: {which!r}")
    return DiagQuad(new_sides, dq.diagonal)
