"""Figure constructions: rhombus from a Pythagorean triple, the classical
integer cyclic quadrilateral glued from a pair of scaled right triangles,
and the diagonal-reflection sibling operation."""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .mensuration import (
    DiagQuad,
    GeometryError,
    QuadSides,
    Rhombus,
    cyclic_diagonal_pair,
    ptolemy_check,
    quad,
)
from .triples import PythTriple


class PtolemyViolation(GeometryError):
    """A constructed quadrilateral fails Ptolemy's equality, so it is not
    the cyclic figure the construction promises."""


class CyclicQuadConstruction(
    namedtuple("CyclicQuadConstruction", "source sides glue_diagonal circumdiameter diagonals")
):
    """Result of gluing two scaled right triangles along a common
    hypotenuse.  The glue diagonal is a circumdiameter: both triangles are
    right triangles standing on it.  `diagonals` is the cyclic diagonal
    pair of `sides`, the one checked against Ptolemy's equality."""

    __slots__ = ()

    def as_diag_quad(self) -> DiagQuad:
        """The construction as a DiagQuad split along the glue diagonal
        (side order rotated so the split convention matches)."""
        a, b, c, d = self.sides.sides
        return DiagQuad(quad(b, c, d, a), self.glue_diagonal)


def rhombus_from_triple(t: PythTriple) -> Rhombus:
    """Four copies of the right triangle, joined at the right angles: a
    rhombus with side n and diagonals 2l, 2m (area 2*l*m)."""
    return Rhombus(side=Fraction(t.n), d1=Fraction(2 * t.l))


def brahmagupta_quad(t1: PythTriple, t2: PythTriple) -> CyclicQuadConstruction:
    """Integer cyclic quadrilateral from two Pythagorean triples: scale the
    first by n2 and the second by n1, then glue the two right triangles
    along the common hypotenuse n1*n2.  Canonical cyclic side order is
    (l1*n2, l2*n1, m2*n1, m1*n2); the glue diagonal joins the two vertices
    not shared by adjacent canonical sides."""
    sides = quad(t1.l * t2.n, t2.l * t1.n, t2.m * t1.n, t1.m * t2.n)
    glue = Fraction(t1.n * t2.n)
    diagonals = cyclic_diagonal_pair(sides)
    if not ptolemy_check(sides, diagonals):
        text = ", ".join(str(s) for s in sides.sides)
        raise PtolemyViolation(f"glued sides {text} fail Ptolemy's equality")
    return CyclicQuadConstruction(
        source=(t1, t2), sides=sides, glue_diagonal=glue, circumdiameter=glue,
        diagonals=diagonals,
    )


def reflect_swap(dq: DiagQuad, which: str) -> DiagQuad:
    """Reflect one of the two triangles, `which` is "first_triangle" or
    "second_triangle", in the perpendicular bisector of the diagonal: its
    two non-diagonal sides exchange places.  The diagonal and the side
    multiset are unchanged; applying it twice is the identity."""
    a, b, c, d = dq.sides.sides
    if which == "first_triangle":
        new_sides = (b, a, c, d)
    elif which == "second_triangle":
        new_sides = (a, b, d, c)
    else:
        raise ValueError(f"unknown triangle selector: {which!r}")
    return DiagQuad(QuadSides(new_sides), dq.diagonal)
