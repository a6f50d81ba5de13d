"""The reproduction manifest: every worked numeric example from the
classical sources that this package implements, evaluated live and checked
against its frozen expected value.  Embedded in code on purpose: the
manifest is the acceptance contract and is versioned with the formulas."""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .construct import brahmagupta_quad, rhombus_from_triple
from .exactnum import Surd
from .mensuration import (
    DiagQuad,
    DiagonalPair,
    Rhombus,
    Trapezium,
    area_by_diagonal,
    cyclic_diagonal_pair,
    gross_area,
    ptolemy_check,
    quad,
    rhombus_area,
    rhombus_second_diagonal,
    sutra_area,
    trapezium_area,
    triangle_circumradius,
)
from .oracle import concyclic, concyclic_exact, embed
from .triples import validate_triple


class ManifestEntry(
    namedtuple("ManifestEntry", "id description provenance expected computed status")
):
    """One worked example: its expected and computed values, and `status`
    "pass" when they are equal, else "fail"."""

    __slots__ = ()


def _entry(id: str, description: str, provenance: str, expected, computed) -> ManifestEntry:
    status = "pass" if expected == computed else "fail"
    return ManifestEntry(id, description, provenance, expected, computed, status)


def run_manifest() -> list[ManifestEntry]:
    trapezium = quad(14, 12, 9, 13)
    root, gross = sutra_area(trapezium), gross_area(trapezium)
    quad77 = DiagQuad(quad(75, 68, 51, 40), 77)
    split77 = area_by_diagonal(quad77)
    diagonal_pairs = [
        cyclic_diagonal_pair(quad(*order))
        for order in ((75, 68, 51, 40), (75, 51, 68, 40), (75, 68, 40, 51))
    ]
    rhombus_a = rhombus_from_triple(validate_triple(15, 20, 25))
    rhombus_b = rhombus_from_triple(validate_triple(7, 24, 25))
    construction = brahmagupta_quad(validate_triple(3, 4, 5), validate_triple(8, 15, 17))
    glued = construction.as_diag_quad()
    return [
        _entry(
            "trapezium-true-area",
            "trapezium base 14, face 9, sides 13 and 12: true area",
            "Lilavati 168 with autocommentary",
            Fraction(138),
            trapezium_area(Trapezium(base=14, face=9, legs=(13, 12), height=12)),
        ),
        _entry(
            "trapezium-root-rule",
            "root rule on the same four sides gives sqrt(19800) = 30*sqrt(22)",
            "Lilavati 168, autocommentary",
            Surd(30, 22),
            root,
        ),
        _entry(
            "trapezium-root-bracket",
            "sqrt(19800) lies strictly between the true area 138 and 141",
            "Lilavati 168, autocommentary ('a little less than 141')",
            True,
            138 < root < 141,
        ),
        _entry(
            "trapezium-gross-area",
            "gross rule on the same four sides",
            "Brahmasphutasiddhanta XII.21 (gross rule)",
            Fraction(575, 4),
            gross,
        ),
        _entry(
            "trapezium-gross-exceeds-root",
            "gross value strictly exceeds the root-rule value",
            "Brahmasphutasiddhanta XII.21",
            True,
            gross > root,
        ),
        _entry(
            "quad77-split-area",
            "sides 75/68/51/40 with assumed diagonal 77: area by triangle split",
            "Lilavati 178, autocommentary (diagonal assumed 77)",
            Fraction(3234),
            split77.split_area,
        ),
        _entry(
            "quad77-perpendiculars",
            "perpendiculars onto the assumed diagonal 77",
            "Lilavati 178, autocommentary (perpendicular computation)",
            [Fraction(60), Fraction(24)],
            list(split77.perpendiculars),
        ),
        _entry(
            "quad-root-rule-agreement",
            "root rule on sides 51/68/75/40 agrees with the split value 3234",
            "Lilavati 178 discussion",
            Fraction(3234),
            sutra_area(quad(51, 68, 75, 40)),
        ),
        _entry(
            "quad-ptolemy",
            "diagonals 85 and 77 satisfy Ptolemy's equality for 75/40/51/68",
            "Ptolemy's theorem (cyclicity witness)",
            True,
            ptolemy_check(quad(75, 40, 51, 68), DiagonalPair(Fraction(85), Fraction(77))),
        ),
        _entry(
            "quad-diagonal-trio",
            "cyclic diagonal values over the three side orderings of {51,68,75,40}",
            "Mahavira, Ganitasarasangraha VII.54 footnote formula",
            [Fraction(77), Fraction(84), Fraction(85)],
            sorted({d for pair in diagonal_pairs for d in (pair.p, pair.q)}),
        ),
        _entry(
            "quad77-circumradii",
            "both diagonal triangles of the 77-split share circumradius 42.5",
            "concyclicity of the 75/68/51/40 figure",
            [Fraction(85, 2), Fraction(85, 2)],
            [triangle_circumradius(t) for t in quad77.triangles],
        ),
        _entry(
            "rhombus-15-20-25",
            "rhombus from triple (15,20,25): second diagonal and area",
            "Lilavati 174-176 (rhombus family)",
            [Fraction(40), Fraction(600)],
            [rhombus_second_diagonal(rhombus_a), rhombus_area(rhombus_a)],
        ),
        _entry(
            "rhombus-7-24-25",
            "rhombus from triple (7,24,25): second diagonal and area",
            "Lilavati 174-176 (rhombus family)",
            [Fraction(48), Fraction(336)],
            [rhombus_second_diagonal(rhombus_b), rhombus_area(rhombus_b)],
        ),
        _entry(
            "square-side-25",
            "square with side 25 as the extreme member of the family",
            "Lilavati 174-176 (comparison square)",
            Fraction(625),
            rhombus_area(Rhombus(side=25, d1=Surd(25, 2))),
        ),
        _entry(
            "construction-sides",
            "gluing triples (3,4,5) and (8,15,17): side multiset {40,51,68,75}",
            "Brahmasphutasiddhanta XII.38; Ganesa's commentary on Lilavati 178",
            [Fraction(40), Fraction(51), Fraction(68), Fraction(75)],
            sorted(construction.sides),
        ),
        _entry(
            "construction-glue-diagonal",
            "glue diagonal equals the product of the hypotenuses, 85",
            "Brahmasphutasiddhanta XII.38",
            Fraction(85),
            construction.glue_diagonal,
        ),
        _entry(
            "construction-split-area",
            "split along the glue diagonal reproduces the integer area 3234",
            "Ganesa's commentary on Lilavati 178",
            Fraction(3234),
            area_by_diagonal(glued).split_area,
        ),
        _entry(
            "construction-concyclic",
            "the constructed quadrilateral is concyclic (exact and embedded)",
            "Brahmasphutasiddhanta XII.38 (construction is cyclic)",
            [True, True],
            [concyclic_exact(glued), concyclic(embed(glued))],
        ),
    ]
