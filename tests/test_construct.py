import random
from fractions import Fraction

import pytest

from cyclicquad import construct
from cyclicquad.construct import (
    PtolemyViolation,
    brahmagupta_quad,
    reflect_swap,
    rhombus_from_triple,
)
from cyclicquad.exactnum import IncompatibleRadicands, Surd
from cyclicquad.mensuration import (
    DiagonalPair,
    DiagQuad,
    cyclic_diagonal_pair,
    cyclic_diagonal_pair_in_units,
    heron_area,
    quad,
    rhombus_area,
    rhombus_second_diagonal,
    sutra_area,
    triangle_circumradius,
)
from cyclicquad.oracle import concyclic, concyclic_exact, embed
from cyclicquad.triples import generate_triples, validate_triple

from conftest import random_diag_quad


class TestRhombusFromTriple:
    def test_lilavati_rhombuses(self):
        r = rhombus_from_triple(validate_triple(15, 20, 25))
        assert (r.side, r.d1) == (25, 30)
        assert rhombus_second_diagonal(r) == 40
        assert rhombus_area(r) == 600

        r = rhombus_from_triple(validate_triple(7, 24, 25))
        assert (r.side, r.d1) == (25, 14)
        assert rhombus_second_diagonal(r) == 48
        assert rhombus_area(r) == 336

    def test_smallest_triple(self):
        r = rhombus_from_triple(validate_triple(3, 4, 5))
        assert (r.side, r.d1) == (5, 6)
        assert rhombus_second_diagonal(r) == 8
        assert rhombus_area(r) == 24


class TestBrahmaguptaQuad:
    def test_ganesa_example(self):
        built = brahmagupta_quad(validate_triple(3, 4, 5), validate_triple(8, 15, 17))
        assert sorted(built.sides) == [40, 51, 68, 75]
        assert built.glue_diagonal == 85
        dq = built.as_diag_quad()
        # the glue diagonal is a circumdiameter: both triangles are right on it
        assert all(t.a**2 + t.b**2 == t.c**2 for t in dq.triangles)
        t1, t2 = [heron_area(t) for t in dq.triangles]
        assert t1 + t2 == Fraction(51 * 68 + 40 * 75, 2) == 3234

    def test_equal_triples_rectangle_class(self):
        built = brahmagupta_quad(validate_triple(3, 4, 5), validate_triple(3, 4, 5))
        assert sorted(built.sides) == [15, 15, 20, 20]
        assert built.glue_diagonal == 25
        t1, t2 = [heron_area(t) for t in built.as_diag_quad().triangles]
        assert t1 + t2 == 300

    def test_record_holds_sides_glue_diagonal_and_diagonals(self):
        assert construct.CyclicQuadConstruction._fields == ("sides", "glue_diagonal", "diagonals")

    def test_failed_ptolemy_check_raises(self, monkeypatch):
        # a real check, not an assert that python -O would strip
        monkeypatch.setattr(construct, "ptolemy_check", lambda sides, pair: False)
        with pytest.raises(PtolemyViolation):
            brahmagupta_quad(validate_triple(3, 4, 5), validate_triple(8, 15, 17))

    def test_wrong_diagonal_pair_raises(self, monkeypatch):
        # (2p, q/2) keeps the product p*q, so only a check against the glue
        # diagonal refuses it
        def wrong_pair(units):
            p, q = cyclic_diagonal_pair_in_units(units)
            return DiagonalPair(2 * p, q / 2)

        monkeypatch.setattr(construct, "cyclic_diagonal_pair_in_units", wrong_pair)
        with pytest.raises(PtolemyViolation):
            brahmagupta_quad(validate_triple(3, 4, 5), validate_triple(8, 15, 17))

    def test_mixed_triples(self):
        built = brahmagupta_quad(validate_triple(3, 4, 5), validate_triple(5, 12, 13))
        assert sorted(built.sides) == [25, 39, 52, 60]
        assert built.glue_diagonal == 65

    def test_all_pairs_up_to_25(self):
        triples = generate_triples(25)
        for i, t1 in enumerate(triples):
            for t2 in triples[i:]:
                built = brahmagupta_quad(t1, t2)
                dq = built.as_diag_quad()
                # integer sides
                assert all(s.denominator == 1 for s in built.sides)
                # integer area, equal to the unconditional root rule
                a1, a2 = [heron_area(t) for t in dq.triangles]
                split = a1 + a2
                assert split.denominator == 1
                assert sutra_area(built.sides) == split
                # cyclic: exact criterion and embedded oracle
                assert concyclic_exact(dq)
                assert concyclic(embed(dq))


class TestReflectSwap:
    def test_swap_changes_cyclic_class(self):
        dq = DiagQuad(quad(51, 40, 75, 68), 85)
        swapped = reflect_swap(dq, "first_triangle")
        assert swapped.sides == (40, 51, 75, 68)
        assert swapped.diagonal == 85
        pair = cyclic_diagonal_pair(swapped.sides)
        assert {pair.p, pair.q} == {Fraction(77), Fraction(84)}
        original_pair = cyclic_diagonal_pair(dq.sides)
        assert {original_pair.p, original_pair.q} == {Fraction(77), Fraction(85)}

    def test_involution(self):
        rng = random.Random(47)
        for _ in range(200):
            dq = random_diag_quad(rng)
            for which in ("first_triangle", "second_triangle"):
                assert reflect_swap(reflect_swap(dq, which), which) == dq

    def test_square_unchanged(self):
        dq = DiagQuad(quad(25, 25, 25, 25), Surd(25, 2))
        assert reflect_swap(dq, "first_triangle").sides == dq.sides
        assert reflect_swap(dq, "second_triangle").sides == dq.sides

    def test_invariants_preserved(self):
        rng = random.Random(53)
        for _ in range(200):
            dq = random_diag_quad(rng)
            which = rng.choice(("first_triangle", "second_triangle"))
            swapped = reflect_swap(dq, which)
            assert sorted(swapped.sides) == sorted(dq.sides)
            assert swapped.diagonal == dq.diagonal
            # each triangle's Heron area survives the swap of its own sides
            before = [heron_area(t) for t in dq.triangles]
            after = [heron_area(t) for t in swapped.triangles]
            assert before == after
            try:
                split_before = before[0] + before[1]
            except IncompatibleRadicands:
                continue
            assert after[0] + after[1] == split_before

    def test_circumradii_preserved_for_cyclic_input(self):
        built = brahmagupta_quad(validate_triple(3, 4, 5), validate_triple(8, 15, 17))
        dq = built.as_diag_quad()
        for which in ("first_triangle", "second_triangle"):
            swapped = reflect_swap(dq, which)
            for before, after in zip(dq.triangles, swapped.triangles):
                assert triangle_circumradius(after) == triangle_circumradius(before)

    def test_unknown_selector(self):
        dq = DiagQuad(quad(25, 25, 25, 25), Surd(25, 2))
        with pytest.raises(ValueError):
            reflect_swap(dq, "third_triangle")

    def test_orbit_closure_of_lilavati_quad(self):
        # walk side orderings reachable via triangle swaps and re-splitting
        # along either diagonal (rotation); collect every cyclic diagonal
        seen = set()
        frontier = [(51, 40, 75, 68)]
        orderings = set(frontier)
        diagonals = set()
        while frontier:
            order = frontier.pop()
            pair = cyclic_diagonal_pair(quad(*order))
            diagonals |= {pair.p, pair.q}
            a, b, c, d = order
            for neighbor in ((b, a, c, d), (a, b, d, c), (b, c, d, a)):
                if neighbor not in orderings:
                    orderings.add(neighbor)
                    frontier.append(neighbor)
        assert diagonals == {Fraction(77), Fraction(84), Fraction(85)}
