import copy
import itertools
import pickle
import random
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import example, given, settings

from cyclicquad import exactnum
from cyclicquad.exactnum import IncompatibleRadicands, Surd, to_exact
from cyclicquad.mensuration import (
    DegenerateRhombus,
    DiagQuad,
    DiagonalPair,
    InvalidQuad,
    InvalidTrapezium,
    InvalidTriangle,
    QuadSides,
    Rhombus,
    Trapezium,
    Triangle,
    abadha_split,
    area_by_diagonal,
    cyclic_diagonal_pair,
    gross_area,
    heron_area,
    ptolemy_check,
    quad,
    rhombus_area,
    rhombus_second_diagonal,
    semiperimeter,
    sutra_area,
    trapezium_area,
    triangle_circumradius,
)

from cyclicquad.oracle import embed, shoelace_area

from conftest import (
    checked_lengths,
    figure_lengths,
    is_exact,
    outcome,
    random_quad,
    random_triangle,
    reference_abadha_split,
    reference_area_by_diagonal,
    reference_cyclic_diagonal_pair,
    reference_gross_area,
    reference_heron_area,
    reference_ptolemy_check,
    reference_quad_check,
    reference_rhombus_check,
    reference_rhombus_second_diagonal,
    reference_semiperimeter,
    reference_sutra_area,
    reference_trapezium_check,
    reference_triangle_check,
    reference_triangle_circumradius,
)


LILAVATI_TRAPEZIUM_SIDES = (14, 12, 9, 13)


class TestGrossArea:
    def test_lilavati_trapezium(self):
        assert gross_area(quad(*LILAVATI_TRAPEZIUM_SIDES)) == Fraction(575, 4)

    def test_square(self):
        assert gross_area(quad(25, 25, 25, 25)) == 625

    def test_rectangle(self):
        assert gross_area(quad(3, 4, 3, 4)) == 12


class TestSutraArea:
    def test_lilavati_trapezium_root(self):
        assert sutra_area(quad(*LILAVATI_TRAPEZIUM_SIDES)) == Surd(30, 22)

    def test_lilavati_quad_integer(self):
        assert sutra_area(quad(51, 68, 75, 40)) == 3234

    def test_square(self):
        assert sutra_area(quad(25, 25, 25, 25)) == 625

    def test_permutation_invariant(self):
        rng = random.Random(23)
        for _ in range(200):
            q = random_quad(rng)
            perm = list(q)
            rng.shuffle(perm)
            assert sutra_area(QuadSides(*perm)) == sutra_area(q)

    def test_gross_dominates_sutra(self):
        rng = random.Random(29)
        for _ in range(1000):
            q = random_quad(rng)
            g, s = gross_area(q), sutra_area(q)
            assert not g < s
            a, b, c, d = q
            if a == c and b == d:
                assert g == s
            else:
                assert g > s

    def test_gross_equality_cases(self):
        for a, b in ((3, 4), (7, 7), (10, 1)):
            q = quad(a, b, a, b)
            assert gross_area(q) == sutra_area(q)


class TestClosure:
    def test_near_tie_decided_exactly(self):
        # d within 3e-90 of sqrt(2) + sqrt(3) + sqrt(5), on either side
        scale = 10**90
        floors = sum(isqrt(r * scale * scale) for r in (2, 3, 5))
        surds = (Surd(1, 2), Surd(1, 3), Surd(1, 5))
        assert quad(*surds, Fraction(floors, scale)).d == Fraction(floors, scale)
        with pytest.raises(InvalidQuad):
            quad(*surds, Fraction(floors + 3, scale))

    def test_triangle_with_surd_sides(self):
        assert Triangle(Surd(1, 2), Surd(1, 3), 3)
        with pytest.raises(InvalidTriangle):
            Triangle(Surd(1, 2), Surd(1, 3), Fraction(315, 100))


class TestHeron:
    def test_right_triangle(self):
        assert heron_area(Triangle(3, 4, 5)) == 6

    def test_lilavati_split_triangles(self):
        assert heron_area(Triangle(75, 68, 77)) == 2310
        assert heron_area(Triangle(40, 51, 77)) == 924

    def test_square_of_area_restores_product(self):
        rng = random.Random(31)
        for _ in range(500):
            t = random_triangle(rng)
            s = semiperimeter(t)
            area = heron_area(t)
            assert area * area == s * (s - t.a) * (s - t.b) * (s - t.c)

    def test_surd_side_supported(self):
        # half of the side-25 square, cut along its diagonal
        assert heron_area(Triangle(25, 25, Surd(25, 2))) == Fraction(625, 2)

    def test_surd_sides_match_squared_sides_polynomial(self):
        # the four factors multiply out to 16T**2 in the squared sides
        for sides in [
            (Surd(1, 2), Surd(1, 3), 3),
            (Surd(3, 5), Surd(2, 7), 10),
            (Surd(Fraction(7, 3), 11), Surd(Fraction(5, 2), 13), 12),
        ]:
            a2, b2, c2 = (side * side for side in sides)
            sixteen_t2 = 2 * (a2 * b2 + b2 * c2 + c2 * a2) - a2 * a2 - b2 * b2 - c2 * c2
            assert heron_area(Triangle(*sides)) == Surd.sqrt(sixteen_t2) / 4
        assert heron_area(Triangle(Surd(1, 2), Surd(1, 3), 3)) == Surd(Fraction(1, 2), 2)

    def test_surd_side_with_irrational_square_is_refused(self):
        # (1 + sqrt2)**2 = 3 + 2*sqrt2, so 16T**2 = 31 + 20*sqrt2 has no surd root
        with pytest.raises(IncompatibleRadicands):
            heron_area(Triangle(1 + Surd(1, 2), 2, 2))

    def test_invalid_triangle(self):
        with pytest.raises(InvalidTriangle):
            Triangle(1, 2, 5)


class TestTrapezium:
    def test_lilavati_counterexample(self):
        t = Trapezium(base=14, face=9, legs=(13, 12), height=12)
        assert trapezium_area(t) == 138

    def test_parallelogram(self):
        t = Trapezium(base=14, face=14, legs=(1, 1), height=1)
        assert trapezium_area(t) == 14

    def test_decomposition_case(self):
        t = Trapezium(base=10, face=4, legs=(5, 5), height=4)
        assert trapezium_area(t) == 28

    def test_height_bounded_by_legs(self):
        with pytest.raises(InvalidTrapezium):
            Trapezium(base=10, face=4, legs=(3, 5), height=4)


class TestRhombus:
    def test_second_diagonal_lilavati_values(self):
        assert rhombus_second_diagonal(Rhombus(side=25, d1=30)) == 40
        assert rhombus_second_diagonal(Rhombus(side=25, d1=14)) == 48

    def test_square_case_equal_diagonals(self):
        assert rhombus_second_diagonal(Rhombus(side=5, d1=Surd(5, 2))) == Surd(5, 2)

    def test_areas(self):
        assert rhombus_area(Rhombus(side=25, d1=30)) == 600
        assert rhombus_area(Rhombus(side=25, d1=14)) == 336
        assert rhombus_area(Rhombus(side=25, d1=Surd(25, 2))) == 625

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateRhombus):
            Rhombus(side=25, d1=50)

    def test_diagonal_identity(self):
        rng = random.Random(37)
        for _ in range(200):
            side = rng.randint(2, 300)
            d1 = Fraction(rng.randint(1, 2 * side * 100 - 1), 100)
            r = Rhombus(side=side, d1=d1)
            d2 = rhombus_second_diagonal(r)
            assert d1 * d1 + d2 * d2 == 4 * side * side


class TestAbadha:
    def test_lilavati_perpendicular_split(self):
        assert abadha_split(Triangle(75, 68, 77)) == (45, 32, 60)
        assert abadha_split(Triangle(40, 51, 77)) == (32, 45, 24)

    def test_right_triangle_altitude(self):
        assert abadha_split(Triangle(3, 4, 5)) == (
            Fraction(9, 5),
            Fraction(16, 5),
            Fraction(12, 5),
        )

    def test_invalid(self):
        with pytest.raises(InvalidTriangle):
            abadha_split(Triangle(2, 3, 10))

    def test_segment_and_flank_identities(self):
        rng = random.Random(41)
        for _ in range(300):
            t = random_triangle(rng)
            seg_l, seg_r, h = abadha_split(Triangle(t.b, t.c, t.a))
            assert seg_l + seg_r == t.a
            h_sq = h * h
            assert seg_l * seg_l + h_sq == t.b * t.b
            assert seg_r * seg_r + h_sq == t.c * t.c


class TestDiagQuad:
    def test_keeps_its_two_checked_triangles(self):
        dq = DiagQuad(quad(75, 68, 51, 40), 77)
        assert dq.triangles == (Triangle(75, 68, 77), Triangle(51, 40, 77))

    def test_equality_hash_and_repr_ignore_triangles(self):
        dq = DiagQuad(quad(75, 68, 51, 40), 77)
        twin = DiagQuad(quad(75, 68, 51, 40), Fraction(77))
        assert dq == twin and hash(dq) == hash(twin)
        assert repr(dq) == repr(twin) == (
            f"DiagQuad(sides={dq.sides!r}, diagonal={dq.diagonal!r})"
        )

    def test_equals_its_plain_tuple_without_the_triangles(self):
        q = quad(75, 68, 51, 40)
        dq = DiagQuad(q, 77)
        assert len(dq) == 2 and dq == (q, 77) and hash(dq) == hash((q, 77))
        assert dq != DiagQuad(q, 85)

    @pytest.mark.parametrize(
        "dq",
        [DiagQuad(quad(75, 68, 51, 40), 77), DiagQuad(quad(25, 25, 25, 25), Surd(25, 2))],
        ids=["rational", "surd-diagonal"],
    )
    @pytest.mark.parametrize(
        "clone",
        [copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
        ids=["deepcopy", "pickle"],
    )
    def test_clones_keep_the_triangles(self, dq, clone):
        got = clone(dq)
        assert got == dq and hash(got) == hash(dq)
        assert got.triangles == dq.triangles

    def test_replace_rebuilds_the_triangles(self):
        dq = DiagQuad(quad(75, 68, 51, 40), 77)._replace(diagonal=85)
        assert dq == DiagQuad(quad(75, 68, 51, 40), 85)
        assert dq.triangles == (Triangle(75, 68, 85), Triangle(51, 40, 85))

    def test_nonpositive_diagonal_is_an_invalid_triangle(self):
        for diagonal in (0, -1):
            with pytest.raises(InvalidTriangle):
                DiagQuad(quad(75, 68, 51, 40), diagonal)


class TestAreaByDiagonal:
    def test_lilavati_quad(self):
        q = quad(75, 68, 51, 40)
        report = area_by_diagonal(DiagQuad(q, 77))
        assert report.split_area == 3234
        assert report.perpendiculars == (60, 24)
        assert gross_area(q) == Fraction(75 + 51, 2) * Fraction(68 + 40, 2)
        assert semiperimeter(q) == 117

    def test_square(self):
        report = area_by_diagonal(DiagQuad(quad(25, 25, 25, 25), Surd(25, 2)))
        assert report.split_area == 625

    def test_trapezium_via_embedded_diagonal(self):
        report = area_by_diagonal(DiagQuad(quad(14, 13, 9, 12), 15))
        assert report.split_area == 84 + 54 == 138

    def test_matches_sutra_for_cyclic_diagonal(self):
        q = quad(51, 68, 75, 40)
        p = cyclic_diagonal_pair(q).p
        report = area_by_diagonal(DiagQuad(q, p))
        assert report.split_area == sutra_area(q)

    def test_incommensurable_split_is_a_sum(self):
        dq = DiagQuad(quad(5, 6, 7, 8), 9)
        t1, t2 = [heron_area(t) for t in dq.triangles]
        split_area = area_by_diagonal(dq).split_area
        assert isinstance(split_area, Surd) and len(split_area.terms) == 2
        assert split_area == t1 + t2
        assert shoelace_area(embed(dq)) == split_area


class TestCyclicDiagonals:
    def test_lilavati_orderings(self):
        assert cyclic_diagonal_pair(quad(75, 40, 51, 68)) == DiagonalPair(
            Fraction(85), Fraction(77)
        )
        assert cyclic_diagonal_pair(quad(51, 75, 40, 68)) == DiagonalPair(
            Fraction(84), Fraction(85)
        )

    def test_square(self):
        pair = cyclic_diagonal_pair(quad(25, 25, 25, 25))
        assert pair.p == Surd(25, 2) and pair.q == Surd(25, 2)

    def test_trio_over_side_orderings(self):
        diagonals = set()
        for order in set(itertools.permutations((51, 68, 75, 40))):
            pair = cyclic_diagonal_pair(quad(*order))
            diagonals |= {pair.p, pair.q}
        assert diagonals == {Fraction(77), Fraction(84), Fraction(85)}

    def test_ptolemy_product(self):
        rng = random.Random(43)
        for _ in range(200):
            q = random_quad(rng)
            pair = cyclic_diagonal_pair(q)
            assert ptolemy_check(q, pair)

    def test_divides_by_a_sum_over_one_radicand(self):
        # with b = d, p**2 = q**2 = (ac + b*b)*b*(a + c) / (b*(a + c)); here
        # ac = 2 and a + c = -1 + 3*sqrt(2), divided through its conjugate
        q = quad(1 + Surd(1, 2), 3, Surd(2, 2) - 2, 3)
        pair = cyclic_diagonal_pair(q)
        assert pair == DiagonalPair(Surd(1, 11), Surd(1, 11))
        assert ptolemy_check(q, pair)

    def test_irrational_diagonal_square_refused_by_sqrt(self):
        with pytest.raises(IncompatibleRadicands, match="sqrt of the irrational"):
            cyclic_diagonal_pair(quad(Surd(3, 2), 5, 6, 7))

    def test_each_factor_split_once(self, monkeypatch):
        # ac + bd = 23, ad + bc = 22 and ab + cd = 26: p is the one root
        # taken, and q = p * 26/22 needs no second split of any factor
        q = quad(2, 3, 4, 5)
        calls = []
        original = exactnum.square_free_split

        def counted(n):
            calls.append(n)
            return original(n)

        monkeypatch.setattr(exactnum, "square_free_split", counted)
        pair = cyclic_diagonal_pair(q)
        assert sorted(calls) == [22, 23, 26]
        assert pair.q == Surd.sqrt(23, 26, Fraction(1, 22))
        assert ptolemy_check(q, pair)


class TestPtolemyCheck:
    def test_lilavati_pair(self):
        assert ptolemy_check(
            quad(75, 40, 51, 68), DiagonalPair(Fraction(85), Fraction(77))
        )

    def test_perturbed_pair(self):
        assert not ptolemy_check(
            quad(75, 40, 51, 68), DiagonalPair(Fraction(85), Fraction(76))
        )

    def test_square_pair(self):
        assert ptolemy_check(
            quad(25, 25, 25, 25), DiagonalPair(Surd(25, 2), Surd(25, 2))
        )


class TestCircumradius:
    def test_right_triangle(self):
        assert triangle_circumradius(Triangle(3, 4, 5)) == Fraction(5, 2)

    def test_lilavati_triangles_concyclic(self):
        r1 = triangle_circumradius(Triangle(75, 68, 77))
        r2 = triangle_circumradius(Triangle(40, 51, 77))
        assert r1 == r2 == Fraction(85, 2)


def assert_same_check(check, reference, *lengths):
    """The figure's check accepts what its reference accepts, and raises the
    same exception with the same message, naming the lengths as given."""
    figure, error = outcome(check)
    _, expected = outcome(lambda: reference(*lengths))
    assert error == expected
    if error is None:
        stored = [v for item in figure for v in (item if isinstance(item, tuple) else (item,))]
        assert all(map(is_exact, stored))


def assert_same_rule(rule, reference, *args):
    """rule(*args) equals reference(*args), value by value, and each value
    is a Fraction or a Surd; where the reference raises, the rule raises
    the same type."""
    got, error = outcome(lambda: rule(*args))
    expected, expected_error = outcome(lambda: reference(*args))
    if expected_error is not None:
        assert error is not None and error[0] is expected_error[0]
        return
    assert error is None
    values = got if isinstance(got, tuple) else (got,)
    assert values == (expected if isinstance(expected, tuple) else (expected,))
    assert all(is_exact(v) for v in values)


class TestIntegerForms:
    """Every rule and check runs on integer numerators over one unit; each
    equals its reference form (conftest), evaluated on the lengths as
    given, over integer, rational and single-term surd lengths."""

    @settings(deadline=None)
    @given(checked_lengths(3))
    def test_triangle_check(self, sides):
        exact = tuple(map(to_exact, sides))
        assert_same_check(lambda: Triangle(*sides), reference_triangle_check, *exact)

    @settings(deadline=None)
    @given(checked_lengths(4))
    def test_quad_check(self, sides):
        exact = tuple(map(to_exact, sides))
        assert_same_check(lambda: QuadSides(*sides), reference_quad_check, *exact)

    @settings(deadline=None)
    @given(checked_lengths(2))
    def test_rhombus_check(self, dims):
        exact = tuple(map(to_exact, dims))
        assert_same_check(lambda: Rhombus(*dims), reference_rhombus_check, *exact)

    @settings(deadline=None)
    @given(checked_lengths(5))
    def test_trapezium_check(self, lengths):
        base, face, leg1, leg2, height = map(to_exact, lengths)
        assert_same_check(
            lambda: Trapezium(lengths[0], lengths[1], lengths[2:4], lengths[4]),
            reference_trapezium_check, base, face, (leg1, leg2), height,
        )

    @settings(deadline=None)
    @given(figure_lengths(4))
    @example((14, 12, 9, 13))
    @example((75, 68, 51, 40))
    @example(tuple(Fraction(n, 7) for n in (75, 68, 51, 40)))
    def test_quadrilateral_rules(self, sides):
        q = quad(*sides)
        assert_same_rule(semiperimeter, reference_semiperimeter, list(q))
        assert_same_rule(semiperimeter, reference_semiperimeter, q)
        assert_same_rule(gross_area, reference_gross_area, q)
        assert_same_rule(sutra_area, reference_sutra_area, q)
        assert_same_rule(cyclic_diagonal_pair, reference_cyclic_diagonal_pair, q)

    @settings(deadline=None)
    @given(figure_lengths(4))
    def test_ptolemy_check(self, sides):
        q = quad(*sides)
        pair, error = outcome(lambda: reference_cyclic_diagonal_pair(q))
        a, b, c, d = q
        pairs = [DiagonalPair(a, b), DiagonalPair(c + d, Surd(1, 2) * a)]
        if error is None:
            pairs += [pair, DiagonalPair(pair.p, pair.q + a)]
        for diagonals in pairs:
            assert ptolemy_check(q, diagonals) is reference_ptolemy_check(q, diagonals)

    @settings(deadline=None)
    @given(figure_lengths(3))
    @example((75, 68, 77))
    @example((Fraction(75, 7), Fraction(68, 7), 11))
    @example((25, 25, Surd(25, 2)))
    def test_triangle_rules(self, sides):
        t = Triangle(*sides)
        assert_same_rule(semiperimeter, reference_semiperimeter, list(t))
        assert_same_rule(heron_area, reference_heron_area, t)
        assert_same_rule(abadha_split, reference_abadha_split, t)
        assert_same_rule(triangle_circumradius, reference_triangle_circumradius, t)

    @settings(deadline=None)
    @given(figure_lengths(2))
    @example((25, 30))
    @example((Fraction(5, 2), Fraction(7, 3)))
    def test_rhombus_second_diagonal(self, dims):
        r = Rhombus(*dims)
        assert_same_rule(rhombus_second_diagonal, reference_rhombus_second_diagonal, r)

    @settings(deadline=None)
    @given(figure_lengths(5))
    @example((75, 68, 51, 40, 77))
    @example((Fraction(75, 7), Fraction(68, 7), Fraction(51, 7), Fraction(40, 7), 11))
    def test_area_by_diagonal(self, lengths):
        dq = DiagQuad(quad(*lengths[:4]), lengths[4])

        def rule(dq):
            report = area_by_diagonal(dq)
            return (report.split_area, *report.perpendiculars)

        def reference(dq):
            split, perpendiculars = reference_area_by_diagonal(dq)
            return (split, *perpendiculars)

        assert_same_rule(rule, reference, dq)
