"""Acceptance suite: thirteen criteria, one pass/fail line printed each.

Criteria 1-6 reproduce the classical worked examples exactly; 7-12 are
property checks over random inputs; 13 exercises the reproduce command.
"""

import contextlib
import io
import json
import random
from fractions import Fraction

from cyclicquad.cli import main
from cyclicquad.construct import brahmagupta_quad, reflect_swap, rhombus_from_triple
from cyclicquad.exactnum import Surd, approx
from cyclicquad.mensuration import (
    DiagQuad,
    DiagonalPair,
    QuadSides,
    Rhombus,
    Trapezium,
    Triangle,
    area_by_diagonal,
    cyclic_diagonal_pair,
    gross_area,
    heron_area,
    ptolemy_check,
    quad,
    rhombus_area,
    rhombus_second_diagonal,
    sutra_area,
    trapezium_area,
    triangle_circumradius,
)
from cyclicquad.oracle import (
    area_scan,
    concyclic,
    diagonal_range,
    embed,
    shoelace_area,
)
from cyclicquad.triples import generate_triples, validate_triple

from conftest import embed_triangle, random_diag_quad, random_quad



@contextlib.contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} FAIL: {title}")
        raise
    print(f"ACCEPTANCE {number:02d} PASS: {title}")


def test_01_trapezium_bracket():
    with criterion(1, "trapezium 138 exact; root rule 30*sqrt(22); 138 < it < 141"):
        t = Trapezium(base=14, face=9, legs=(13, 12), height=12)
        assert trapezium_area(t) == 138
        root = sutra_area(quad(14, 12, 9, 13))
        assert root == Surd(30, 22)
        assert 138 < root < 141


def test_02_gross_exceeds_sutra():
    with criterion(2, "gross rule 143.75 exactly, strictly above the root rule"):
        q = quad(14, 12, 9, 13)
        assert gross_area(q) == Fraction(575, 4)
        assert gross_area(q) > sutra_area(q)


def test_03_worked_example_77():
    with criterion(3, "77-split area 3234, perpendiculars 60/24, root rule agrees, Ptolemy (85,77)"):
        report = area_by_diagonal(DiagQuad(quad(75, 68, 51, 40), 77))
        assert report.split_area == 3234
        assert report.perpendiculars == (60, 24)
        assert sutra_area(quad(51, 68, 75, 40)) == 3234
        assert ptolemy_check(
            quad(75, 40, 51, 68), DiagonalPair(Fraction(85), Fraction(77))
        )


def test_04_diagonal_trio_and_circumradii():
    with criterion(4, "cyclic diagonal trio {77,84,85}; both 77-split circumradii 42.5"):
        diagonals = set()
        for order in ((75, 68, 51, 40), (75, 51, 68, 40), (75, 68, 40, 51)):
            pair = cyclic_diagonal_pair(quad(*order))
            diagonals |= {pair.p, pair.q}
        assert diagonals == {Fraction(77), Fraction(84), Fraction(85)}
        dq = DiagQuad(quad(75, 68, 51, 40), 77)
        assert [triangle_circumradius(t) for t in dq.triangles] == [Fraction(85, 2)] * 2


def test_05_rhombus_family():
    with criterion(5, "rhombus areas 600/336/625; second diagonals 40/48"):
        r1 = rhombus_from_triple(validate_triple(15, 20, 25))
        r2 = rhombus_from_triple(validate_triple(7, 24, 25))
        assert rhombus_second_diagonal(r1) == 40 and rhombus_area(r1) == 600
        assert rhombus_second_diagonal(r2) == 48 and rhombus_area(r2) == 336
        assert rhombus_area(Rhombus(side=25, d1=Surd(25, 2))) == 625


def test_06_construction():
    with criterion(6, "glued (3,4,5)x(8,15,17): sides {40,51,68,75}, diagonal 85, area 3234, concyclic"):
        built = brahmagupta_quad(validate_triple(3, 4, 5), validate_triple(8, 15, 17))
        assert sorted(built.sides) == [40, 51, 68, 75]
        assert built.glue_diagonal == 85
        dq = built.as_diag_quad()
        assert area_by_diagonal(dq).split_area == 3234
        assert concyclic(embed(dq))


def test_07_gross_dominates():
    with criterion(7, "gross >= sutra on 1000 random quads, equality iff a=c and b=d"):
        rng = random.Random(101)
        for _ in range(1000):
            q = random_quad(rng, max_side=500)
            g, s = gross_area(q), sutra_area(q)
            a, b, c, d = q
            if a == c and b == d:
                assert g == s
            else:
                assert g > s


def test_08_heron_vs_shoelace():
    with criterion(8, "Heron equals the embedded shoelace area on 500 random triangles"):
        rng = random.Random(103)
        count = 0
        while count < 500:
            sides = sorted(rng.randint(1, 200) for _ in range(3))
            if sides[2] >= sides[0] + sides[1]:
                continue
            count += 1
            t = Triangle(*sides)
            assert shoelace_area(embed_triangle(t)) == heron_area(t)


def test_09_scan_maximality():
    with criterion(9, "scan argmax within one grid step of cyclic diagonal, 50 random quads"):
        rng = random.Random(107)
        for _ in range(50):
            q = random_quad(rng, max_side=100)
            lower, upper = diagonal_range(q)
            step = (Fraction(upper) - Fraction(lower)) / 1000
            result = area_scan(q, 999, 30)
            argmax_diagonal, max_area = result.samples[result.argmax]
            target = approx(cyclic_diagonal_pair(q).p, 30)
            assert abs(argmax_diagonal - target) <= step
            ceiling = approx(sutra_area(q), 30)
            assert max_area <= ceiling + Fraction(1, 10**6)
            areas = [a for _, a in result.samples]
            assert min(areas) < max(areas)


def test_10_sutra_permutation_invariance():
    with criterion(10, "sutra_area invariant under side permutations, 200 random cases"):
        rng = random.Random(109)
        for _ in range(200):
            q = random_quad(rng)
            perm = list(q)
            rng.shuffle(perm)
            assert sutra_area(QuadSides(*perm)) == sutra_area(q)


def test_11_reflect_swap_properties():
    with criterion(11, "reflect_swap is an involution preserving sides, diagonal, split area"):
        rng = random.Random(113)
        for _ in range(200):
            dq = random_diag_quad(rng)
            which = rng.choice(("first_triangle", "second_triangle"))
            swapped = reflect_swap(dq, which)
            assert reflect_swap(swapped, which) == dq
            assert sorted(swapped.sides) == sorted(dq.sides)
            assert swapped.diagonal == dq.diagonal
            before = [heron_area(t) for t in dq.triangles]
            after = [heron_area(t) for t in swapped.triangles]
            assert after == before
            assert sum(after) == sum(before)


def test_12_all_small_constructions():
    with criterion(12, "every triple pair with hypotenuse <= 25 glues to an integer cyclic quad"):
        triples = generate_triples(25)
        for i, t1 in enumerate(triples):
            for t2 in triples[i:]:
                built = brahmagupta_quad(t1, t2)
                dq = built.as_diag_quad()
                assert all(s.denominator == 1 for s in built.sides)
                a1, a2 = [heron_area(t) for t in dq.triangles]
                area = a1 + a2
                assert area.denominator == 1
                assert sutra_area(built.sides) == area
                assert concyclic(embed(dq))


def test_13_reproduce_deterministic():
    with criterion(13, "reproduce exits 0; JSON byte-identical across two runs"):
        outputs = []
        for _ in range(2):
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = main(["--format", "json", "reproduce"])
            assert code == 0
            outputs.append(buffer.getvalue())
        assert outputs[0] == outputs[1]
        payload = json.loads(outputs[0])
        assert all(e["status"] == "pass" for e in payload["entries"])
