import random
from fractions import Fraction

import pytest

from cyclicquad import exactnum, oracle
from cyclicquad.exactnum import (
    GUARD_DIGITS,
    IncompatibleRadicands,
    Surd,
    approx,
    render_decimal,
    sqrt_fraction,
)
from cyclicquad.mensuration import (
    DiagQuad,
    InvalidQuad,
    InvalidTriangle,
    Triangle,
    cyclic_diagonal_pair,
    heron_area,
    quad,
    split_triangle_areas,
    sutra_area,
)
from cyclicquad.oracle import (
    DegenerateCollinear,
    area_scan,
    concyclic,
    concyclic_exact,
    diagonal_range,
    embed,
    embed_triangle,
    shoelace_area,
)

from conftest import random_diag_quad, random_quad

TIGHT = Fraction(1, 10**30)


def random_rational_quad(rng: random.Random):
    while True:
        sides = (Fraction(rng.randint(1, 60), rng.randint(1, 6)) for _ in range(4))
        try:
            return quad(*sides)
        except InvalidQuad:
            continue


class TestEmbed:
    def test_lilavati_quad_apexes(self):
        e = embed(DiagQuad(quad(75, 68, 51, 40), 77), 50)
        assert e.points[0] == (0, 0)
        assert e.points[2] == (77, 0)
        assert e.points[1] == (45, 60)
        assert e.points[3] == (32, -24)

    def test_unit_square(self):
        e = embed(DiagQuad(quad(1, 1, 1, 1), Surd(1, 2)), 50)
        half_diag = Surd(Fraction(1, 2), 2)
        for apex, sign in ((e.points[1], 1), (e.points[3], -1)):
            assert abs(apex[0] - half_diag.approx(50)) < Fraction(1, 10**45)
            assert abs(apex[1] - sign * half_diag.approx(50)) < Fraction(
                1, 10**45
            )

    def test_right_kite(self):
        e = embed(DiagQuad(quad(3, 4, 4, 3), 5), 50)
        assert e.points[1] == (Fraction(9, 5), Fraction(12, 5))
        assert e.points[3] == (Fraction(9, 5), Fraction(-12, 5))

    def test_side_lengths_recovered(self):
        rng = random.Random(59)
        for _ in range(50):
            dq = random_diag_quad(rng)
            e = embed(dq, 50)
            for i in range(4):
                x1, y1 = e.points[i]
                x2, y2 = e.points[(i + 1) % 4]
                dist = sqrt_fraction((x2 - x1) ** 2 + (y2 - y1) ** 2, 50 + GUARD_DIGITS)
                assert abs(dist - approx(dq.sides.sides[i], 50)) < TIGHT


class TestShoelace:
    def test_lilavati_quad(self):
        area = shoelace_area(embed(DiagQuad(quad(75, 68, 51, 40), 77), 50))
        assert abs(area - 3234) < TIGHT

    def test_unit_square(self):
        area = shoelace_area(embed(DiagQuad(quad(1, 1, 1, 1), Surd(1, 2)), 50))
        assert abs(area - 1) < TIGHT

    def test_lilavati_trapezium_via_diagonal(self):
        area = shoelace_area(embed(DiagQuad(quad(14, 13, 9, 12), 15), 50))
        assert abs(area - 138) < TIGHT

    def test_triangle_embedding_matches_heron(self):
        rng = random.Random(61)
        for _ in range(500):
            sides = sorted(rng.randint(1, 200) for _ in range(3))
            if sides[2] >= sides[0] + sides[1]:
                continue
            t = Triangle(*sides)
            area = shoelace_area(embed_triangle(t, 50))
            assert abs(area - approx(heron_area(t), 50)) < TIGHT

    def test_agrees_with_heron_split(self):
        rng = random.Random(67)
        for _ in range(500):
            dq = random_diag_quad(rng)
            oracle_area = shoelace_area(embed(dq, 50))
            t1, t2 = split_triangle_areas(dq)
            expected = approx(t1 + t2, 50)
            assert abs(oracle_area - expected) < TIGHT


class TestConcyclic:
    def test_lilavati_quad_cyclic(self):
        dq = DiagQuad(quad(75, 68, 51, 40), 77)
        assert concyclic(embed(dq, 50), TIGHT)
        assert concyclic_exact(dq)

    def test_other_diagonal_not_cyclic(self):
        dq = DiagQuad(quad(75, 68, 51, 40), 70)
        assert not concyclic(embed(dq, 50), TIGHT)
        assert not concyclic_exact(dq)

    def test_rectangle(self):
        dq = DiagQuad(quad(3, 4, 3, 4), 5)
        assert concyclic(embed(dq, 50), TIGHT)
        assert concyclic_exact(dq)

    def test_exact_agrees_with_the_cyclic_diagonal(self):
        # cyclic iff the diagonal is the cyclic one: x^2 == p^2, with the
        # surd cyclic diagonal itself and random rational diagonals
        rng = random.Random(29)
        cyclic = 0
        for _ in range(300):
            q = random_rational_quad(rng)
            p = cyclic_diagonal_pair(q).p
            lo, hi = (approx(v, 20) for v in diagonal_range(q))
            for x in (p, lo + (hi - lo) * Fraction(rng.randint(1, 99), 100)):
                try:
                    dq = DiagQuad(q, x)
                except (InvalidQuad, InvalidTriangle):
                    continue
                assert concyclic_exact(dq) == (x * x == p * p)
                cyclic += x * x == p * p
        assert cyclic >= 300

    def test_exact_takes_no_square_root(self, monkeypatch):
        figures = [
            DiagQuad(quad(75, 68, 51, 40), 77),
            DiagQuad(quad(14, 12, 9, 13), 15),
            DiagQuad(quad(2, 3, 4, 5), Surd.sqrt(Fraction(253, 13))),
            DiagQuad(quad(Surd(3, 2), 5, 6, 7), 8),
        ]
        seen = []
        original = exactnum.square_free_split

        def counting(n):
            seen.append(n)
            return original(n)

        monkeypatch.setattr(exactnum, "square_free_split", counting)
        assert [concyclic_exact(dq) for dq in figures] == [True, False, True, False]
        assert seen == []

    def test_default_tolerance_scales_down(self):
        # a rhombus at scale 1e-40 is far from cyclic unless it is a square
        unit = Fraction(1, 10**40)
        sides = quad(25 * unit, 25 * unit, 25 * unit, 25 * unit)
        assert not concyclic(embed(DiagQuad(sides, Fraction(303, 10) * unit), 50))
        assert concyclic(embed(DiagQuad(sides, Surd(25, 2) * unit), 50))

    def test_default_tolerance_follows_precision(self):
        # the cyclic diagonal of (2, 3, 4, 5) is irrational, so a 12-digit
        # embedding carries rounding far above 1e-30
        dq = DiagQuad(quad(2, 3, 4, 5), Surd.sqrt(Fraction(253, 13)))
        assert concyclic_exact(dq)
        assert concyclic(embed(dq, 12))
        assert not concyclic(embed(DiagQuad(quad(2, 3, 4, 5), Fraction(22, 5)), 12))

    def test_degenerate_collinear(self):
        # fold the quadrilateral almost flat: apex near the axis
        dq = DiagQuad(quad(5, 5, 5, 5), Fraction(9999999999999, 10**12))
        with pytest.raises(DegenerateCollinear):
            concyclic(embed(dq, 50), Fraction(1, 10**6))


class TestDiagonalRange:
    def test_lilavati_quad(self):
        assert diagonal_range(quad(75, 68, 51, 40)) == (11, 91)

    def test_square(self):
        assert diagonal_range(quad(25, 25, 25, 25)) == (0, 50)

    def test_trapezium_sides(self):
        assert diagonal_range(quad(14, 13, 9, 12)) == (3, 21)

    def test_surd_sides_over_distinct_radicands(self):
        a, b = Surd(3, 2), Surd(2, 3)
        assert diagonal_range(quad(a, b, 3, 4)) == (1, 7)
        assert diagonal_range(quad(a, b, 4, 4)) == (a - b, a + b)


class TestAreaScan:
    def test_square_family_peak(self):
        result = area_scan(quad(25, 25, 25, 25), 999, 30)
        assert abs(result.max_area - 625) < Fraction(1, 10**3)
        target = Surd(25, 2).approx(30)
        step = Fraction(50, 1000)
        assert abs(result.argmax_diagonal - target) <= step

    def test_square_family_hits_rhombus_samples(self):
        # grid step is 0.05, so diagonals 14 and 30 are sampled exactly
        result = area_scan(quad(25, 25, 25, 25), 999, 30)
        by_diag = {d: a for d, a in result.samples}
        assert abs(by_diag[Fraction(30)] - 600) < Fraction(1, 10**20)
        assert abs(by_diag[Fraction(14)] - 336) < Fraction(1, 10**20)

    def test_lilavati_family_peak(self):
        result = area_scan(quad(75, 40, 51, 68), 999, 30)
        assert abs(result.max_area - 3234) < Fraction(1, 100)
        step = Fraction(115 - 35, 1000)
        assert abs(result.argmax_diagonal - 85) <= step

    def test_samples_strictly_increasing_and_vary(self):
        result = area_scan(quad(14, 13, 9, 12), 99, 20)
        diags = [d for d, _ in result.samples]
        assert diags == sorted(diags) and len(set(diags)) == len(diags)
        areas = [a for _, a in result.samples]
        assert min(areas) < max(areas)
        assert result.max_area == max(areas)

    def test_scan_maximality_random(self):
        rng = random.Random(71)
        for _ in range(5):
            q = random_quad(rng, max_side=100)
            lower, upper = diagonal_range(q)
            step = (Fraction(upper) - Fraction(lower)) / 1000
            result = area_scan(q, 999, 30)
            target = approx(cyclic_diagonal_pair(q).p, 30)
            assert abs(result.argmax_diagonal - target) <= step
            ceiling = approx(sutra_area(q), 30)
            assert result.max_area <= ceiling + Fraction(1, 10**6)

    @pytest.mark.parametrize(
        "sides",
        [
            pytest.param(random_quad(random.Random(73), max_side=100).sides, id="int-1"),
            pytest.param(random_quad(random.Random(79), max_side=100).sides, id="int-2"),
            # small parts keep the oracle's per-sample factoring quick
            pytest.param((Fraction(15, 2), Fraction(13, 3), 9, Fraction(41, 4)), id="rational"),
            pytest.param((Surd(3, 2), Surd(2, 2), 2, 4), id="surd"),
        ],
    )
    def test_kernel_matches_embedding_oracle(self, sides):
        digits = 30
        q = quad(*sides)
        result = area_scan(q, 999, digits)
        lower, upper = diagonal_range(q)
        lo = approx(lower, digits)
        step = (approx(upper, digits) - lo) / 1000
        bound = Fraction(2, 10 ** (digits + GUARD_DIGITS))
        oracle_areas = []
        for i, (diag, area) in enumerate(result.samples, start=1):
            assert diag == lo + i * step
            dq = DiagQuad(q, diag)
            expected = shoelace_area(embed(dq, digits))
            assert render_decimal(area, digits) == render_decimal(expected, digits)
            reference = shoelace_area(embed(dq, digits + 30))
            assert abs(area - reference) <= bound * reference
            oracle_areas.append(expected)
        first_max = oracle_areas.index(max(oracle_areas))
        assert result.argmax_diagonal == result.samples[first_max][0]
        assert result.max_area == result.samples[first_max][1]

    @pytest.mark.parametrize(
        "sides",
        [
            pytest.param((Surd(3, 2), Surd(2, 3), 3, 4), id="rational-ends"),
            pytest.param((Surd(3, 2), Surd(2, 3), 4, 4), id="surd-sum-ends"),
        ],
    )
    def test_surd_sides_over_distinct_radicands(self, sides):
        # reference: Heron's product form, exact in surd arithmetic (the
        # embedding oracle would factor each sample's long-decimal diagonal)
        digits = 10
        q = quad(*sides)
        a, b, c, d = q.sides
        lower, upper = diagonal_range(q)
        result = area_scan(q, 9, digits)
        assert len(result.samples) == 9
        assert lower < result.samples[0][0] < result.samples[-1][0] < upper
        bound = Fraction(2, 10 ** (digits + GUARD_DIGITS))

        def quarter_root(s, t, x):
            sixteen_t2 = (s + t + x) * (t + x - s) * (s + x - t) * (s + t - x)
            return sqrt_fraction(sixteen_t2, digits + 30 + GUARD_DIGITS) / 4

        for diag, area in result.samples:
            x = diag
            reference = quarter_root(a, b, x) + quarter_root(c, d, x)
            assert abs(area - reference) <= bound * reference

    def test_side_with_irrational_square_refused(self):
        with pytest.raises(IncompatibleRadicands):
            area_scan(quad(Surd(1, 2) + 1, 3, 3, 3), 9, 10)

    def test_no_factoring_or_embedding_per_sample(self, monkeypatch):
        calls = []
        original = exactnum.square_free_split

        def counted(n):
            calls.append(n)
            return original(n)

        def no_embed(*args, **kwargs):
            raise AssertionError("area_scan must not embed its samples")

        monkeypatch.setattr(exactnum, "square_free_split", counted)
        monkeypatch.setattr(oracle, "embed", no_embed)
        result = area_scan(quad(75, 40, 51, 68), 999, 30)
        assert len(result.samples) == 999
        assert calls == []

    def test_invalid_grid_diagonal_raises(self):
        # feasible diagonals run from sqrt(2) to sqrt(2) + 1e-12; at one digit
        # the rounded-down lower end puts the first grid point below sqrt(2)
        c = Fraction(1414213562374, 10**12) - Fraction(1, 2)
        q = quad(Surd(2, 2), Surd(1, 2), c, Fraction(1, 2))
        with pytest.raises(InvalidTriangle):
            area_scan(q, 3, 1)
        assert len(area_scan(q, 3, 20).samples) == 3

    def test_steps_validated(self):
        with pytest.raises(ValueError):
            area_scan(quad(25, 25, 25, 25), 2, 20)
