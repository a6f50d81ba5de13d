import random
from fractions import Fraction
from math import isqrt, lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from cyclicquad import cli, exactnum, oracle
from cyclicquad.exactnum import (
    GUARD_DIGITS,
    IncompatibleRadicands,
    Surd,
    approx,
    render_decimal,
)
from cyclicquad.mensuration import (
    DiagQuad,
    InvalidQuad,
    InvalidTriangle,
    Triangle,
    area_by_diagonal,
    cyclic_diagonal_pair,
    heron_area,
    quad,
    sutra_area,
)
from cyclicquad.oracle import (
    DegenerateCollinear,
    area_scan,
    concyclic,
    concyclic_exact,
    diagonal_range,
    embed,
    scan_grid,
    shoelace_area,
)

from conftest import (
    embed_triangle,
    figure_lengths,
    random_diag_quad,
    random_quad,
    reference_concyclic_exact,
    sqrt_fraction,
    time_limit,
)


def random_rational_quad(rng: random.Random):
    while True:
        sides = (Fraction(rng.randint(1, 60), rng.randint(1, 6)) for _ in range(4))
        try:
            return quad(*sides)
        except InvalidQuad:
            continue


def random_surd_quad(rng: random.Random):
    """Four single-term surd or rational sides c*sqrt(r), each with a
    rational square."""
    while True:
        sides = (
            Surd(Fraction(rng.randint(1, 40), rng.randint(1, 4)), rng.choice((1, 2, 3, 5, 6)))
            for _ in range(4)
        )
        try:
            return quad(*sides)
        except InvalidQuad:
            continue


def reference_scan(q, steps: int, digits: int):
    """`area_scan`'s former per-sample loop, kept as the reference for its
    list-built kernel: (den, x0, dx, roots, area_den, argmax).  The ends are
    approximated to `digits` places, doubled until the first and last
    samples lie strictly inside the feasible interval."""
    lower, upper = diagonal_range(q)
    places = digits
    while True:
        lo = approx(lower, places)
        hi = approx(upper, places)
        step = (hi - lo) / (steps + 1)
        if lower < lo + step < hi - step < upper:
            break
        places *= 2
    squares = [s * s for s in q]
    den = lcm(lo.denominator, step.denominator, *(v.denominator for v in squares))
    sa, sb, sc, sd = (v.numerator * (den // v.denominator) for v in squares)
    dx = step.numerator * (den // step.denominator)
    x0 = lo.numerator * (den // lo.denominator) + dx
    k1, c1 = 2 * (sa + sb) * den, (sa - sb) ** 2 * den * den
    k2, c2 = 2 * (sc + sd) * den, (sc - sd) ** 2 * den * den
    scale = 10 ** (digits + GUARD_DIGITS)
    scale_sq = scale * scale
    roots = []
    for i in range(steps):
        xx = (x0 + i * dx) ** 2
        x4 = xx * xx
        p1 = k1 * xx - x4 - c1
        p2 = k2 * xx - x4 - c2
        assert p1 > 0 and p2 > 0
        roots.append(isqrt(p1 * scale_sq) + isqrt(p2 * scale_sq))
    argmax = max(range(steps), key=roots.__getitem__)
    return den, x0, dx, tuple(roots), 4 * den * den * scale, argmax


# feasible diagonals from sqrt(2) to sqrt(2) + 1e-12
THIN_SQRT2 = quad(Surd(2, 2), Surd(1, 2), Fraction(1414213562374, 10**12) - Fraction(1, 2),
                  Fraction(1, 2))


def assert_inside_interval(q, result):
    """The grid runs upwards, and every sample lies strictly inside the
    feasible interval."""
    lower, upper = diagonal_range(q)
    assert result.grid.dx > 0
    assert all(lower < diag < upper for diag, _ in result.samples)


def unrefined_diagonal(q, steps: int, digits: int, i: int) -> Fraction:
    """Grid diagonal i on the ends approximated to `digits` places alone."""
    lo, hi = (approx(v, digits) for v in diagonal_range(q))
    return lo + (i + 1) * (hi - lo) / (steps + 1)


class TestEmbed:
    def test_lilavati_quad_apexes(self):
        points = embed(DiagQuad(quad(75, 68, 51, 40), 77))
        assert points == ((0, 0), (45, 60), (77, 0), (32, -24))

    def test_unit_square(self):
        points = embed(DiagQuad(quad(1, 1, 1, 1), Surd(1, 2)))
        half_diag = Surd(Fraction(1, 2), 2)
        assert points[1] == (half_diag, half_diag)
        assert points[3] == (half_diag, -half_diag)

    def test_right_kite(self):
        points = embed(DiagQuad(quad(3, 4, 4, 3), 5))
        assert points[1] == (Fraction(9, 5), Fraction(12, 5))
        assert points[3] == (Fraction(9, 5), Fraction(-12, 5))

    def test_side_lengths_recovered(self):
        rng = random.Random(59)
        for _ in range(50):
            dq = random_diag_quad(rng)
            points = embed(dq)
            for i, side in enumerate(dq.sides):
                (x1, y1), (x2, y2) = points[i], points[(i + 1) % 4]
                dx, dy = x2 - x1, y2 - y1
                assert dx * dx + dy * dy == side * side


class TestShoelace:
    def test_lilavati_quad(self):
        assert shoelace_area(embed(DiagQuad(quad(75, 68, 51, 40), 77))) == 3234

    def test_unit_square(self):
        assert shoelace_area(embed(DiagQuad(quad(1, 1, 1, 1), Surd(1, 2)))) == 1

    def test_lilavati_trapezium_via_diagonal(self):
        assert shoelace_area(embed(DiagQuad(quad(14, 13, 9, 12), 15))) == 138

    def test_triangle_embedding_matches_heron(self):
        rng = random.Random(61)
        for _ in range(500):
            sides = sorted(rng.randint(1, 200) for _ in range(3))
            if sides[2] >= sides[0] + sides[1]:
                continue
            t = Triangle(*sides)
            assert shoelace_area(embed_triangle(t)) == heron_area(t)

    def test_agrees_with_heron_split(self):
        rng = random.Random(67)
        for _ in range(500):
            dq = random_diag_quad(rng)
            t1, t2 = [heron_area(t) for t in dq.triangles]
            assert shoelace_area(embed(dq)) == t1 + t2


class TestConcyclic:
    def test_lilavati_quad_cyclic(self):
        dq = DiagQuad(quad(75, 68, 51, 40), 77)
        assert concyclic(embed(dq))
        assert concyclic_exact(dq)

    def test_other_diagonal_not_cyclic(self):
        dq = DiagQuad(quad(75, 68, 51, 40), 70)
        assert not concyclic(embed(dq))
        assert not concyclic_exact(dq)

    def test_rectangle(self):
        dq = DiagQuad(quad(3, 4, 3, 4), 5)
        assert concyclic(embed(dq))
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

    def test_embedding_agrees_with_the_exact_rules(self):
        # two independent exact answers per figure: the embedding's shoelace
        # area and in-circle test against the Heron split and the law of
        # cosines, on random rational diagonals, the surd cyclic diagonal of
        # every fifth quad, and two figures with surd sides or diagonal
        rng = random.Random(83)
        figures = [
            DiagQuad(quad(1, 1, 1, 1), Surd(1, 2)),
            DiagQuad(quad(Surd(3, 2), 5, 6, 7), 8),
        ]
        for i in range(500):
            q = random_rational_quad(rng)
            lo, hi = diagonal_range(q)
            figures.append(DiagQuad(q, lo + (hi - lo) * Fraction(rng.randint(1, 69), 70)))
            if i % 5 == 0:
                figures.append(DiagQuad(q, cyclic_diagonal_pair(q).p))
        cyclic = 0
        for dq in figures:
            points = embed(dq)
            assert shoelace_area(points) == area_by_diagonal(dq).split_area
            exact = concyclic_exact(dq)
            assert concyclic(points) == exact
            cyclic += exact
        assert cyclic >= 100

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

    def test_in_circle_takes_no_square_root(self, monkeypatch):
        # the embedding takes the heights' square roots before counting starts
        embeddings = [
            embed(DiagQuad(quad(75, 68, 51, 40), 77)),
            embed(DiagQuad(quad(14, 12, 9, 13), 15)),
            embed(DiagQuad(quad(2, 3, 4, 5), Surd.sqrt(Fraction(253, 13)))),
            embed(DiagQuad(quad(Surd(3, 2), 5, 6, 7), 8)),
        ]
        seen = []
        original = exactnum.square_free_split

        def counting(n):
            seen.append(n)
            return original(n)

        monkeypatch.setattr(exactnum, "square_free_split", counting)
        assert [concyclic(points) for points in embeddings] == [True, False, True, False]
        assert seen == []

    def test_rhombus_at_any_scale(self):
        # a rhombus at scale 1e-40 is cyclic only if it is a square
        unit = Fraction(1, 10**40)
        sides = quad(25 * unit, 25 * unit, 25 * unit, 25 * unit)
        assert not concyclic(embed(DiagQuad(sides, Fraction(303, 10) * unit)))
        assert concyclic(embed(DiagQuad(sides, Surd(25, 2) * unit)))

    def test_surd_cyclic_diagonal(self):
        # the cyclic diagonal of (2, 3, 4, 5) is irrational
        dq = DiagQuad(quad(2, 3, 4, 5), Surd.sqrt(Fraction(253, 13)))
        assert concyclic_exact(dq)
        assert concyclic(embed(dq))
        assert not concyclic(embed(DiagQuad(quad(2, 3, 4, 5), Fraction(22, 5))))

    @settings(deadline=None)
    @given(figure_lengths(5))
    @example((75, 68, 51, 40, 77))
    @example(tuple(Fraction(n, 7) for n in (75, 68, 51, 40, 77)))
    @example((2, 3, 4, 5, Surd.sqrt(Fraction(253, 13))))
    @example((25, 25, 25, 25, Surd(25, 2)))
    def test_exact_equals_its_reference(self, lengths):
        # on the lengths in one unit, the same answer as the law of cosines
        # on the lengths as given
        dq = DiagQuad(quad(*lengths[:4]), lengths[4])
        assert concyclic_exact(dq) is reference_concyclic_exact(dq)

    def test_degenerate_collinear(self):
        # a rhombus folded almost flat, its apexes near the axis, is decided
        dq = DiagQuad(quad(5, 5, 5, 5), Fraction(9999999999999, 10**12))
        assert not concyclic(embed(dq))
        # only exactly collinear points, built by hand, leave no circle
        root = Surd(1, 2)
        with pytest.raises(DegenerateCollinear):
            concyclic([(0, 0), (root, 2 * root), (3 * root, 6 * root), (1, 0)])


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
        argmax_diagonal, max_area = result.samples[result.argmax]
        assert abs(max_area - 625) < Fraction(1, 10**3)
        target = Surd(25, 2).approx(30)
        step = Fraction(50, 1000)
        assert abs(argmax_diagonal - target) <= step

    def test_square_family_hits_rhombus_samples(self):
        # grid step is 0.05, so diagonals 14 and 30 are sampled exactly
        result = area_scan(quad(25, 25, 25, 25), 999, 30)
        by_diag = {d: a for d, a in result.samples}
        assert abs(by_diag[Fraction(30)] - 600) < Fraction(1, 10**20)
        assert abs(by_diag[Fraction(14)] - 336) < Fraction(1, 10**20)

    def test_lilavati_family_peak(self):
        result = area_scan(quad(75, 40, 51, 68), 999, 30)
        argmax_diagonal, max_area = result.samples[result.argmax]
        assert abs(max_area - 3234) < Fraction(1, 100)
        step = Fraction(115 - 35, 1000)
        assert abs(argmax_diagonal - 85) <= step

    def test_samples_strictly_increasing_and_vary(self):
        result = area_scan(quad(14, 13, 9, 12), 99, 20)
        diags = [d for d, _ in result.samples]
        assert diags == sorted(diags) and len(set(diags)) == len(diags)
        areas = [a for _, a in result.samples]
        assert min(areas) < max(areas)
        assert areas[result.argmax] == max(areas)

    def test_scan_maximality_random(self):
        rng = random.Random(71)
        for _ in range(5):
            q = random_quad(rng, max_side=100)
            lower, upper = diagonal_range(q)
            step = (Fraction(upper) - Fraction(lower)) / 1000
            result = area_scan(q, 999, 30)
            argmax_diagonal, max_area = result.samples[result.argmax]
            target = approx(cyclic_diagonal_pair(q).p, 30)
            assert abs(argmax_diagonal - target) <= step
            ceiling = approx(sutra_area(q), 30)
            assert max_area <= ceiling + Fraction(1, 10**6)

    @pytest.mark.parametrize(
        "sides",
        [
            pytest.param(tuple(random_quad(random.Random(73), max_side=100)), id="int-1"),
            pytest.param(tuple(random_quad(random.Random(79), max_side=100)), id="int-2"),
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
            exact = shoelace_area(embed(DiagQuad(q, diag)))
            expected = render_decimal(approx(exact, digits), digits)
            assert render_decimal(area, digits) == expected
            reference = approx(exact, digits + 30)
            assert abs(area - reference) <= bound * reference
            oracle_areas.append(exact)
        assert result.argmax == oracle_areas.index(max(oracle_areas))

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
        a, b, c, d = q
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
        # the rounded-down lower end would put the first grid point below
        # sqrt(2), so the ends are refined and the scan succeeds
        result = area_scan(THIN_SQRT2, 3, 1)
        assert_inside_interval(THIN_SQRT2, result)
        assert_peak_matches_scan(THIN_SQRT2, 3, 1)
        assert len(area_scan(THIN_SQRT2, 3, 20).samples) == 3

    @pytest.mark.parametrize("digits", [12, 50])
    @pytest.mark.parametrize("make_quad", [random_rational_quad, random_surd_quad])
    def test_kernel_matches_per_sample_loop(self, make_quad, digits):
        rng = random.Random(digits * 7 + len(make_quad.__name__))
        for _ in range(25):
            q = make_quad(rng)
            steps = rng.choice((3, 4, 17, 99, 250))
            result = area_scan(q, steps, digits)
            grid = result.grid
            den, x0, dx, roots, area_den, argmax = reference_scan(q, steps, digits)
            assert (grid.den, grid.x0, grid.dx, grid.area_den) == (den, x0, dx, area_den)
            assert result.roots == roots
            assert result.argmax == argmax

    def test_invalid_grid_names_the_first_failing_diagonal(self):
        # the scan of test_invalid_grid_diagonal_raises: with one-digit ends
        # every grid point would lie below sqrt(2), the least feasible
        # diagonal; the refined grid matches the per-sample reference
        lo, hi = (approx(v, 1) for v in diagonal_range(THIN_SQRT2))
        assert all(lo + i * (hi - lo) / 4 < Surd(1, 2) for i in (1, 2, 3))
        result = area_scan(THIN_SQRT2, 3, 1)
        grid = result.grid
        den, x0, dx, roots, area_den, argmax = reference_scan(THIN_SQRT2, 3, 1)
        assert (grid.den, grid.x0, grid.dx, grid.area_den) == (den, x0, dx, area_den)
        assert (result.roots, result.argmax) == (roots, argmax)

    def test_steps_validated(self):
        with pytest.raises(ValueError):
            area_scan(quad(25, 25, 25, 25), 2, 20)


class TestGridArithmetic:
    """`ScanGrid.diagonals`, `radicands` and `roots` against the per-sample
    reference, each triangle's P against its Fraction value Q^4 * 16T^2."""

    @pytest.mark.parametrize("make_quad", [random_rational_quad, random_surd_quad])
    def test_match_per_sample_reference(self, make_quad):
        rng = random.Random(len(make_quad.__name__))
        for _ in range(20):
            q = make_quad(rng)
            steps, digits = rng.choice((3, 4, 17, 99)), rng.choice((12, 50))
            grid = scan_grid(q, steps, digits)
            assert grid.steps == steps
            den, x0, dx, roots, _, _ = reference_scan(q, steps, digits)
            sa, sb, sc, sd = (s * s for s in q)
            for indices in (range(steps), range(steps - 1, -1, -2), [steps - 1, 0, steps // 2]):
                diagonals = grid.diagonals(indices)
                assert list(diagonals) == [x0 + i * dx for i in indices]
                p1, p2 = grid.radicands(indices)
                for x, u, v in zip(diagonals, p1, p2, strict=True):
                    xx = Fraction(x, den) ** 2
                    assert u == den**4 * (2 * (sa + sb) * xx - xx * xx - (sa - sb) ** 2)
                    assert v == den**4 * (2 * (sc + sd) * xx - xx * xx - (sc - sd) ** 2)
                assert grid.roots(indices) == [roots[i] for i in indices]

    @pytest.mark.parametrize("steps", [3, 9, 10**12])
    def test_grid_carries_its_steps(self, steps):
        assert scan_grid(quad(75, 40, 51, 68), steps, 12).steps == steps


def quads_of(sides):
    """Valid quadrilaterals with four sides drawn from `sides`."""

    def build(drawn):
        try:
            return quad(*drawn)
        except InvalidQuad:
            return None

    return st.tuples(sides, sides, sides, sides).map(build).filter(lambda q: q is not None)


rational_sides = st.builds(Fraction, st.integers(1, 90), st.sampled_from((1, 2, 3, 7)))
surd_sides = st.builds(
    Surd,
    st.builds(Fraction, st.integers(1, 40), st.integers(1, 4)),
    st.sampled_from((1, 2, 3, 5, 6)),
)
# near-symmetric figures: kites and near-kites (a, a + e, b, b + f)
near_kites = st.builds(
    lambda a, e, b, f: quad(a, a + e, b, b + f),
    st.integers(1, 60),
    st.integers(0, 1),
    st.integers(1, 60),
    st.integers(0, 1),
)
# the peak of (75, 40, 51, 68), at diagonal 85, falls exactly halfway between
# two grid points when steps + 1 is 4 times an odd number
midway_scans = st.tuples(
    st.builds(
        lambda n, d: quad(*(Fraction(75 * n, d), Fraction(40 * n, d), Fraction(51 * n, d),
                            Fraction(68 * n, d))),
        st.integers(1, 10**6),
        st.integers(1, 10**6),
    ),
    st.integers(0, 1249).map(lambda m: 4 * (2 * m + 1) - 1),
)
scans = st.one_of(
    st.tuples(quads_of(rational_sides) | quads_of(surd_sides) | near_kites, st.integers(3, 10**4)),
    midway_scans,
)


def assert_peak_matches_scan(q, steps: int, digits: int):
    """scan_grid(q) is area_scan(q)'s whole grid, k, m and scale included,
    its peak is area_scan's argmax, and its roots at the first sample, the
    argmax and the last sample are area_scan's."""
    full = area_scan(q, steps, digits)
    grid = scan_grid(q, steps, digits)
    assert grid == full.grid
    argmax = grid.peak()
    assert argmax == full.argmax
    shown = (0, argmax, steps - 1)
    assert grid.roots(shown) == [full.roots[i] for i in shown]


# quadrilateral (sqrt(2), 1, s*sqrt(3), sqrt(2)): its feasible diagonals run
# from s*sqrt(3) - sqrt(2) to 1 + sqrt(2), about 9.5e-14 wide, and at 3 digits
# the upper end rounds down by about as much while the lower end rounds up by
# 9e-28.  So the rounded upper end falls below the rounded lower one: a grid
# on those ends would run downwards (dx < 0), and where it also falls below
# the true lower end, its last samples would lie below the least feasible
# diagonal.  The scan refines the ends until its grid runs upwards inside.
DESCENDING = Fraction(22103434310450229535227636939, 10**28)
FAILS_AT_LAST = Fraction(22103434310450229535227636941, 10**28)
FAILS_INSIDE = Fraction(22103434310450229535227636945, 10**28)


def thin_quad(s: Fraction):
    return quad(Surd(1, 2), 1, Surd(s, 3), Surd(1, 2))


class TestScanPeak:
    @settings(deadline=None, max_examples=150)
    @given(scans, st.sampled_from((12, 50)))
    def test_matches_area_scan(self, scan, digits):
        q, steps = scan
        assert_peak_matches_scan(q, steps, digits)

    @pytest.mark.parametrize(
        "s, steps",
        [(DESCENDING, 3), (DESCENDING, 10), (DESCENDING, 99), (FAILS_AT_LAST, 3), (FAILS_AT_LAST, 4)],
    )
    def test_descending_grid(self, s, steps):
        # three-digit ends would give a descending grid; the refined one
        # runs upwards inside the interval
        q = thin_quad(s)
        assert unrefined_diagonal(q, steps, 3, 1) < unrefined_diagonal(q, steps, 3, 0)
        assert_inside_interval(q, area_scan(q, steps, 3))
        assert_peak_matches_scan(q, steps, 3)

    @pytest.mark.parametrize(
        "q, steps, digits, index",
        [
            # the rounded-down lower end puts every grid point below sqrt(2)
            (THIN_SQRT2, 3, 1, 0),
            (thin_quad(FAILS_AT_LAST), 10, 3, 9),
            (thin_quad(FAILS_INSIDE), 10, 3, 5),
            (thin_quad(FAILS_INSIDE), 100, 3, 52),
        ],
        ids=["first", "last", "inside", "inside-100"],
    )
    def test_invalid_grid_raises_like_area_scan(self, q, steps, digits, index):
        # on ends approximated to `digits` places alone, grid point `index`
        # would be the first outside the feasible interval; the refined grid
        # has every sample inside, and both scans succeed and agree
        lower, upper = diagonal_range(q)
        assert not lower < unrefined_diagonal(q, steps, digits, index) < upper
        assert all(lower < unrefined_diagonal(q, steps, digits, i) < upper for i in range(index))
        assert_inside_interval(q, area_scan(q, steps, digits))
        assert_peak_matches_scan(q, steps, digits)

    @pytest.mark.parametrize(
        "fake",
        [
            # a plateau far from the true peak, at index 624
            lambda i: 10**6 - 3 * max(0, abs(i - 100) - 20),
            # a top flatter than 2 units for 30 samples on each side
            lambda i: 10**6 - (i - 624) ** 2 // 1000,
        ],
        ids=["far-plateau", "flat-top"],
    )
    def test_window_widens_until_certified(self, monkeypatch, fake):
        # the answer rests on the certificate, not on where bisection put
        # the window: any unimodal roots give their first maximum.  A wider
        # window takes only the roots it does not hold yet
        taken = []

        def fake_roots(self, indices):
            taken.extend(indices)
            return list(map(fake, indices))

        monkeypatch.setattr(oracle.ScanGrid, "roots", fake_roots)
        grid = scan_grid(quad(75, 40, 51, 68), 999, 12)
        assert grid.peak() == max(range(999), key=fake)
        assert len(taken) == len(set(taken))

    @pytest.mark.parametrize("sides", [(75, 40, 51, 68), (28, 67, 91, 62), (96, 44, 85, 86)])
    def test_text_scan_takes_each_root_once(self, monkeypatch, capsys, sides):
        # the peak's window roots are kept for the report: each root is
        # taken once, the window's 4 together and both ends' together
        taken = []
        roots = oracle.ScanGrid.roots

        def counted(self, indices):
            taken.append(list(indices))
            return roots(self, indices)

        monkeypatch.setattr(oracle.ScanGrid, "roots", counted)
        assert cli.main(["scan", *map(str, sides)]) == 0
        capsys.readouterr()
        indices = [i for call in taken for i in call]
        assert len(taken) == 2 and len(indices) == len(set(indices)) == 6
        assert {0, 998} <= set(indices)

    def test_text_scan_at_a_trillion_steps(self, monkeypatch, capsys):
        def no_full_grid(*args):
            raise AssertionError("a text scan must not evaluate the whole grid")

        monkeypatch.setattr(oracle, "area_scan", no_full_grid)
        with time_limit(5):
            code = cli.main(["--steps", "1000000000000", "scan", "75", "40", "51", "68"])
        assert code == 0
        captured = capsys.readouterr()
        assert "  steps: 1000000000000\n" in captured.out
        assert "  argmax_diagonal: 85.0000000000\n  max_area: 3234.00000000\n" in captured.out
        assert captured.err == ""

    def test_steps_validated(self):
        with pytest.raises(ValueError):
            scan_grid(quad(25, 25, 25, 25), 2, 20)
