import copy
import pickle
import random
from fractions import Fraction
from math import isqrt, prod

import pytest
from hypothesis import given, settings, strategies as st

from cyclicquad import exactnum
from cyclicquad.exactnum import (
    GUARD_DIGITS,
    IncompatibleRadicands,
    NegativeRadicand,
    Surd,
    approx,
    fixed_point,
    fixed_ratio,
    render_decimal,
    render_ratio,
    square_free_split,
    sqrt_fraction,
    to_exact,
)


@pytest.fixture
def split_calls(monkeypatch):
    """The argument of each ``square_free_split`` call, in order."""
    calls = []
    original = exactnum.square_free_split

    def counted(n):
        calls.append(n)
        return original(n)

    monkeypatch.setattr(exactnum, "square_free_split", counted)
    return calls


def is_normal_form(value) -> bool:
    """A Fraction, or a Surd whose terms are a normal form with an
    irrational term: no Surd has a rational value."""
    if isinstance(value, Fraction):
        return True
    terms = value.terms
    radicands = [r for _, r in terms]
    return (
        isinstance(value, Surd)
        and radicands[-1] > 1
        and radicands == sorted(set(radicands))
        and all(c and square_free_split(r) == (1, r) for c, r in terms)
    )


coefficients = st.integers(-50, 50) | st.fractions(max_denominator=50)
radicands = st.integers(0, 10**6) | st.integers(0, 1000).map(lambda n: n * n)


class TestNormalize:
    def test_extracts_square_factors(self):
        s = Surd(1, 19800)
        assert s.coefficient == 30 and s.radicand == 22

    def test_perfect_square(self):
        s = Surd(1, 9)
        assert s == 3 and isinstance(s, Fraction)

    def test_zero_coefficient_absorbs_radicand(self):
        s = Surd(0, 7)
        assert s == 0 and isinstance(s, Fraction)

    def test_zero_radicand_gives_zero(self):
        s = Surd(5, 0)
        assert s == 0 and isinstance(s, Fraction)

    def test_negative_radicand_rejected(self):
        with pytest.raises(NegativeRadicand):
            Surd(1, -2)

    def test_idempotent(self):
        rng = random.Random(7)
        for _ in range(200):
            s = Surd(Fraction(rng.randint(-50, 50), rng.randint(1, 50)), rng.randint(1, 10**6))
            c, r = (s.coefficient, s.radicand) if isinstance(s, Surd) else (s, 1)
            again = Surd(c, r)
            assert again == s and type(again) is type(s)

    @given(coefficients, radicands, coefficients, radicands)
    def test_constructor_returns_normal_form(self, c, r, c2, r2):
        value = Surd(c, r)
        assert isinstance(value, Surd) == (c != 0 and isqrt(r) ** 2 != r)
        assert value == c * Surd.sqrt(r)
        other = Surd(c2, r2)
        results = [value, value + other, value - other, value * other, -value]
        if other:
            results.append(value / other)
        assert all(is_normal_form(v) for v in results)

    def test_rational_values_are_not_factored(self, split_calls):
        assert Surd(3, 10**40) == 3 * 10**20
        assert Surd(Fraction(2, 7), 0) == 0
        assert Surd.sqrt(Fraction(49, 36)) == Fraction(7, 6)
        assert Surd.sqrt(0) == 0
        assert split_calls == []
        assert Surd(1, 8).terms == ((Fraction(2), 2),) and split_calls == [8]

    @given(st.integers(min_value=1, max_value=10**12))
    def test_square_free_split_reconstructs(self, n):
        outer, core = square_free_split(n)
        assert outer * outer * core == n
        # core has no square divisor
        assert square_free_split(core) == (1, core)


def reference_square_free_split(n: int) -> tuple[int, int]:
    """The trial division to the cube root that the factoring replaced."""
    outer = 1
    core = 1
    d = 2
    while d * d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            outer *= d ** (e // 2)
            if e % 2:
                core *= d
        d += 1 if d == 2 else 2
    r = isqrt(n)
    if r * r == n:
        outer *= r
    else:
        core *= n
    return outer, core


# 10**11 + 3 and 10**11 + 19 are prime, as are 1009, 1013, 1019, 1000003 and
# 1000033.
SEMIPRIME_22_DIGITS = (10**11 + 3) * (10**11 + 19)
# Least prime above 3,317,044,064,679,887,385,961,981, the bound below which
# Miller-Rabin with the 13 prime bases up to 41 is proven.
PRIME_ABOVE_MILLER_RABIN_BOUND = 3317044064679887385962123


class TestSquareFreeSplit:
    @given(st.integers(min_value=1, max_value=10**13 - 1))
    def test_matches_reference(self, n):
        assert square_free_split(n) == reference_square_free_split(n)

    @given(st.integers(min_value=1, max_value=10**13 - 1), st.integers(min_value=2, max_value=10**6))
    def test_square_times_n_matches_reference(self, n, k):
        # k*k*n = (k*outer)**2 * core is the unique split when n = outer**2 * core
        outer, core = reference_square_free_split(n)
        assert square_free_split(k * k * n) == (k * outer, core)

    @pytest.mark.parametrize(
        "n, expected",
        [
            # Carmichael numbers: 7*11*13*41 and 5*7*17*19*73
            (41041, (1, 41041)),
            (825265, (1, 825265)),
            # a strong pseudoprime to base 2: 151*751*28351
            (3215031751, (1, 3215031751)),
            (1009**2, (1009, 1)),
            (1000003**2, (1000003, 1)),
            (1009**2 * 1013, (1009, 1013)),
            (1000003**2 * 1000033, (1000003, 1000033)),
            (1009**3 * 1013**4, (1009 * 1013**2, 1009)),
            ((1009 * 1013) ** 2 * 1019, (1009 * 1013, 1019)),
            (SEMIPRIME_22_DIGITS, (1, SEMIPRIME_22_DIGITS)),
            # 399165290221 * 798330580441, a strong pseudoprime to all 12
            # prime bases up to 37; base 41 witnesses it
            (318665857834031151167461, (1, 318665857834031151167461)),
            # the Heron radicand of `area 12433071/61 92602035/488
            # 185871427/976` times 1952**2: 11*541*95783 and three primes
            # near 2*10**8
            (3883006676443045890647088289187111, (1, 3883006676443045890647088289187111)),
        ],
    )
    def test_adversarial_cases(self, n, expected):
        assert square_free_split(n) == expected

    def test_miller_rabin_verdicts(self):
        # 13 bases: the 12 up to 37 pass the first, and all 13 pass the
        # bound itself, 1287836182261 * 2575672364521
        assert not exactnum._passes_miller_rabin(318665857834031151167461)
        assert exactnum._passes_miller_rabin(exactnum._MILLER_RABIN_PROVEN)
        assert not exactnum._passes_miller_rabin(3215031751)
        assert not exactnum._passes_miller_rabin(825265)
        assert exactnum._passes_miller_rabin(10**11 + 3)
        assert exactnum._passes_miller_rabin(PRIME_ABOVE_MILLER_RABIN_BOUND)

    def test_probable_prime_above_bound_takes_trial_division(self, monkeypatch):
        # certified trial division of a number this size runs to its cube
        # root, about 7.5*10**7 divisions; record the routing instead
        calls = []

        def recorded(n):
            calls.append(n)
            return 1, n

        monkeypatch.setattr(exactnum, "_trial_split", recorded)
        n = PRIME_ABOVE_MILLER_RABIN_BOUND
        assert square_free_split(n) == (1, n)
        assert square_free_split(n * 1009**2 * 3**3) == (1009 * 3, 3 * n)
        assert square_free_split(n * n) == (n, 1)
        assert calls == [n, n]
        # just below the bound, a pass proves primality
        calls.clear()
        below = 3317044064679887385961813  # the greatest prime below it
        assert square_free_split(below) == (1, below)
        assert calls == []

    def test_trial_division_fallback_is_exact(self, monkeypatch):
        # with the proven bound lowered, probable primes and the composites
        # built from them take the real fallback
        monkeypatch.setattr(exactnum, "_MILLER_RABIN_PROVEN", 10**6)
        for n in (1000003, 1000003 * 1000033, 1009**3 * 1000003, 10**9 + 7):
            assert square_free_split(n) == reference_square_free_split(n)


class TestArithmetic:
    def test_mul_examples(self):
        assert Surd(30, 22) * Surd(30, 22) == 19800
        assert Surd(1, 2) * Surd(1, 2) == 2
        assert Surd(Fraction(1, 2), 3) * Surd(4, 12) == 12

    def test_add_examples(self):
        assert Surd(2, 5) + Surd(3, 5) == Surd(5, 5)
        assert Surd(2, 5) + Surd(0) == Surd(2, 5)
        # distinct radicands: a two-term sum, not an error
        total = Surd(2, 5) + Surd(1, 3)
        assert isinstance(total, Surd)
        assert total.terms == ((Fraction(1), 3), (Fraction(2), 5))
        assert total > 0 and -total < 0
        assert Surd(1, 3) - Surd(2, 5) < 0
        # sympy.N(2*sqrt(5) + sqrt(3), 40) = 6.2041867625684566863457936789684248...
        assert render_decimal(total.approx(30), 30) == "6.20418676256845668634579367897"
        with pytest.raises(IncompatibleRadicands):
            total.coefficient

    def test_division_closed(self):
        assert Surd(1, 6) / Surd(1, 2) == Surd(1, 3)
        assert Surd(3, 5) / 3 == Surd(1, 5)
        assert 10 / Surd(1, 2) == Surd(5, 2)

    @given(
        st.fractions(max_denominator=10**4).filter(bool),
        st.fractions(max_denominator=10**4).filter(bool),
        st.integers(min_value=2, max_value=10**6).filter(lambda r: square_free_split(r)[0] == 1),
        coefficients,
        radicands,
    )
    def test_division_by_sum_over_one_radicand(self, a, b, r, c, s):
        x = a + Surd(b, r)
        inverse = 1 / x
        assert x * inverse == 1 and is_normal_form(inverse)
        # (a + b*sqrt(r)) * (a - b*sqrt(r)) = a*a - b*b*r
        assert inverse == (a - Surd(b, r)) / (a * a - b * b * r)
        y = Surd(c, s)
        assert (y / x) * x == y and is_normal_form(y / x)

    def test_mul_commutative_associative(self):
        rng = random.Random(11)
        for _ in range(1000):
            a, b, c = (
                Surd(Fraction(rng.randint(-20, 20), rng.randint(1, 20)), rng.randint(1, 500))
                for _ in range(3)
            )
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)

    def test_results_are_normal_forms(self):
        assert isinstance(Surd(1, 2) * Surd(1, 2), Fraction)
        assert isinstance(Surd(1, 2) + 3 - Surd(1, 2), Fraction)
        assert isinstance(Surd(1), Fraction)
        assert isinstance(Surd(1, 8) / Surd(1, 2), Fraction)
        assert isinstance(Surd.sqrt(Fraction(9, 4)), Fraction)
        # sqrt(6) * sqrt(10) = 2*sqrt(15), merged by gcd without factoring
        assert (Surd(1, 6) * Surd(1, 10)).terms == ((Fraction(2), 15),)

    def test_arithmetic_never_factors(self, split_calls):
        a = Surd(3, 2) + Surd(Fraction(1, 7), 15) - 4
        b = Surd(Fraction(-5, 3), 6) + Surd(2, 35)
        single = Surd(Fraction(2, 9), 30)
        split_calls.clear()
        results = [a + b, a - b, a * b, b * a, a * single, a / single,
                   single / b.terms[0][0], 7 / single, a * a * a, -a, abs(b)]
        assert all(isinstance(r, (Fraction, Surd)) for r in results)
        assert split_calls == []

    def test_unsupported_forms_raise(self):
        total = Surd(1, 2) + Surd(1, 3)
        with pytest.raises(IncompatibleRadicands):
            1 / total
        with pytest.raises(IncompatibleRadicands):
            Surd(1, 5) / total
        with pytest.raises(IncompatibleRadicands):
            Surd.sqrt(Surd(1, 2))
        with pytest.raises(IncompatibleRadicands):
            total.radicand
        with pytest.raises(ZeroDivisionError):
            Surd(1, 2) / Surd(0)

    def test_binomial_square_same_radicand(self):
        rng = random.Random(13)
        for _ in range(1000):
            r = rng.randint(1, 300)
            a = Surd(Fraction(rng.randint(-30, 30), rng.randint(1, 30)), r)
            b = Surd(Fraction(rng.randint(-30, 30), rng.randint(1, 30)), r)
            lhs = (a + b) * (a + b)
            rhs = a * a + 2 * a * b + b * b
            assert lhs == rhs


class TestDenesting:
    def test_square_of_a_binomial_denests(self):
        assert Surd.sqrt(3 + Surd(2, 2)) == 1 + Surd(1, 2)
        assert Surd.sqrt(3 - Surd(2, 2)) == Surd(1, 2) - 1
        # (sqrt(2) + sqrt(6))**2 = 8 + 4*sqrt(3)
        assert Surd.sqrt(8 + Surd(4, 3)) == Surd(1, 2) + Surd(1, 6)

    def test_refusals(self):
        with pytest.raises(NegativeRadicand):
            Surd.sqrt(-Surd(1, 2))
        with pytest.raises(NegativeRadicand):
            Surd.sqrt(1 - Surd(1, 2))
        # norm 1 - 2 = -1 is not a square
        with pytest.raises(IncompatibleRadicands, match="sqrt of the irrational"):
            Surd.sqrt(1 + Surd(1, 2))
        # norm 25 - 24 = 1 is a square, but the sum has two radicands
        with pytest.raises(IncompatibleRadicands, match="sqrt of the irrational"):
            Surd.sqrt(5 + Surd(2, 6) + Surd(1, 2))

    @given(coefficients, coefficients, radicands)
    def test_sqrt_of_a_square(self, p, q, r):
        x = p + Surd(q, r)
        root = Surd.sqrt(x * x)
        assert root == abs(x) and is_normal_form(root)


# Primes near 10**8: a product of a few of them is slow to factor whole
# by trial division, and their splits must merge across factors.
PRIMES_NEAR_10_8 = (99999959, 99999971, 99999989, 100000007, 100000037)

magnitudes = (
    st.integers(1, 60)  # small factors that share primes
    | st.integers(1, 300).map(lambda n: n * n)
    | st.just(1)
    | st.sampled_from(PRIMES_NEAR_10_8)
    | st.tuples(st.sampled_from(PRIMES_NEAR_10_8), st.integers(1, 12)).map(lambda t: t[0] * t[1])
)
rational_factors = st.tuples(
    st.booleans(),
    magnitudes | st.just(0),
    st.just(1) | st.integers(1, 40) | st.sampled_from(PRIMES_NEAR_10_8),
).map(lambda t: (-1 if t[0] else 1) * Fraction(t[1], t[2]))
factor_lists = st.lists(rational_factors | magnitudes, max_size=5)


class TestSqrtOfFactors:
    # the whole-product reference runs rho on up to ten primes near 10**8
    @settings(deadline=None)
    @given(factor_lists)
    def test_matches_the_whole_product(self, factors):
        product = Fraction(prod(factors))
        n, d = product.numerator, product.denominator
        if n < 0:
            with pytest.raises(NegativeRadicand):
                Surd.sqrt(*factors)
            return
        root = Surd.sqrt(*factors)
        # the constructor factors the whole product n*d at once
        expected = Surd(Fraction(1, d), n * d)
        assert root == expected and type(root) is type(expected)
        assert is_normal_form(root)

    def test_each_factor_is_split_on_its_own(self, split_calls):
        p, q = PRIMES_NEAR_10_8[:2]
        # sqrt(pq * q/6 * 3) = q*sqrt(p/2) = (q/2)*sqrt(2p)
        root = Surd.sqrt(p * q, Fraction(q, 6), 3)
        assert split_calls == [p * q, q, 6, 3]
        assert root.terms == ((Fraction(q, 2), 2 * p),)
        # a rational root is found without factoring
        split_calls.clear()
        assert Surd.sqrt(p, Fraction(p, 4), 9) == Fraction(3 * p, 2)
        assert Surd.sqrt() == 1 and Surd.sqrt(p, 0) == 0
        assert split_calls == []

    def test_a_surd_factor_multiplies_the_product_out(self, split_calls):
        # the second diagonal of a square with side a: (2a - d1)(2a + d1)
        # with d1 = a*sqrt(2) multiplies out to the rational 2*a**2
        a, root2 = Fraction(25), Surd(1, 2)
        split_calls.clear()
        root = Surd.sqrt(2 * a - a * root2, 2 * a + a * root2)
        assert root == 25 * root2 and split_calls == [1250]
        # an irrational product is denested: 6 + 4*sqrt(2) = (2 + sqrt(2))**2
        assert Surd.sqrt(root2, 3 * root2 + 4) == 2 + root2

    def test_refusals(self):
        with pytest.raises(NegativeRadicand):
            Surd.sqrt(-2, 3)
        with pytest.raises(NegativeRadicand):
            Surd.sqrt(Fraction(-1, 2), 2, 5)
        with pytest.raises(NegativeRadicand):
            Surd.sqrt(Surd(1, 2), -1)
        with pytest.raises(TypeError):
            Surd.sqrt(2, 0.5)
        with pytest.raises(TypeError):
            Surd.sqrt(Surd(1, 2), 2.0)


class TestCopyAndPickle:
    @pytest.mark.parametrize(
        "value",
        [Surd(1, 2), Surd(Fraction(-3, 7), 30), Surd(1, 2) + Surd(3, 5), Fraction(1, 3) - Surd(2, 3)],
        ids=["one-term", "fraction-coefficient", "two-term-sum", "rational-plus-term"],
    )
    @pytest.mark.parametrize(
        "clone",
        [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_round_trip_keeps_value_and_hash(self, value, clone):
        got = clone(value)
        assert isinstance(got, Surd)
        assert got == value and hash(got) == hash(value)
        assert got.terms == value.terms and is_normal_form(got)


class TestComparison:
    def test_lilavati_bracket(self):
        assert Surd(30, 22) < 141
        assert Surd(30, 22) > 138

    def test_equal_normalized_forms(self):
        assert Surd(2, 2) == Surd(1, 8)

    def test_sign_of_near_cancelling_sum(self):
        # sqrt(2) + sqrt(3) minus a rational less than 2e-90 below it: positive,
        # though the gap is invisible at 60 digits
        scale = 10**90
        below = Fraction(isqrt(2 * scale * scale) + isqrt(3 * scale * scale), scale)
        total = Surd(1, 2) + Surd(1, 3)
        assert total > below
        assert total < below + Fraction(3, scale)
        assert below < total

    def test_cmp_agrees_with_high_precision_approx(self):
        rng = random.Random(17)
        for _ in range(300):
            a = Surd(Fraction(rng.randint(-40, 40), rng.randint(1, 40)), rng.randint(1, 400))
            b = Surd(Fraction(rng.randint(-40, 40), rng.randint(1, 40)), rng.randint(1, 400))
            gap = approx(a, 60) - approx(b, 60)
            if abs(gap) > Fraction(1, 10**55):
                assert (a > b) if gap > 0 else (a < b)


class TestApprox:
    def test_root_19800(self):
        got = Surd(30, 22).approx(7)
        assert abs(got - Fraction("140.7124")) < Fraction(5, 10**4)

    def test_rational_value(self):
        assert render_decimal(approx(5, 3), 3) == "5.00"

    def test_root_two(self):
        assert render_decimal(Surd(1, 2).approx(5), 5) == "1.4142"

    def test_error_bound(self):
        # squared approximation must straddle the radicand tightly
        for digits in (10, 30, 50):
            v = Surd(1, 7).approx(digits)
            assert abs(v * v - 7) < Fraction(1, 10 ** (digits - 2))

    @given(
        st.integers(min_value=2, max_value=10**9).filter(lambda r: square_free_split(r)[0] == 1),
        st.fractions(max_denominator=10**6).filter(bool),
        st.integers(min_value=1, max_value=80),
    )
    def test_single_term_matches_floor_root(self, r, c, digits):
        # the former single-term formula, kept as the reference
        expected = c * sqrt_fraction(Fraction(r), digits + GUARD_DIGITS)
        assert Surd(c, r).approx(digits) == expected

    def test_rational_value_built_with_radicand_one(self):
        got = approx(Surd(5), 30)
        assert type(got) is Fraction and got == 5

    @pytest.mark.parametrize(
        "value", [3, Fraction(-7, 3), Surd(1, 2), Surd(2, 3) + Surd(1, 5) - 1]
    )
    def test_approx_returns_a_fraction(self, value):
        for digits in (1, 10, 60):
            assert type(approx(value, digits)) is Fraction

    def test_surd_never_equals_its_approximation(self):
        root = Surd(1, 2)
        for value in (root, -root, root + 1, Surd(1, 2) + Surd(1, 3)):
            for digits in (1, 10, 60):
                near = approx(value, digits)
                assert value != near and near != value
                assert len({value, near}) == 2
        assert root.approx(10) != root.approx(20)
        assert root.approx(10) == root.approx(10)


class TestRendering:
    def test_fixed_point_format(self):
        assert render_decimal(Fraction(575, 4), 10) == "143.7500000"
        assert render_decimal(Fraction(-3, 2), 4) == "-1.500"
        assert render_decimal(Fraction(0), 5) == "0.0000"

    def test_small_values_keep_significant_digits(self):
        # below 0.1 the digits - 1 significant digits of [0.1, 1) are kept
        assert render_decimal(Fraction(1, 10), 5) == "0.1000"
        assert render_decimal(Fraction(-123, 10000), 5) == "-0.01230"
        assert render_decimal(Fraction(1, 100), 5) == "0.01000"
        assert render_decimal(Fraction(1, 10**39), 12) == "0." + "0" * 38 + "10000000000"
        assert render_decimal(Fraction(99999, 10**6), 5) == "0.10000"

    def test_no_exponent_large_values(self):
        text = render_decimal(Fraction(10**30), 5)
        assert "e" not in text and "E" not in text

    def test_one_digit_below_one_keeps_a_significant_digit(self):
        assert render_decimal(Fraction(3, 10), 1) == "0.3"
        assert render_decimal(Fraction(-1, 500), 1) == "-0.002"
        assert render_decimal(Fraction(96, 100), 1) == "1.0"
        assert render_decimal(Fraction(1, 500), 2) == "0.002"

    def test_approximations_render_as_decimals(self):
        assert render_decimal(approx(Fraction(1, 3), 5), 5) == "0.3333"
        assert render_decimal(approx(2, 3), 3) == "2.00"
        root = sqrt_fraction(Fraction(2), 40)
        assert abs(root * root - 2) < Fraction(1, 10**38)


def reference_render_decimal(value, digits):
    """The Fraction-based renderer the integer version replaced."""
    value = Fraction(value)
    mag = abs(value)
    if mag >= 1:
        places = digits - len(str(int(mag)))
    elif mag:
        zeros = len(str((mag.denominator - 1) // mag.numerator)) - 1
        places = max(digits - 1, 1) + zeros
    else:
        places = digits - 1
    return reference_fixed_point(value, max(places, 0))


def reference_fixed_point(value, places):
    mag = abs(value)
    scale = 10**places
    units = (2 * mag.numerator * scale + mag.denominator) // (2 * mag.denominator)
    text = str(units).rjust(places + 1, "0")
    sign = "-" if value < 0 and units else ""
    if places:
        return f"{sign}{text[:-places]}.{text[-places:]}"
    return sign + text


signs = st.sampled_from([1, -1])
rendered_values = st.one_of(
    st.fractions(),
    st.integers(-(10**40), 10**40),
    # above 10**30
    st.builds(lambda s, n, d: s * Fraction(n, d), signs,
              st.integers(10**30, 10**45), st.integers(1, 10**6)),
    # below 10**-40
    st.builds(lambda s, n, k: s * Fraction(n, 10**k), signs,
              st.integers(1, 10**6), st.integers(47, 90)),
    # just below a power of ten, so rounding carries into a new digit:
    # 0.99999, -9996/10000, 999.96, ...
    st.builds(lambda s, a, b, e: s * Fraction(10**a - b, 10**e), signs,
              st.integers(1, 40), st.integers(1, 9), st.integers(0, 60)),
)


class TestIntegerRenderer:
    @given(rendered_values, st.integers(1, 60))
    def test_render_decimal_matches_fraction_reference(self, value, digits):
        assert render_decimal(value, digits) == reference_render_decimal(value, digits)

    @given(rendered_values, st.integers(0, 80))
    def test_fixed_point_matches_fraction_reference(self, value, places):
        assert fixed_point(value, places) == reference_fixed_point(Fraction(value), places)

    @given(rendered_values, st.integers(1, 10**30), st.integers(1, 60), st.integers(0, 80))
    def test_ratio_forms_match_on_unreduced_ratios(self, value, k, digits, places):
        value = Fraction(value)
        num, den = k * value.numerator, k * value.denominator
        assert render_ratio(num, den, digits) == render_decimal(value, digits)
        assert fixed_ratio(num, den, places) == fixed_point(value, places)

    @pytest.mark.parametrize("value", [Fraction(99999, 10**5), Fraction(-9996, 10000), Fraction(0), 0, -7])
    @pytest.mark.parametrize("digits", [1, 2, 4, 60])
    def test_carries_zero_and_integers(self, value, digits):
        assert render_decimal(value, digits) == reference_render_decimal(value, digits)


def test_to_exact_is_the_boundary_coercion():
    assert to_exact(3) == 3 and isinstance(to_exact(3), Fraction)
    half, root = Fraction(3, 2), Surd(1, 2)
    assert to_exact(half) is half and to_exact(root) is root
    # a rational value built with radicand 1 is already a Fraction
    assert isinstance(to_exact(Surd(Fraction(3, 2), 1)), Fraction)
    with pytest.raises(TypeError):
        to_exact(0.5)


def test_inexact_inputs_rejected():
    with pytest.raises(TypeError):
        Surd(0.1, 2)
    with pytest.raises(TypeError):
        Surd("1/2", 2)
    with pytest.raises(TypeError):
        Surd.sqrt(2.0)
    with pytest.raises(TypeError):
        approx(0.5)
