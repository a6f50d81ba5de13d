"""Differential test of Surd arithmetic against sympy, used as a test-only
oracle: random sums of one to four terms, checked for + - *, division by
single terms, order, ==/hash consistency, approx and square_free_split
(random n up to 10**12 and 25-35-digit products of known primes)."""

import random
from fractions import Fraction

import pytest

from cyclicquad.exactnum import GUARD_DIGITS, Surd, approx, square_free_split

sympy = pytest.importorskip("sympy")

CASES = 150


def random_sum(rng: random.Random):
    value = Fraction(0)
    for _ in range(rng.randint(1, 4)):
        coefficient = Fraction(rng.choice((-1, 1)) * rng.randint(1, 60), rng.randint(1, 30))
        value = value + Surd(coefficient, rng.randint(1, 120))
    return value


def random_single(rng: random.Random):
    return Surd(Fraction(rng.choice((-1, 1)) * rng.randint(1, 60), rng.randint(1, 30)),
                rng.randint(1, 120))


def as_sympy(value):
    if isinstance(value, Fraction):
        return sympy.Rational(value.numerator, value.denominator)
    return sympy.Add(*(
        sympy.Rational(c.numerator, c.denominator) * sympy.sqrt(r) for c, r in value.terms
    ))


def same(value, expr) -> bool:
    return sympy.radsimp(sympy.expand(as_sympy(value) - expr)) == 0


@pytest.fixture
def pairs():
    rng = random.Random(2024)
    return [(random_sum(rng), random_sum(rng), random_single(rng)) for _ in range(CASES)]


def test_ring_operations(pairs):
    for a, b, _ in pairs:
        sa, sb = as_sympy(a), as_sympy(b)
        assert same(a + b, sa + sb)
        assert same(a - b, sa - sb)
        assert same(a * b, sa * sb)


def test_division_by_single_terms(pairs):
    for a, _, s in pairs:
        assert same(a / s, as_sympy(a) / as_sympy(s))
        assert same(1 / s, 1 / as_sympy(s))


def test_order_matches_sign_of_difference(pairs):
    for a, b, _ in pairs:
        sign = sympy.sign(as_sympy(a) - as_sympy(b))
        assert (a < b) == (sign < 0)
        assert (a > b) == (sign > 0)
        assert (a == b) == (sign == 0)
        assert (a > 0) == (sympy.sign(as_sympy(a)) > 0)


def test_equality_and_hash_agree(pairs):
    for a, b, _ in pairs:
        rebuilt = (a + b) - b
        assert rebuilt == a and hash(rebuilt) == hash(a)
        assert len({a, rebuilt}) == 1
    # a rational value is a Fraction, whatever builds it
    assert isinstance(Surd(Fraction(7, 3)), Fraction)
    assert Surd(2, 2) * Surd(3, 2) == Surd(12) == 12
    assert hash(Surd(12)) == hash(12)


@pytest.mark.parametrize("digits", [5, 30, 60])
def test_approx_within_relative_bound(pairs, digits):
    bound = Fraction(1, 10 ** (digits + GUARD_DIGITS))
    for a, _, _ in pairs:
        got = approx(a, digits)
        exact = sympy.Rational(str(sympy.N(as_sympy(a), digits + GUARD_DIGITS + 30)))
        assert abs(sympy.Rational(got.numerator, got.denominator) - exact) <= bound * abs(exact)


def test_square_free_split_matches_factorint():
    rng = random.Random(7)
    for n in [1, 2, 4, 12, 19800, 2**20, 3**7 * 5**2] + [rng.randint(1, 10**12) for _ in range(200)]:
        outer = core = 1
        for p, e in sympy.factorint(n).items():
            outer *= p ** (e // 2)
            core *= p ** (e % 2)
        assert square_free_split(n) == (outer, core)


def known_prime_products(count: int) -> list[int]:
    """Products of primes between 10**4 and 10**9, some squared or cubed,
    with 25 to 35 digits."""
    rng = random.Random(11)
    products = []
    while len(products) < count:
        n = 1
        while n < 10**24:
            prime = sympy.nextprime(int(10 ** rng.uniform(4, 9)))
            n *= prime ** rng.choice((1, 1, 1, 2, 3))
        if n < 10**35:
            products.append(n)
    return products


def test_square_free_split_matches_factorint_on_large_products():
    for n in known_prime_products(40):
        outer = core = 1
        for p, e in sympy.factorint(n).items():
            outer *= p ** (e // 2)
            core *= p ** (e % 2)
        assert square_free_split(n) == (outer, core)
