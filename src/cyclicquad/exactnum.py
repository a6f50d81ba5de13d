"""Exact scalar arithmetic: arbitrary-precision rationals extended with
sums of quadratic surds, plus rational approximations to a chosen number of
digits and their decimal rendering.

An exact value (``Exact``) is either a ``fractions.Fraction`` (rational) or
a ``Surd``, an irrational sum c1*sqrt(r1) + ... + cn*sqrt(rn) held in one
normal form: each ri is a squarefree integer, the ri are distinct and
ascending, and each ci is a nonzero Fraction.  Sums, differences and
products of exact values are closed in this form, and every Surd operation
returns the normal form itself: a Fraction when the result is rational,
otherwise a Surd.  The constructor does the same: ``Surd(c, r)`` returns
the Fraction c*isqrt(r) when c == 0 or r is a perfect square, found by
``isqrt`` without factoring, so no Surd has a rational value.  Products are
reduced with g = gcd(r, s) as sqrt(r)*sqrt(s) = g*sqrt((r/g)*(s/g)), a
squarefree radicand again, so arithmetic never factors.  Two calls run
``square_free_split``, and neither on a perfect square: ``Surd(c, r)``
splits an irrational r once, and ``Surd.sqrt(*factors)`` of a rational
product that is not a square splits each factor's numerator and
denominator on its own and merges the splits by the same gcd rule, so it
never factors the product.  Inputs are exact: a coefficient or a square
root's factor that is not an int, Fraction or Surd raises TypeError, and
``to_exact`` is only the boundary coercion of an int length to a Fraction.

Rules run on integers.  ``integer_units(values)`` measures values in one
unit 1/u, u the lcm of their denominators and of a Surd's coefficient
denominators: a rational value comes back as an int numerator, a Surd as a
Surd with integer coefficients.  A rule homogeneous of degree k in its
lengths computes on those numerators and builds its one result with
``ratio(num, den)``, a single Fraction of two ints, or a Surd quotient.  The
ints live only inside a rule: no rule takes or returns one, and every value
a figure holds or a rule returns is a Fraction or a Surd.

Equality is equality of normal forms.  Order is decided by the sign of the
difference, which is exact: square roots of distinct squarefree integers
are linearly independent over the rationals, so a sum of two or more terms
is never zero.  Its sign is found by evaluating sum(ci * isqrt(ri * 10**2p))
for p = 20, 40, 80, ...; the error is below sum(|ci|) units of 10**-p, so
the first p whose estimate exceeds that bound decides the sign, and such a
p exists because the sum is nonzero.

Division by a sum over one radicand, a + b*sqrt(r), multiplies by the
conjugate: (a - b*sqrt(r))/(a*a - b*b*r).  The square root of a positive
a + b*sqrt(r) denests when its norm a*a - b*b*r is the square of a rational
d: sqrt(a + b*sqrt(r)) = sqrt((a + d)/2) + sgn(b)*sqrt((a - d)/2) (Borodin,
Fagin, Hopcroft and Tompa, J. Symbolic Comput. 1, 1985).  For such a value
the test is complete: a square root in this field squares to a + b*sqrt(r)
only with at most two terms, and two terms force a square norm.  Division
by any other sum of two or more terms, the square root of any other
irrational value, and the single-term accessors ``coefficient``/``radicand``
of a sum raise ``IncompatibleRadicands``.

Exact and approximate values stay apart.  An approximation is a plain
Fraction (``approx``), and a Surd never equals one because no Surd has a
rational value.  It becomes a decimal string with ``render_decimal`` only
where a report prints it.  A report prints an irrational value with
``render_surd``, the correctly rounded decimal of the value itself.
``render_ratio`` and ``fixed_ratio`` print an integer ratio num/den the
same way without building a Fraction, for callers that hold a numerator
and denominator.  ``render_ratios`` and
``fixed_ratios`` print a column of numerators over one denominator, such as
a scan's samples, in one pass with the same strings.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import partial, reduce
from itertools import count
from math import gcd, isqrt, lcm, prod

# A normal form: ((coefficient, radicand), ...), radicands squarefree,
# distinct and ascending, coefficients nonzero.  () is zero.
Terms = tuple[tuple[Fraction, int], ...]


class IncompatibleRadicands(ArithmeticError):
    """The operation's result has no form the caller asked for: a single
    c*sqrt(r) term, a surd square root, or a quotient by a single term."""


class NegativeRadicand(ValueError):
    """Square roots of negative quantities are not supported."""


def square_free_split(n: int) -> tuple[int, int]:
    """Split n >= 1 as outer**2 * core with core squarefree.

    Four steps, each exact:

    1. Trial division by the primes below 1000, stopping once p**3 > n, so
       a small n costs no more than trial division to its cube root.  What
       is left has no prime factor below 1000, or at most two prime factors.
    2. A cofactor that is a perfect square r*r gives outer r (``isqrt``).  A
       cofactor below 1009**3 that is not a square then has at most two
       prime factors, so it is squarefree.
    3. Miller-Rabin with the 13 prime bases 2..41.  A "composite" verdict is
       proven by its witness.  A "prime" verdict is proven below
       3,317,044,064,679,887,385,961,981, the least strong pseudoprime to
       all 13 bases (Sorenson and Webster, Math. Comp. 2017; the 12 bases
       2..37 alone are fooled by 318,665,857,834,031,151,167,461).  Above
       that bound a cofactor that passes takes certified trial division to
       its cube root instead (``_trial_split``), which is slow: at least
       7*10**7 divisions.
    4. A composite cofactor is split by Pollard's rho with Brent's cycle
       finding (Brent, BIT 1980), and the parts are split in turn and
       merged: o1**2*c1 * o2**2*c2 = (o1*o2*g)**2 * (c1/g)*(c2/g) with
       g = gcd(c1, c2), and (c1/g)*(c2/g) is squarefree again.

    Rho costs about p**(1/2) steps for the least prime factor p of a
    composite cofactor, so a product of two primes near 10**20 can still run
    for a long time.  ``Surd.sqrt`` calls this on each factor of a radicand
    and never on their product, so that cost is set by a single factor, for
    the area and diagonal rules about the size of a side, and not by the
    product, which is about its fourth power.
    """
    if n < 1:
        raise ValueError("square_free_split requires n >= 1")
    outer, core, rest = _divide_out(n, _SMALL_PRIMES)
    rough_outer, rough_core = _split_rough(rest)
    return outer * rough_outer, core * rough_core


# The primes below 1000, for trial division.
_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139,
    149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223,
    227, 229, 233, 239, 241, 251, 257, 263, 269, 271, 277, 281, 283, 293,
    307, 311, 313, 317, 331, 337, 347, 349, 353, 359, 367, 373, 379, 383,
    389, 397, 401, 409, 419, 421, 431, 433, 439, 443, 449, 457, 461, 463,
    467, 479, 487, 491, 499, 503, 509, 521, 523, 541, 547, 557, 563, 569,
    571, 577, 587, 593, 599, 601, 607, 613, 617, 619, 631, 641, 643, 647,
    653, 659, 661, 673, 677, 683, 691, 701, 709, 719, 727, 733, 739, 743,
    751, 757, 761, 769, 773, 787, 797, 809, 811, 821, 823, 827, 829, 839,
    853, 857, 859, 863, 877, 881, 883, 887, 907, 911, 919, 929, 937, 941,
    947, 953, 967, 971, 977, 983, 991, 997,
)

# 1009 is the least prime above 1000: below 1009**3, a number with no prime
# factor below 1000 has at most two prime factors.
_ROUGH_CUBE = 1009**3

_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# Below this bound, passing Miller-Rabin for all of _MILLER_RABIN_BASES
# proves primality.
_MILLER_RABIN_PROVEN = 3_317_044_064_679_887_385_961_981

# Differences multiplied together between two gcds in _rho_factor.
_RHO_BATCH = 128


def _split_rough(n: int) -> tuple[int, int]:
    """``square_free_split`` of an n >= 1 that has no prime factor below
    1000, or at most two prime factors (steps 2 to 4 of its docstring)."""
    root = isqrt(n)
    if root * root == n:
        return root, 1
    if n < _ROUGH_CUBE:
        return 1, n
    if _passes_miller_rabin(n):
        return (1, n) if n < _MILLER_RABIN_PROVEN else _trial_split(n)
    d = _rho_factor(n)
    return _merge(_split_rough(d), _split_rough(n // d))


def _merge(left: tuple[int, int], right: tuple[int, int]) -> tuple[int, int]:
    """The split (outer, core) of the product of two splits:
    o1**2*c1 * o2**2*c2 = (o1*o2*g)**2 * (c1/g)*(c2/g) with g = gcd(c1, c2),
    and (c1/g)*(c2/g) is squarefree again."""
    (outer1, core1), (outer2, core2) = left, right
    g = gcd(core1, core2)
    return outer1 * outer2 * g, (core1 // g) * (core2 // g)


def _passes_miller_rabin(n: int) -> bool:
    """False when one of _MILLER_RABIN_BASES witnesses that the odd n > 41
    is composite; True when none does."""
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho_factor(n: int) -> int:
    """A proper factor of the composite n, which is odd and not a perfect
    square: Pollard's rho on x -> x*x + c mod n with Brent's cycle finding,
    multiplying _RHO_BATCH differences between gcds and stepping back one
    difference at a time when a batch's gcd overshoots to n.  c runs 1, 2,
    ... until one gives a proper factor, so the result is deterministic."""
    c = 0
    while True:
        c += 1
        y = ys = x = 2
        g = q = r = 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g


def _divide_out(n: int, divisors) -> tuple[int, int, int]:
    """Trial division of n by the ascending `divisors` until d**3 > n:
    (outer, core, rest) with n = outer**2 * core * rest, core squarefree and
    rest divisible by no divisor tried.  Every prime factor of rest is then
    above the last divisor tried, or rest has at most two prime factors."""
    outer = core = 1
    for d in divisors:
        if d * d * d > n:
            break
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            outer *= d ** (e // 2)
            if e % 2:
                core *= d
    return outer, core, n


def _trial_split(n: int) -> tuple[int, int]:
    """``square_free_split`` of an n with no prime factor below 1000, by
    trial division with the odd numbers from 1009 up to the cube root; what
    is left has at most two prime factors, so it is squarefree unless it is
    a perfect square.  Certified for every such n, and slow for a large one
    without small factors."""
    outer, core, rest = _divide_out(n, count(1009, 2))
    root = isqrt(rest)
    if root * root == rest:
        return outer * root, core
    return outer, core * rest


# One extra block of digits absorbs rounding in intermediate square roots.
GUARD_DIGITS = 10

DEFAULT_DIGITS = 50


class Surd:
    """An exact irrational sum of terms c*sqrt(r) in normal form (see the
    module docstring).  ``Surd(c, r)`` returns the normal form of c*sqrt(r):
    the Fraction c*isqrt(r) when c == 0 or r is a perfect square, otherwise
    a one-term Surd, factoring r once.  Arithmetic with int, Fraction and
    Surd operands returns a Fraction when the result is rational and a Surd
    otherwise.  Immutable."""

    __slots__ = ("terms",)

    terms: Terms

    def __new__(cls, coefficient: int | Fraction = 1, radicand: int = 1):
        if not isinstance(coefficient, (int, Fraction)):
            raise TypeError(f"not an exact coefficient: {coefficient!r}")
        if not isinstance(radicand, int):
            raise TypeError("radicand must be an integer")
        if radicand < 0:
            raise NegativeRadicand(f"negative radicand {radicand}")
        root = isqrt(radicand)
        if coefficient == 0 or root * root == radicand:
            return Fraction(coefficient) * root
        return object.__new__(cls)

    def __init__(self, coefficient: int | Fraction = 1, radicand: int = 1):
        outer, core = square_free_split(radicand)
        object.__setattr__(self, "terms", ((Fraction(coefficient) * outer, core),))

    def __setattr__(self, name, value):
        raise AttributeError("Surd is immutable")

    def __reduce__(self):
        # copy and pickle rebuild from the normal form: the default protocol
        # calls Surd.__new__ without arguments, which returns a Fraction
        return _normal, (self.terms,)

    # -- classification ----------------------------------------------------

    def _single(self) -> tuple[Fraction, int]:
        if len(self.terms) > 1:
            raise IncompatibleRadicands(f"{self} has no single c*sqrt(r) form")
        return self.terms[0]

    @property
    def coefficient(self) -> Fraction:
        """c of a single term c*sqrt(r)."""
        return self._single()[0]

    @property
    def radicand(self) -> int:
        """r of a single term c*sqrt(r)."""
        return self._single()[1]

    @staticmethod
    def sqrt(*factors: int | Exact) -> Exact:
        """Exact square root of the product of the factors, in normal form;
        ``Surd.sqrt(x)`` is the one-factor case.  A rational product that is
        a perfect square is found by ``isqrt`` without factoring.  Otherwise
        each factor's numerator and denominator is split on its own and the
        splits are merged, so no factoring sees the product.  When a factor
        is a Surd the product is multiplied out instead, and an irrational
        product is denested (module docstring) or refused."""
        for factor in factors:
            if not isinstance(factor, (int, Fraction, Surd)):
                raise TypeError(f"not an exact scalar: {factor!r}")
        if any(isinstance(factor, Surd) for factor in factors):
            value = prod(factors)
            if isinstance(value, Surd):
                return _surd_root(value)
            factors = (value,)
        num = den = 1
        for factor in factors:
            num *= factor.numerator
            den *= factor.denominator
        if num < 0:
            raise NegativeRadicand(f"sqrt of negative value {Fraction(num, den)}")
        # sqrt(num/den) = sqrt(num*den)/den, rational iff num*den is a square
        root = isqrt(num * den)
        if root * root == num * den:
            return Fraction(root, den)
        splits = (
            square_free_split(abs(n))
            for factor in factors
            for n in (factor.numerator, factor.denominator)
            if n not in (1, -1)
        )
        outer, core = reduce(_merge, splits, (1, 1))
        return _normal(((Fraction(outer, den), core),))

    # -- arithmetic --------------------------------------------------------

    def __neg__(self):
        return _normal(_negated(self.terms))

    def __abs__(self):
        return _normal(_negated(self.terms) if _sign(self.terms) < 0 else self.terms)

    def __add__(self, other):
        theirs = _terms_of(other)
        if theirs is None:
            return NotImplemented
        return _normal(_collect(self.terms + theirs))

    __radd__ = __add__

    def __sub__(self, other):
        theirs = _terms_of(other)
        if theirs is None:
            return NotImplemented
        return _normal(_collect(self.terms + _negated(theirs)))

    def __rsub__(self, other):
        theirs = _terms_of(other)
        if theirs is None:
            return NotImplemented
        return _normal(_collect(theirs + _negated(self.terms)))

    def __mul__(self, other):
        theirs = _terms_of(other)
        if theirs is None:
            return NotImplemented
        return _normal(_product(self.terms, theirs))

    __rmul__ = __mul__

    def __truediv__(self, other):
        theirs = _terms_of(other)
        if theirs is None:
            return NotImplemented
        return _normal(_product(self.terms, _reciprocal(theirs)))

    def __rtruediv__(self, other):
        theirs = _terms_of(other)
        if theirs is None:
            return NotImplemented
        return _normal(_product(theirs, _reciprocal(self.terms)))

    # -- exact comparison --------------------------------------------------

    def _cmp(self, other):
        theirs = _terms_of(other)
        if theirs is None:
            return None
        return _sign(_collect(self.terms + _negated(theirs)))

    def __eq__(self, other):
        theirs = _terms_of(other)
        if theirs is None:
            return NotImplemented
        return self.terms == theirs

    def __lt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c < 0

    def __le__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c <= 0

    def __gt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c > 0

    def __ge__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c >= 0

    def __hash__(self):
        return hash(self.terms)

    def __repr__(self):
        return " + ".join(
            f"Surd({c!r})" if r == 1 else f"Surd({c!r}, {r})" for c, r in self.terms
        )

    def __str__(self):
        (c, r), *rest = self.terms
        text = _term_text(c, r)
        for c, r in rest:
            text += f" {'-' if c < 0 else '+'} {_term_text(abs(c), r)}"
        return text

    # -- approximation -----------------------------------------------------

    def approx(self, digits: int = DEFAULT_DIGITS) -> Fraction:
        """Rational approximation with relative error below
        10**-(digits + guard digits), refined like the sign (module
        docstring) until the error bound meets the relative target.  A
        single term c*sqrt(r) passes at the first precision with the value
        c * isqrt(r * 10**2p) / 10**p."""
        if digits < 1:
            raise ValueError("digits must be >= 1")
        places = digits + GUARD_DIGITS
        target = 10**places
        while True:
            total, bound, den = _estimate(self.terms, places)
            if abs(total) >= bound * (target + 1):
                return Fraction(total, den * 10**places)
            places *= 2


# An exact value: a rational Fraction or an irrational Surd.
Exact = Fraction | Surd


def _surd_root(value: Surd) -> Exact:
    """Square root of an irrational value: denested when it is a + b*sqrt(r)
    with a square norm (module docstring), otherwise refused."""
    if value < 0:
        raise NegativeRadicand(f"sqrt of negative value {value}")
    if len(value.terms) == 2 and value.terms[0][1] == 1:
        (a, _), (b, r) = value.terms
        norm = a * a - b * b * r
        # in lowest terms n/m is a square iff n*m is
        root = isqrt(max(norm.numerator, 0) * norm.denominator)
        if root * root == norm.numerator * norm.denominator:
            d = Fraction(root, norm.denominator)
            low = Surd.sqrt((a - d) / 2)
            return Surd.sqrt((a + d) / 2) + (low if b > 0 else -low)
    raise IncompatibleRadicands(f"sqrt of the irrational {value} is not a surd")


def _term_text(c: Fraction, r: int) -> str:
    if r == 1:
        return str(c)
    if c == 1:
        return f"sqrt({r})"
    return f"{c}*sqrt({r})"


def _terms_of(value) -> Terms | None:
    """Normal-form terms of an exact operand; None for any other type."""
    if isinstance(value, Surd):
        return value.terms
    if isinstance(value, (int, Fraction)):
        return ((Fraction(value), 1),) if value else ()
    return None


def _normal(terms: Terms) -> Exact:
    """The value of normal-form terms: a Fraction when rational, else a Surd."""
    if not terms or (len(terms) == 1 and terms[0][1] == 1):
        return terms[0][0] if terms else Fraction(0)
    value = object.__new__(Surd)
    object.__setattr__(value, "terms", terms)
    return value


def _negated(terms: Terms) -> Terms:
    return tuple((-c, r) for c, r in terms)


def _collect(pairs) -> Terms:
    """Normal form of a sum of (coefficient, squarefree radicand) pairs."""
    acc: dict[int, Fraction] = {}
    for c, r in pairs:
        acc[r] = acc[r] + c if r in acc else c
    return tuple((acc[r], r) for r in sorted(acc) if acc[r])


def _product(a: Terms, b: Terms) -> Terms:
    pairs = []
    for c1, r1 in a:
        for c2, r2 in b:
            g = gcd(r1, r2)
            pairs.append((c1 * c2 * g, (r1 // g) * (r2 // g)))
    return _collect(pairs)


def _reciprocal(terms: Terms) -> Terms:
    if not terms:
        raise ZeroDivisionError("division by zero Surd")
    if len(terms) == 1:
        ((c, r),) = terms
        # 1/(c*sqrt(r)) = sqrt(r)/(c*r)
        return ((1 / (c * r), r),)
    if len(terms) == 2 and terms[0][1] == 1:
        # 1/(a + b*sqrt(r)) = (a - b*sqrt(r))/(a*a - b*b*r); the norm
        # a*a - b*b*r is nonzero because sqrt(r) is irrational
        (a, _), (b, r) = terms
        norm = a * a - b * b * r
        return ((a / norm, 1), (-b / norm, r))
    raise IncompatibleRadicands(f"cannot divide by the sum {_normal(terms)}")


def _estimate(terms: Terms, places: int) -> tuple[int, int, int]:
    """(total, bound, den) with |sum(terms) * den * 10**places - total| < bound.

    Each term c*sqrt(r) = n*sqrt(r)/den contributes n*isqrt(r * 10**2p),
    which is off by less than |n| (and exactly 0 when r == 1)."""
    den = lcm(*(c.denominator for c, _ in terms))
    scale_sq = 10 ** (2 * places)
    total = bound = 0
    for c, r in terms:
        n = c.numerator * (den // c.denominator)
        total += n * isqrt(r * scale_sq)
        bound += abs(n)
    return total, bound, den


def _sign(terms: Terms) -> int:
    """Exact sign of a normal-form sum (module docstring)."""
    if len(terms) <= 1:
        return (terms[0][0] > 0) - (terms[0][0] < 0) if terms else 0
    places = 20
    while True:
        total, bound, _ = _estimate(terms, places)
        if abs(total) >= bound:
            return 1 if total > 0 else -1
        places *= 2


def to_exact(value: int | Exact) -> Exact:
    """The boundary coercion of an input length: an int becomes a Fraction,
    a Fraction or Surd passes through, anything else raises TypeError."""
    if isinstance(value, (Surd, Fraction)):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"not an exact scalar: {value!r}")


def approx(value: int | Exact, digits: int = DEFAULT_DIGITS) -> Fraction:
    """Rational approximation of any exact scalar, correct to `digits`
    significant digits: a Fraction comes back as itself, not a copy, and an
    int as a Fraction."""
    if isinstance(value, Surd):
        return value.approx(digits)
    if isinstance(value, Fraction):
        return value
    if not isinstance(value, int):
        raise TypeError(f"not an exact scalar: {value!r}")
    return Fraction(value)


# Values measured in one unit, as ``integer_units`` gives them.
Units = tuple[list, int]


def integer_units(values) -> Units:
    """(scaled, unit): the values measured in one unit 1/`unit`, the lcm of
    their denominators and of a Surd's coefficient denominators, so that
    value == scaled / unit for each.  A rational value comes back as an int,
    a Surd as a Surd with integer coefficients.  A rule homogeneous of
    degree k in the values runs on the scaled ones and divides by unit**k
    once, with ``ratio``."""
    values = tuple(values)
    try:
        dens = [v.denominator for v in values]
    except AttributeError:
        # a Surd has no denominator: its coefficients' denominators count
        dens = []
        for v in values:
            if isinstance(v, Surd):
                dens.extend(c.denominator for c, _ in v.terms)
            else:
                dens.append(v.denominator)
        unit = lcm(*dens)
        return [_scaled(v, unit) for v in values], unit
    unit = lcm(*dens)
    return [v.numerator * (unit // d) for v, d in zip(values, dens)], unit


def _scaled(value: int | Exact, unit: int) -> int | Surd:
    """value * unit, for a `unit` that its denominators divide."""
    if not isinstance(value, Surd):
        return value.numerator * (unit // value.denominator)
    if unit == 1:
        return value
    return _normal(tuple((c * unit, r) for c, r in value.terms))


def ratio(num: int | Exact, den: int | Exact) -> Exact:
    """num / den as an exact value: the one Fraction of two ints, or the
    quotient in normal form when either is a Fraction or a Surd."""
    if type(den) is int:
        if type(num) is int:
            return Fraction(num, den)
        if isinstance(num, Surd):
            # one Fraction per term, where Surd division builds several
            return _normal(tuple((c / den, r) for c, r in num.terms))
    return num / den


def render_decimal(value: Fraction, digits: int) -> str:
    """Render a rational as a plain decimal string with `digits` significant
    digits (at least one fractional digit is kept for exact integers too,
    unless the digit budget is exhausted by the integer part).  Below 1 the
    leading "0." counts as one digit, so a value v with 0 < |v| < 0.1 keeps
    the digits - 1 significant digits that [0.1, 1) gets, and a nonzero
    value below 1 always shows at least one significant digit.  An int is
    accepted as well."""
    return render_ratio(value.numerator, value.denominator, digits)


def render_surd(value: Surd, digits: int) -> str:
    """``render_decimal`` of the irrational `value` itself, correctly
    rounded (Ziv, ACM Trans. Math. Softw. 17, 1991): the string that both
    ends of the estimate's error interval, total -+ bound (``_estimate``),
    render to, with the places doubled until they agree.  They do at some
    precision because an irrational value is never at a rounding
    boundary."""
    places = digits + GUARD_DIGITS
    while True:
        total, bound, den = _estimate(value.terms, places)
        scale = den * 10**places
        text = render_ratio(total - bound, scale, digits)
        if text == render_ratio(total + bound, scale, digits):
            return text
        places *= 2


def render_ratio(num: int, den: int, digits: int) -> str:
    """`render_decimal` of num/den for integers num and den > 0, without
    building the Fraction: the string is the same for an unreduced ratio."""
    if digits < 1:
        raise ValueError("digits must be >= 1")
    size = -num if num < 0 else num
    if size >= den:
        places = digits - len(str(size // den))
    elif size:
        # 10**-(z+1) <= |value| < 10**-z: z zeros follow the point
        zeros = len(str((den - 1) // size)) - 1
        places = max(digits - 1, 1) + zeros
    else:
        places = digits - 1
    return fixed_ratio(num, den, max(places, 0))


def fixed_ratio(num: int, den: int, places: int) -> str:
    """num/den, for integers num and den > 0, rounded half away from zero to
    `places` fractional digits, as sign, integer part, '.', fraction part
    (no '.' when places is 0), with no exponent; byte-identical across
    platforms.  No Fraction is built, so an unreduced ratio prints the same
    string as its reduced form."""
    negative = num < 0
    if negative:
        num = -num
    units = (2 * num * 10**places + den) // (2 * den)
    text = str(units).rjust(places + 1, "0")
    sign = "-" if negative and units else ""
    if places:
        return f"{sign}{text[:-places]}.{text[-places:]}"
    return sign + text


def render_ratios(nums, den: int, digits: int) -> list[str]:
    """`render_ratio(num, den, digits)` for each num in `nums`, as a list.

    A num/den >= 1 with k integer digits lies in [den*10**(k-1), den*10**k),
    so bisecting num against the bounds den, 10*den, 100*den, ... gives k.
    The items that share a k are printed as one `fixed_ratios` column to
    digits - k places; a value below 1, zero or negative (k == 0) is
    printed on its own."""
    if digits < 1:
        raise ValueError("digits must be >= 1")
    nums = list(nums)
    bounds = [den]
    top = max(nums, default=0)
    while bounds[-1] <= top:
        bounds.append(10 * bounds[-1])
    counts = list(map(partial(bisect_right, bounds), nums))
    kinds = set(counts)
    if len(kinds) == 1 and counts[0]:
        return fixed_ratios(nums, den, max(digits - counts[0], 0))
    texts = [""] * len(counts)
    for k in kinds:
        where = [i for i, c in enumerate(counts) if c == k]
        items = list(map(nums.__getitem__, where))
        if k:
            column = fixed_ratios(items, den, max(digits - k, 0))
        else:
            column = [render_ratio(num, den, digits) for num in items]
        for i, text in zip(where, column):
            texts[i] = text
    return texts


def fixed_ratios(nums, den: int, places: int) -> list[str]:
    """`fixed_ratio(num, den, places)` for each num in `nums`, as a list:
    the scale and the divisor are computed once and the column is rounded in
    one comprehension.  A column holding a negative num is printed one item
    at a time."""
    nums = list(nums)
    if min(nums, default=0) < 0:
        return [fixed_ratio(num, den, places) for num in nums]
    scale = 10**places
    # dividing 10**places and den by g = gcd(10**places, den) rounds every
    # num alike, with shorter operands
    g = gcd(scale, den)
    den //= g
    twice = 2 * den
    scaled = 2 * (scale // g)
    width = places + 1
    texts = ["%0*d" % (width, (num * scaled + den) // twice) for num in nums]
    if places:
        return [f"{text[:-places]}.{text[-places:]}" for text in texts]
    return texts
