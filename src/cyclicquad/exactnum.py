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
squarefree radicand again, so arithmetic never factors; only an irrational
``Surd(c, r)`` or ``Surd.sqrt`` calls ``square_free_split``.  Inputs are
exact: a coefficient or a square root's argument that is not an int,
Fraction or Surd raises TypeError, and ``to_exact`` is only the boundary
coercion of an int length to a Fraction.

Equality is equality of normal forms.  Order is decided by the sign of the
difference, which is exact: square roots of distinct squarefree integers
are linearly independent over the rationals, so a sum of two or more terms
is never zero.  Its sign is found by evaluating sum(ci * isqrt(ri * 10**2p))
for p = 20, 40, 80, ...; the error is below sum(|ci|) units of 10**-p, so
the first p whose estimate exceeds that bound decides the sign, and such a
p exists because the sum is nonzero.

Division by a sum of two or more terms, the square root of an irrational
value, and the single-term accessors ``coefficient``/``radicand`` of a sum
raise ``IncompatibleRadicands``.

Exact and approximate values stay apart.  An approximation is a plain
Fraction (``approx``, ``sqrt_fraction``), and a Surd never equals one
because no Surd has a rational value.  It becomes a decimal string with
``render_decimal`` only where a report prints it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Union

Exact = Union[Fraction, "Surd"]

# A normal form: ((coefficient, radicand), ...), radicands squarefree,
# distinct and ascending, coefficients nonzero.  () is zero.
Terms = tuple[tuple[Fraction, int], ...]


class ExactnessError(ArithmeticError):
    """Base for failures of the exact-arithmetic substrate."""


class IncompatibleRadicands(ExactnessError):
    """The operation's result has no form the caller asked for: a single
    c*sqrt(r) term, a surd square root, or a quotient by a single term."""


class NegativeRadicand(ValueError):
    """Square roots of negative quantities are not supported."""


def square_free_split(n: int) -> tuple[int, int]:
    """Split n >= 1 as outer**2 * core with core squarefree.

    Trial division up to the cube root; the remainder then has at most two
    prime factors, so it is squarefree unless it is a perfect square.
    """
    if n < 1:
        raise ValueError("square_free_split requires n >= 1")
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


class Surd:
    """An exact irrational sum of terms c*sqrt(r) in normal form (see the
    module docstring).  ``Surd(c, r)`` returns the normal form of c*sqrt(r):
    the Fraction c*isqrt(r) when c == 0 or r is a perfect square, otherwise
    a one-term Surd, factoring r once.  Arithmetic with int, Fraction and
    Surd operands returns a Fraction when the result is rational and a Surd
    otherwise.  Immutable."""

    __slots__ = ("terms",)

    terms: Terms

    def __new__(cls, coefficient: Union[int, Fraction] = 1, radicand: int = 1):
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

    def __init__(self, coefficient: Union[int, Fraction] = 1, radicand: int = 1):
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
    def sqrt(value: Union[int, Exact]) -> Exact:
        """Exact square root of a nonnegative rational, in normal form."""
        if isinstance(value, Surd):
            raise IncompatibleRadicands(f"sqrt of the irrational {value} is not a surd")
        if not isinstance(value, (int, Fraction)):
            raise TypeError(f"not an exact scalar: {value!r}")
        if value < 0:
            raise NegativeRadicand(f"sqrt of negative value {value}")
        # sqrt(p/q) = sqrt(p*q)/q
        return Surd(Fraction(1, value.denominator), value.numerator * value.denominator)

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

    def __pow__(self, exponent: int):
        if exponent != int(exponent) or exponent < 0:
            raise ValueError("only nonnegative integer powers are supported")
        result = Fraction(1)
        for _ in range(int(exponent)):
            result = result * self
        return result

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

    def approx(self, digits: int = 50) -> Fraction:
        """Rational approximation with relative error below
        10**-(digits + guard digits), refined like the sign (module
        docstring) until the error bound meets the relative target.  A
        single term c*sqrt(r) passes at the first precision with the value
        c * isqrt(r * 10**2p) / 10**p."""
        if digits < 1:
            raise ValueError("digits must be >= 1")
        places = digits + _GUARD_DIGITS
        target = 10**places
        while True:
            total, bound, den = _estimate(self.terms, places)
            if abs(total) >= bound * (target + 1):
                return Fraction(total, den * 10**places)
            places *= 2


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
    if len(terms) > 1:
        raise IncompatibleRadicands(f"cannot divide by the sum {_normal(terms)}")
    ((c, r),) = terms
    # 1/(c*sqrt(r)) = sqrt(r)/(c*r)
    return ((1 / (c * r), r),)


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


def to_exact(value: Union[int, Exact]) -> Exact:
    """The boundary coercion of an input length: an int becomes a Fraction,
    a Fraction or Surd passes through, anything else raises TypeError."""
    if isinstance(value, (Surd, Fraction)):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"not an exact scalar: {value!r}")


# One extra block of digits absorbs rounding in intermediate square roots.
_GUARD_DIGITS = 10

DEFAULT_DIGITS = 50


def sqrt_fraction(x: Fraction, digits: int) -> Fraction:
    """Rational approximation of sqrt(x) with relative error below
    10**(-digits), via integer square root of a scaled integer."""
    if x < 0:
        raise NegativeRadicand(f"sqrt of negative value {x}")
    if x == 0:
        return Fraction(0)
    scale = 10**digits
    # sqrt(n/d) = isqrt(n*d*scale^2) / (d*scale), floor rounding
    n, d = x.numerator, x.denominator
    return Fraction(isqrt(n * d * scale * scale), d * scale)


def approx(value: Union[int, Exact], digits: int = DEFAULT_DIGITS) -> Fraction:
    """Rational approximation of any exact scalar, correct to `digits`
    significant digits: a rational value comes back as itself."""
    if isinstance(value, Surd):
        return value.approx(digits)
    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"not an exact scalar: {value!r}")
    return Fraction(value)


def render_decimal(value: Fraction, digits: int) -> str:
    """Render a rational as a plain decimal string with `digits` significant
    digits (at least one fractional digit is kept for exact integers too,
    unless the digit budget is exhausted by the integer part).  Below 1 the
    leading "0." counts as one digit, so a value v with 0 < |v| < 0.1 keeps
    the digits - 1 significant digits that [0.1, 1) gets, and a nonzero
    value below 1 always shows at least one significant digit.  Works on the
    integers `value.numerator` and `value.denominator` alone, so an int is
    accepted as well."""
    if digits < 1:
        raise ValueError("digits must be >= 1")
    num, den = value.numerator, value.denominator
    if num < 0:
        num = -num
    if num >= den:
        places = digits - len(str(num // den))
    elif num:
        # 10**-(z+1) <= |value| < 10**-z: z zeros follow the point
        zeros = len(str((den - 1) // num)) - 1
        places = max(digits - 1, 1) + zeros
    else:
        places = digits - 1
    return fixed_point(value, max(places, 0))


def fixed_point(value: Fraction, places: int) -> str:
    """`value` rounded half away from zero to `places` fractional digits, as
    sign, integer part, '.', fraction part (no '.' when places is 0), with
    no exponent; byte-identical across platforms.  Works on the integers
    `value.numerator` and `value.denominator` alone."""
    num, den = value.numerator, value.denominator
    negative = num < 0
    if negative:
        num = -num
    units = (2 * num * 10**places + den) // (2 * den)
    text = str(units).rjust(places + 1, "0")
    sign = "-" if negative and units else ""
    if places:
        return f"{sign}{text[:-places]}.{text[-places:]}"
    return sign + text
