import argparse
import random
import signal
from contextlib import contextmanager
from fractions import Fraction
from functools import cache
from math import isqrt

from hypothesis import strategies as st

from cyclicquad.cli import UsageError
from cyclicquad.exactnum import DEFAULT_DIGITS, NegativeRadicand, Surd, approx, render_ratio
from cyclicquad.mensuration import (
    DegenerateRhombus,
    DiagonalPair,
    DiagQuad,
    InvalidQuad,
    InvalidTrapezium,
    InvalidTriangle,
    QuadSides,
    Triangle,
    abadha_split,
    quad,
)
from cyclicquad.oracle import diagonal_range


@contextmanager
def time_limit(seconds: int):
    """Raise TimeoutError in the block once `seconds` have passed."""

    def timed_out(signum, frame):
        raise TimeoutError(f"did not finish within {seconds} s")

    previous = signal.signal(signal.SIGALRM, timed_out)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def sqrt_fraction(x: Fraction, digits: int) -> Fraction:
    """Reference square root: a rational approximation of sqrt(x) with
    relative error below 10**(-digits), floor-rounded, from the integer
    square root of a scaled integer.  The program takes every root exactly;
    the tests use this as an independent reference."""
    if x < 0:
        raise NegativeRadicand(f"sqrt of negative value {x}")
    if x == 0:
        return Fraction(0)
    scale = 10**digits
    # sqrt(n/d) = isqrt(n*d*scale^2) / (d*scale), floor rounding
    n, d = x.numerator, x.denominator
    return Fraction(isqrt(n * d * scale * scale), d * scale)


def embed_triangle(t: Triangle) -> tuple:
    """The three vertices of a triangle as exact points, side c on the
    x-axis: the tests' Heron oracle, whose shoelace area must equal
    `heron_area`."""
    x, _, y = abadha_split(t)
    zero = Fraction(0)
    return (zero, zero), (t.c, zero), (x, y)


def random_triangle(rng: random.Random, max_side: int = 200) -> Triangle:
    while True:
        a, b, c = (rng.randint(1, max_side) for _ in range(3))
        try:
            return Triangle(a, b, c)
        except InvalidTriangle:
            continue


def random_quad(rng: random.Random, max_side: int = 500) -> QuadSides:
    while True:
        sides = tuple(rng.randint(1, max_side) for _ in range(4))
        try:
            return quad(*sides)
        except InvalidQuad:
            continue


def random_diag_quad(rng: random.Random, max_side: int = 200) -> DiagQuad:
    while True:
        q = random_quad(rng, max_side)
        lo, hi = (approx(v, 20) for v in diagonal_range(q))
        # rational diagonal strictly inside the hinge interval
        diag = lo + (hi - lo) * Fraction(rng.randint(1, 999), 1000)
        try:
            return DiagQuad(q, diag)
        except (InvalidQuad, InvalidTriangle):
            continue


# The argparse parser that `cyclicquad.cli.Parser` replaced, kept as the
# reference of tests/test_cli_parser.py.
@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later `main()` in the process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="cyclicquad",
        description="Exact mensuration of quadrilaterals: gross and root "
        "area rules, perpendicular splits, cyclic diagonals, rhombus "
        "families, integer cyclic quadrilateral construction, and a "
        "coordinate-embedding oracle.",
    )
    parser.add_argument("--digits", type=int, default=DEFAULT_DIGITS, metavar="N",
                        help="significant decimal digits for approximations")
    parser.add_argument("--steps", type=int, default=999, metavar="N",
                        help="grid points for the diagonal scan")
    parser.add_argument("--format", choices=("text", "json", "svg"), default="text")
    parser.add_argument("--out", metavar="PATH", default=None)

    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("reproduce", help="run the worked-example manifest")

    p_area = sub.add_parser("area", help="areas of a triangle or quadrilateral")
    p_area.add_argument("sides", nargs="+")
    p_area.add_argument("--diagonal", default=None)

    p_con = sub.add_parser("construct", help="glue two Pythagorean triples")
    # one positional per number: argparse cannot print a positional whose
    # metavar is a tuple, in help or in a missing-argument error
    for name in ("l1", "m1", "n1", "l2", "m2", "n2"):
        p_con.add_argument(name, type=int, metavar=name.upper())

    p_scan = sub.add_parser("scan", help="area versus diagonal for fixed sides")
    p_scan.add_argument("sides", nargs=4)

    p_rho = sub.add_parser("rhombus", help="rhombus second diagonal and area")
    p_rho.add_argument("dims", nargs="*")
    p_rho.add_argument("--triple", nargs=3, type=int, metavar=("L", "M", "N"))

    p_tri = sub.add_parser("triples", help="enumerate Pythagorean triples")
    p_tri.add_argument("max_hypotenuse", type=int)
    p_tri.add_argument("--pairs", action="store_true",
                       help="also list pairs sharing a hypotenuse")

    return parser


# Reference forms of the homogeneous rules and checks, evaluated directly in
# Fraction and Surd arithmetic on the lengths as given, as they read before
# the rules ran on integer numerators over one unit.  Each rule must equal
# its reference, and each check must raise the same exception with the same
# message (tests/test_mensuration.py, tests/test_oracle.py).


def reference_triangle_check(a, b, c):
    sides = [a, b, c]
    if not all(s > 0 for s in sides):
        raise InvalidTriangle(f"sides must be positive: {sides}")
    for i in range(3):
        if not sides[i] < sides[(i + 1) % 3] + sides[(i + 2) % 3]:
            raise InvalidTriangle(
                f"triangle inequality fails: {sides[i]} >= sum of the others"
            )


def reference_quad_check(a, b, c, d):
    sides = (a, b, c, d)
    if not all(s > 0 for s in sides):
        raise InvalidQuad(f"sides must be positive: {sides}")
    total = sum(sides)
    for side in sides:
        if not 2 * side < total:
            raise InvalidQuad(f"closure fails: side {side} >= sum of the other three")


def reference_trapezium_check(base, face, legs, height):
    values = (base, face, *legs, height)
    if not all(v > 0 for v in values):
        raise InvalidTrapezium(f"all lengths must be positive: {values}")
    if face > base:
        raise InvalidTrapezium("face must not exceed the base")
    if any(height > leg for leg in legs):
        raise InvalidTrapezium("height exceeds a leg")


def reference_rhombus_check(side, d1):
    if not (side > 0 and d1 > 0):
        raise DegenerateRhombus("side and diagonal must be positive")
    if not d1 < 2 * side:
        raise DegenerateRhombus(f"diagonal {d1} must be strictly less than twice the side")


def reference_semiperimeter(sides):
    return sum(sides, Fraction(0)) / 2


def reference_gross_area(q):
    a, b, c, d = q
    return (a + c) / 2 * ((b + d) / 2)


def reference_sutra_area(q):
    a, b, c, d = q
    s = reference_semiperimeter(q)
    return Surd.sqrt(s - a, s - b, s - c, s - d)


def reference_heron_area(t):
    a, b, c = t
    return Surd.sqrt(a + b + c, b + c - a, a - b + c, a + b - c) / 4


def reference_rhombus_second_diagonal(r):
    return Surd.sqrt(2 * r.side - r.d1, 2 * r.side + r.d1)


def reference_rhombus_area(r):
    return r.d1 * reference_rhombus_second_diagonal(r) / 2


def reference_trapezium_area(t):
    return (t.base + t.face) / 2 * t.height


def reference_abadha_split(t):
    segment_a = (t.c * t.c + t.a * t.a - t.b * t.b) / (2 * t.c)
    height = Surd.sqrt(t.a - segment_a, t.a + segment_a)
    return segment_a, t.c - segment_a, height


def reference_area_by_diagonal(dq):
    """(split area, perpendiculars)."""
    t1, t2 = map(reference_heron_area, dq.triangles)
    return t1 + t2, (2 * t1 / dq.diagonal, 2 * t2 / dq.diagonal)


def reference_cyclic_diagonal_pair(q):
    a, b, c, d = q
    ac_bd = a * c + b * d
    ad_bc = a * d + b * c
    ab_cd = a * b + c * d
    p = Surd.sqrt(ac_bd, ad_bc, 1 / ab_cd)
    return DiagonalPair(p=p, q=p * ab_cd / ad_bc)


def reference_ptolemy_check(q, d):
    a, b, c, d_side = q
    return d.p * d.q == a * c + b * d_side


def reference_triangle_circumradius(t):
    return t.a * t.b * t.c / (4 * reference_heron_area(t))


def reference_concyclic_exact(dq):
    a, b, c, d = dq.sides
    diag_sq = dq.diagonal * dq.diagonal
    return (a * a + b * b - diag_sq) * c * d == -((c * c + d * d - diag_sq) * a * b)


# Lengths for the reference properties, of three kinds.  Each draw gives
# `count` lengths in [m, 2m) for one m, so that any three of them form a
# triangle, any four close, any five make a DiagQuad, any two a rhombus.


@st.composite
def _int_lengths(draw, count: int) -> tuple:
    m = draw(st.integers(1, 10**6))
    return tuple(draw(st.integers(m, 2 * m - 1)) for _ in range(count))


@st.composite
def _rational_lengths(draw, count: int) -> tuple:
    # distinct denominators below 10**3, numerators below 10**9
    dens = draw(st.lists(st.integers(2, 999), min_size=count, max_size=count, unique=True))
    m = draw(st.integers(1, 5 * 10**5))
    return tuple(Fraction(draw(st.integers(m * q, 2 * m * q - 1)), q) for q in dens)


@st.composite
def _surd_lengths(draw, count: int) -> tuple:
    # c*sqrt(r) with c = k/q, from radicands that often repeat (1 among
    # them, a rational length); k runs from the least with c*sqrt(r) >= m
    # to the last with c*sqrt(r) < 2m, found on the squares.  A surd side
    # makes Heron's rule factor its multiplied-out radicand, so the sizes
    # stay small: at m near 1000 and q near 30 one triangle in 20 takes
    # seconds, in the reference as in the rule
    m = draw(st.integers(10, 200))
    lengths = []
    for _ in range(count):
        r = draw(st.sampled_from((1, 2, 3, 5, 6, 12)))
        q = draw(st.integers(1, 10))
        low = isqrt((m * q) ** 2 // r)
        while low * low * r < (m * q) ** 2:
            low += 1
        high = isqrt((4 * (m * q) ** 2 - 1) // r)
        lengths.append(Surd(Fraction(draw(st.integers(low, high)), q), r))
    return tuple(lengths)


def figure_lengths(count: int):
    """`count` lengths of one kind, all in [m, 2m): ints; rationals over
    distinct denominators below 10**3 with numerators up to 10**9; or
    single-term surds c*sqrt(r)."""
    return _int_lengths(count) | _rational_lengths(count) | _surd_lengths(count)


@st.composite
def checked_lengths(draw, count: int) -> tuple:
    """`figure_lengths(count)` with one length multiplied by -1, 0, 1, 2 or
    3, so that a check sees valid figures and every way to fail one."""
    lengths = list(draw(figure_lengths(count)))
    i = draw(st.integers(0, count - 1))
    lengths[i] *= draw(st.sampled_from((-1, 0, 1, 1, 2, 3)))
    return tuple(lengths)


def outcome(call):
    """(value, None) from call(), or (None, (type, message)) when it raises
    a domain or arithmetic error."""
    try:
        return call(), None
    except (ValueError, ArithmeticError) as exc:
        return None, (type(exc), str(exc))


def is_exact(value) -> bool:
    """A Fraction or a Surd: never an int, a float or a bool."""
    return type(value) in (Fraction, Surd)


def reference_parse_length(text: str) -> Fraction:
    """`cli._parse_length` as it read before its integer fast path: every
    string through `Fraction(text)`."""
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"not a number: {text!r}") from exc
    if value <= 0:
        raise UsageError(f"lengths must be positive: {text}")
    return value


def reference_surd_decimal(value: Surd, places: int, digits: int) -> str:
    """`render_decimal` of a single-term `value` at `digits`, from the two
    ends of a bracket 10**-places wide around it, found by `isqrt` on the
    term; None when the ends print differently, as they do only when the
    value lies within 10**-places of a rounding boundary."""
    (c, r), = value.terms
    n, m = c.numerator, c.denominator
    low = abs(n) * isqrt(r * 10 ** (2 * places))
    ends = (low, low + abs(n)) if n > 0 else (-low - abs(n), -low)
    texts = {render_ratio(end, m * 10**places, digits) for end in ends}
    return texts.pop() if len(texts) == 1 else None
