import argparse
import random
import signal
from contextlib import contextmanager
from fractions import Fraction
from functools import cache
from math import isqrt

from cyclicquad.exactnum import DEFAULT_DIGITS, NegativeRadicand, approx
from cyclicquad.mensuration import (
    DiagQuad,
    InvalidQuad,
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
