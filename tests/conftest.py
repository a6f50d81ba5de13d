import random
import signal
from contextlib import contextmanager
from fractions import Fraction
from math import isqrt

from cyclicquad.exactnum import NegativeRadicand, approx
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
