import random
from fractions import Fraction

from cyclicquad.exactnum import approx
from cyclicquad.mensuration import DiagQuad, InvalidQuad, InvalidTriangle, QuadSides, Triangle, quad
from cyclicquad.oracle import diagonal_range


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
