"""Seeded operation generators for the three benchmark workloads.

Every generated input is checked with this file's own exact inequalities
(closure, triangle inequality, open diagonal interval) and is never dropped
because the program rejects it.  Large operands are also drawn by this
file's own factoring-cost classes (see SMOOTH_BOUND).  Each workload is
built from blocks with a fixed count of every operation kind, shuffled by
the seed, so that seeds differ in operands but not in the mix.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, isqrt


@dataclass(frozen=True)
class Op:
    """One CLI invocation: `argv` for cyclicquad.cli.main, the exact inputs
    the output check needs, and the per-operation deadline in seconds."""

    kind: str
    argv: tuple[str, ...]
    fmt: str
    out: bool
    deadline: float
    data: dict = field(default_factory=dict, compare=False, hash=False)


def num(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def closes(sides) -> bool:
    """Strict closure: every side is shorter than the sum of the others."""
    total = sum(sides)
    return all(2 * s < total for s in sides)


def diagonal_interval(a, b, c, d) -> tuple[Fraction, Fraction]:
    """Open interval of diagonals splitting (a, b) from (c, d)."""
    return max(abs(a - b), abs(c - d)), min(a + b, c + d)


def heron_square(a, b, c) -> Fraction:
    """Squared triangle area from the squared sides."""
    a2, b2, c2 = a * a, b * b, c * c
    return (2 * (a2 * b2 + b2 * c2 + c2 * a2) - a2 * a2 - b2 * b2 - c2 * c2) / 16


def root_rule_square(a, b, c, d) -> Fraction:
    """(s-a)(s-b)(s-c)(s-d): Brahmagupta's K^2."""
    s = (a + b + c + d) / 2
    return (s - a) * (s - b) * (s - c) * (s - d)


def cyclic_diagonal_square(a, b, c, d) -> Fraction:
    """p^2 = (ac+bd)(ad+bc)/(ab+cd), the cyclic diagonal splitting (a, b)
    from (c, d)."""
    return (a * c + b * d) * (a * d + b * c) / (a * b + c * d)


def primes_below(n: int) -> list[int]:
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for p in range(2, isqrt(n - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytearray(len(range(p * p, n, p)))
    return [i for i, flag in enumerate(sieve) if flag]


def is_prime(n: int) -> bool:
    """Miller-Rabin with the first 12 prime bases: exact below 3.1e23."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    for p in bases:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(rng: random.Random, lo: int, hi: int) -> int:
    while True:
        n = rng.randint(lo, hi) | 1
        if is_prime(n):
            return n


# Trial-division cost classes.  The program takes the square root of a
# rational x as sqrt(m)/den with m = num * den, and factors m by trial
# division up to the cube root of what is left of it.  Once every prime
# below SMOOTH_BOUND is divided out, a remainder under SMOOTH_BOUND^3 ends
# the loop: at most SMOOTH_BOUND / 2 steps, a few milliseconds.  Three prime
# factors of at least HANG_PRIME keep it going for at least HANG_PRIME / 2
# steps, tens of seconds.  Random large operands fall in between as often
# as not, with a continuous spread of costs, so bigops draws them from the
# first class only and builds the hang on purpose (kind area_tail).
SMOOTH_BOUND = 20_000
HANG_PRIME = 10**8
_SMALL_PRIMES = math.prod(primes_below(SMOOTH_BOUND))


def cheap_root(square: Fraction) -> bool:
    """Whether trial division of sqrt(square)'s radicand stops below
    SMOOTH_BOUND: what is left after the primes below it is < SMOOTH_BOUND^3."""
    m = square.numerator * square.denominator
    while (g := gcd(m, _SMALL_PRIMES)) > 1:
        m //= g
    return m < SMOOTH_BOUND**3


def triples_up_to(max_hyp: int) -> list[tuple[int, int, int]]:
    """Brute-force enumeration of l <= m < n, l^2 + m^2 = n^2, n <= max_hyp."""
    found = []
    for n in range(5, max_hyp + 1):
        for l in range(1, isqrt(n * n // 2) + 1):
            m2 = n * n - l * l
            m = isqrt(m2)
            if m * m == m2 and l <= m:
                found.append((l, m, n))
    return found


def random_triple(rng: random.Random, max_hyp: int) -> tuple[int, int, int]:
    """A Pythagorean triple with hypotenuse <= max_hyp from Euclid's
    parametrization, scaled by a random k."""
    while True:
        p = rng.randint(2, isqrt(max_hyp))
        q = rng.randint(1, p - 1)
        n = p * p + q * q
        if (p - q) % 2 == 0 or gcd(p, q) != 1 or n > max_hyp:
            continue
        k = rng.randint(1, max_hyp // n)
        l, m = sorted((p * p - q * q, 2 * p * q))
        return l * k, m * k, n * k


def glued_sides(t1, t2) -> tuple[int, int, int, int]:
    """Sides of the quadrilateral glued from right triangles t1 (scaled by
    n2) and t2 (scaled by n1), ordered so that the diagonal splitting
    (a, b) from (c, d) is the common hypotenuse n1*n2."""
    (l1, m1, n1), (l2, m2, n2) = t1, t2
    return l2 * n1, m2 * n1, m1 * n2, l1 * n2


class Draw:
    """Operand draws: integers up to max_side, or with `big` the bigops
    lengths (log-uniform in [1, 10^6], 30% rationals p/q with q < 1000)."""

    def __init__(self, rng: random.Random, big: bool, max_side: int = 100):
        self.rng = rng
        self.big = big
        self.max_side = max_side

    def length(self) -> Fraction:
        rng = self.rng
        if not self.big:
            return Fraction(rng.randint(1, self.max_side))
        value = math.exp(rng.uniform(0.0, math.log(10**6)))
        if rng.random() < 0.3:
            q = rng.randint(2, 999)
            return Fraction(max(1, round(value * q)), q)
        return Fraction(max(1, round(value)))

    def triangle(self) -> tuple[Fraction, ...]:
        while True:
            sides = tuple(self.length() for _ in range(3))
            if closes(sides):
                return sides

    def quad(self) -> tuple[Fraction, ...]:
        while True:
            sides = tuple(self.length() for _ in range(4))
            if closes(sides):
                return sides

    def quad_with_diagonal(self) -> tuple[tuple[Fraction, ...], Fraction]:
        """A quadrilateral and a diagonal strictly inside its feasible
        interval: an integer one when the interval holds an integer."""
        while True:
            sides = self.quad()
            lo, hi = diagonal_interval(*sides)
            first, last = math.floor(lo) + 1, math.ceil(hi) - 1
            if first <= last:
                return sides, Fraction(self.rng.randint(first, last))
            if self.big:
                return sides, lo + (hi - lo) * Fraction(self.rng.randint(1, 999), 1000)

    def triple(self, max_hyp: int) -> tuple[int, int, int]:
        return random_triple(self.rng, max_hyp)

    def cheap(self, make, squares):
        """Draw with make() until every square root the program takes,
        squares(value), is cheap to factor; paper-scale draws always are."""
        while True:
            value = make()
            if not self.big or all(cheap_root(sq) for sq in squares(value)):
                return value

    def hang_triangle(self) -> tuple[Fraction, ...]:
        """Rational sides near 10^5 whose Heron radicand has three prime
        factors above HANG_PRIME: with x, y, z = P1/q, P2/q, P3/q the sides
        are (y+z)/2, (x+z)/2, (x+y)/2 and 16T^2 = xyz(x+y+z)."""
        rng = self.rng
        q = rng.randint(500, 999)
        x, y, z = (Fraction(random_prime(rng, HANG_PRIME, 2 * HANG_PRIME), q) for _ in range(3))
        return (y + z) / 2, (x + z) / 2, (x + y) / 2


# Per-operation deadlines, each in a gap of the per-operation times.  On a
# 2-core x86 machine, paper-scale one-shot commands finish in under 0.1 s,
# bigops one-shots in under 60 ms and scans in under 3 s, while area_tail
# operations run for many seconds.
FAST_DEADLINE = 1.0
BIG_DEADLINE = 0.25
SCAN_DEADLINE = 10.0

# Kinds whose exit code 2 is a refusal of valid input rather than a wrong
# result: a random diagonal mostly gives two incommensurable Heron areas.
MAY_REFUSE = {"area_diag"}
# Kinds built to run past any deadline; traced runs leave them out.
HANGS = {"area_tail"}


def _formats(kind_counter: dict, kind: str, cycle: tuple[str, ...]) -> tuple[str, bool]:
    """Rotate formats per kind; every third operation of a kind uses --out."""
    i = kind_counter.get(kind, 0)
    kind_counter[kind] = i + 1
    return cycle[i % len(cycle)], i % 3 == 2


def _make(kind, body, fmt, out, deadline, data, extra=()) -> Op:
    argv = ("--format", fmt, *extra, *body)
    return Op(kind, argv, fmt, out, deadline, data)


def grid_denominator(sides, steps: int) -> int:
    """Denominator of the scan's grid step (hi - lo) / (steps + 1).  The
    per-sample radicands, and so the trial division that factors them, grow
    with it: at 999 steps a denominator of 1000 costs about three times one
    of 200 or less, and at 99 steps 101 costs about ten times 5 or less."""
    lo, hi = diagonal_interval(*sides)
    return ((hi - lo) / (steps + 1)).denominator


def coarse_grid_quad(draw: Draw, steps: int, max_denominator: int) -> tuple[Fraction, ...]:
    """A random quad whose scan grid step has a small denominator.  Finer
    grids cost several times more per scan, with a spread that would swamp
    a run of a few dozen scans, so they are left out of both workloads."""
    while True:
        sides = draw.quad()
        if grid_denominator(sides, steps) <= max_denominator:
            return sides


def scan_ops(rng: random.Random, count: int) -> list[Op]:
    """Paper-scale 999-step scans in blocks of 10: 2 Brahmagupta quads from
    triples with hypotenuse <= 25 and 8 random quads with integer sides
    <= 100 and grid denominator <= 200, in text, json and svg."""
    small = triples_up_to(25)
    draw = Draw(rng, big=False)
    block = ["glued"] * 2 + ["random"] * 8
    formats = ("text", "json", "svg")
    counter: dict = {}
    ops: list[Op] = []
    while len(ops) < count:
        rng.shuffle(block)
        for kind in block:
            if kind == "glued":
                sides = tuple(Fraction(s) for s in glued_sides(rng.choice(small), rng.choice(small)))
            else:
                sides = coarse_grid_quad(draw, 999, 200)
            fmt, out = _formats(counter, "scan", formats)
            ops.append(_make("scan", ("scan", *map(num, sides)), fmt, out,
                             SCAN_DEADLINE, {"sides": sides, "steps": 999}))
    return ops[:count]


EXACT_BLOCK = {
    "area3": 8, "area4": 8, "area_glue": 2, "area_diag": 2,
    "construct": 6, "rhombus": 6, "triples": 4, "reproduce": 4,
}
# Four scans in 40 put bigops' p90 inside the scan class, below the
# failures and above nearly every one-shot command.
BIGOPS_BLOCK = {
    "area3": 8, "area4": 8, "area_tail": 1, "area_glue": 3, "area_diag": 1,
    "construct": 6, "rhombus": 6, "triples": 2, "reproduce": 1, "scan": 4,
}


def _diagonal_squares(value) -> list[Fraction]:
    """The squares whose roots `area a b c d --diagonal x` takes: the root
    rule, the two Heron areas and the two cyclic diagonals."""
    (a, b, c, d), x = value
    p_sq = cyclic_diagonal_square(a, b, c, d)
    return [root_rule_square(a, b, c, d), 16 * heron_square(a, b, x), 16 * heron_square(c, d, x),
            p_sq, (a * c + b * d) ** 2 / p_sq]


def _one_shot(kind: str, draw: Draw, fmt: str, out: bool, extra: tuple) -> Op:
    rng, big = draw.rng, draw.big
    deadline = BIG_DEADLINE if big else FAST_DEADLINE
    if kind == "area3":
        sides = draw.cheap(draw.triangle, lambda s: [16 * heron_square(*s)])
        return _make(kind, ("area", *map(num, sides)), fmt, out, deadline, {"sides": sides}, extra)
    if kind == "area4":
        sides = draw.cheap(draw.quad, lambda s: [root_rule_square(*s)])
        return _make(kind, ("area", *map(num, sides)), fmt, out, deadline, {"sides": sides}, extra)
    if kind == "area_tail":
        sides = draw.hang_triangle()
        return _make(kind, ("area", *map(num, sides)), fmt, out, deadline, {"sides": sides}, extra)
    if kind == "area_glue":
        hyp = 1000 if big else 30
        t1, t2 = draw.triple(hyp), draw.triple(hyp)
        sides = tuple(Fraction(s) for s in glued_sides(t1, t2))
        diag = Fraction(t1[2] * t2[2])
        body = ("area", *map(num, sides), "--diagonal", num(diag))
        return _make(kind, body, fmt, out, deadline, {"sides": sides, "diagonal": diag}, extra)
    if kind == "area_diag":
        sides, diag = draw.cheap(draw.quad_with_diagonal, _diagonal_squares)
        body = ("area", *map(num, sides), "--diagonal", num(diag))
        return _make(kind, body, fmt, out, deadline, {"sides": sides, "diagonal": diag}, extra)
    if kind == "construct":
        hyp = 1000 if big else 30
        t1, t2 = draw.triple(hyp), draw.triple(hyp)
        return _make(kind, ("construct", *map(str, t1 + t2)), fmt, out, deadline,
                     {"t1": t1, "t2": t2}, extra)
    if kind == "rhombus":
        t = draw.triple(10**6 if big else 100)
        return _make(kind, ("rhombus", "--triple", *map(str, t)), fmt, out, deadline, {"t": t}, extra)
    if kind == "triples":
        lo, hi = (1000, 2000) if big else (25, 2000)
        n = int(math.exp(rng.uniform(math.log(lo), math.log(hi))))
        return _make(kind, ("triples", str(n), "--pairs"), fmt, out, deadline, {"n": n}, extra)
    if kind == "reproduce":
        return _make(kind, ("reproduce",), fmt, out, deadline, {}, extra)
    if kind == "scan":
        sides = coarse_grid_quad(Draw(rng, big=False, max_side=10**4), 99, 5)
        return _make(kind, ("scan", *map(num, sides)), fmt, out, SCAN_DEADLINE,
                     {"sides": sides, "steps": 99}, ("--steps", "99", *extra))
    raise ValueError(f"unknown operation kind {kind!r}")


def _blocks(rng: random.Random, count: int, block: dict, big: bool,
            formats: tuple[str, ...], extra: tuple) -> list[Op]:
    draw = Draw(rng, big)
    kinds = [k for k, n in block.items() for _ in range(n)]
    counter: dict = {}
    ops: list[Op] = []
    while len(ops) < count:
        rng.shuffle(kinds)
        for kind in kinds:
            fmt, out = _formats(counter, kind, formats)
            ops.append(_one_shot(kind, draw, fmt, out, extra))
    return ops[:count]


def exact_ops(rng: random.Random, count: int) -> list[Op]:
    """Paper-scale one-shot commands in text and json."""
    return _blocks(rng, count, EXACT_BLOCK, False, ("text", "json"), ())


def bigops_ops(rng: random.Random, count: int) -> list[Op]:
    """The exact workload's command kinds with large operands, as json at
    60 digits, plus a minority of 99-step scans with sides <= 10^4."""
    return _blocks(rng, count, BIGOPS_BLOCK, True, ("json",), ("--digits", "60"))


@dataclass(frozen=True)
class Workload:
    generate: object
    # operations generated per run; a run cycles through them if it is fast
    count: int
    # operations per second of --seconds in a traced run (deterministic size)
    trace_rate: float


WORKLOADS = {
    "scan": Workload(scan_ops, 400, 0.8),
    "exact": Workload(exact_ops, 12000, 100.0),
    "bigops": Workload(bigops_ops, 2500, 22.0),
}


def generate(workload: str, seed: int) -> list[Op]:
    spec = WORKLOADS[workload]
    return spec.generate(random.Random(f"{workload}:{seed}"), spec.count)
