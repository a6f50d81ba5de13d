"""Pythagorean triple validation, enumeration and hypotenuse matching."""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd


class NotPythagorean(ValueError):
    """The given legs and hypotenuse do not satisfy l**2 + m**2 == n**2."""


@dataclass(frozen=True, order=True)
class PythTriple:
    """A Pythagorean triple in canonical order l <= m < n."""

    l: int
    m: int
    n: int

    def __post_init__(self):
        if min(self.l, self.m, self.n) < 1:
            raise NotPythagorean(f"sides must be positive: {self}")
        if self.l > self.m:
            raise NotPythagorean(f"legs out of canonical order l <= m: {self}")
        if self.l**2 + self.m**2 != self.n**2:
            raise NotPythagorean(
                f"{self.l}**2 + {self.m}**2 != {self.n}**2"
            )

    def scaled(self, k: int) -> "PythTriple":
        return PythTriple(self.l * k, self.m * k, self.n * k)


def validate_triple(l: int, m: int, n: int) -> PythTriple:
    """Canonicalize legs and validate the Pythagorean identity."""
    if l > m:
        l, m = m, l
    return PythTriple(l, m, n)


def generate_triples(max_hypotenuse: int) -> list[PythTriple]:
    """All triples with hypotenuse <= max_hypotenuse, each once, sorted by
    (n, l).  Non-primitive triples are included: every primitive from the
    Euclid parametrization (p**2 - q**2, 2pq, p**2 + q**2) is scaled by all
    k with k*n within bound."""
    if max_hypotenuse < 5:
        raise ValueError("max_hypotenuse must be >= 5")
    found: set[PythTriple] = set()
    p = 2
    while p * p + 1 <= max_hypotenuse:
        for q in range(1 + p % 2, p, 2):  # opposite parity
            if gcd(p, q) != 1:
                continue
            n = p * p + q * q
            if n > max_hypotenuse:
                continue
            primitive = validate_triple(p * p - q * q, 2 * p * q, n)
            for k in range(1, max_hypotenuse // n + 1):
                found.add(primitive.scaled(k))
        p += 1
    return sorted(found, key=lambda t: (t.n, t.l))


def hypotenuse_pairs(
    triples: list[PythTriple],
) -> list[tuple[PythTriple, PythTriple]]:
    """All unordered pairs of distinct triples sharing a hypotenuse, from a
    list sorted by (n, l) as `generate_triples` returns it.  The pairs come
    sorted by (n, first.l); within a pair the smaller-l triple comes first."""
    by_n: dict[int, list[PythTriple]] = {}
    for t in triples:
        by_n.setdefault(t.n, []).append(t)
    pairs = []
    for group in by_n.values():
        for i, first in enumerate(group):
            for second in group[i + 1 :]:
                pairs.append((first, second))
    return pairs
