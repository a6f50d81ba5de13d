"""Pythagorean triple validation, enumeration and hypotenuse matching."""

from __future__ import annotations

from collections import namedtuple
from itertools import chain, combinations, compress, count
from math import gcd
from operator import itemgetter, ne


class NotPythagorean(ValueError):
    """The given legs and hypotenuse do not satisfy l**2 + m**2 == n**2."""


_Sides = namedtuple("_Sides", "l m n")


class PythTriple(_Sides):
    """A Pythagorean triple in canonical order l <= m < n: a tuple (l, m, n)
    of ints, checked when it is made, so it equals, hashes and sorts as that
    tuple."""

    __slots__ = ()

    def __new__(cls, l: int, m: int, n: int) -> "PythTriple":
        # the writers print a block of triples without looking at its sides
        if not type(l) is type(m) is type(n) is int:
            raise TypeError(f"sides must be ints: {(l, m, n)!r}")
        self = tuple.__new__(cls, (l, m, n))
        if min(l, m, n) < 1:
            raise NotPythagorean(f"sides must be positive: {self}")
        if l > m:
            raise NotPythagorean(f"legs out of canonical order l <= m: {self}")
        if l**2 + m**2 != n**2:
            raise NotPythagorean(f"{l}**2 + {m}**2 != {n}**2")
        return self

    @classmethod
    def _make(cls, iterable) -> "PythTriple":
        # `_replace` goes through `_make`: check its result too
        return cls(*iterable)


def validate_triple(l: int, m: int, n: int) -> PythTriple:
    """Canonicalize legs and validate the Pythagorean identity."""
    if l > m:
        l, m = m, l
    return PythTriple(l, m, n)


def generate_triples(max_hypotenuse: int) -> list[PythTriple]:
    """All triples with hypotenuse <= max_hypotenuse, each once, sorted by
    (n, l).  Non-primitive triples are included: every primitive from the
    Euclid parametrization (p**2 - q**2, 2pq, p**2 + q**2) is scaled by all
    k with k*n within bound.

    Each triple comes once without de-duplication: coprime p > q of opposite
    parity give every primitive triple exactly once, and every triple is
    k times exactly one primitive, k being the gcd of its sides.  A multiple
    of a validated primitive keeps the identity, the leg order and positive
    sides, so it is built as a tuple without checking it again."""
    if max_hypotenuse < 5:
        raise ValueError("max_hypotenuse must be >= 5")
    new = tuple.__new__
    found: list[PythTriple] = []
    p = 2
    while p * p + 1 <= max_hypotenuse:
        for q in range(1 + p % 2, p, 2):  # opposite parity
            n = p * p + q * q
            if n > max_hypotenuse:
                break  # n grows with q
            if gcd(p, q) != 1:
                continue
            l, m, n = validate_triple(p * p - q * q, 2 * p * q, n)
            found += [
                new(PythTriple, (k * l, k * m, k * n)) for k in range(1, max_hypotenuse // n + 1)
            ]
        p += 1
    found.sort(key=itemgetter(2, 0))  # (n, l)
    return found


def hypotenuse_groups(triples: list[PythTriple]) -> list[list[PythTriple]]:
    """The runs of two or more triples sharing a hypotenuse in a list sorted
    by (n, l) as `generate_triples` returns it, in that order."""
    hyps = list(map(itemgetter(2), triples))
    # a run ends where the hypotenuse changes, and at the end of the list
    ends = [*compress(count(1), map(ne, hyps, hyps[1:])), len(triples)]
    return [triples[start:end] for start, end in zip([0, *ends], ends) if end - start > 1]


def hypotenuse_pairs(
    triples: list[PythTriple],
) -> list[tuple[PythTriple, PythTriple]]:
    """All unordered pairs of distinct triples sharing a hypotenuse, from a
    list sorted by (n, l) as `generate_triples` returns it: `combinations`
    of each of its `hypotenuse_groups`.  The pairs come sorted by
    (n, first.l); within a pair the smaller-l triple comes first."""
    return list(chain.from_iterable(combinations(g, 2) for g in hypotenuse_groups(triples)))
