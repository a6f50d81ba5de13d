import copy
import pickle
from fractions import Fraction
from itertools import combinations
from math import isqrt

import pytest

from cyclicquad.triples import (
    NotPythagorean,
    PythTriple,
    generate_triples,
    hypotenuse_groups,
    hypotenuse_pairs,
    validate_triple,
)


def brute_force_triples(max_hypotenuse):
    """Independent oracle: scan every leg pair and test the hypotenuse."""
    found = []
    for l in range(1, max_hypotenuse + 1):
        for m in range(l, max_hypotenuse + 1):
            n = isqrt(l * l + m * m)
            if n <= max_hypotenuse and n * n == l * l + m * m:
                found.append((l, m, n))
    return sorted(found, key=lambda t: (t[2], t[0]))


class TestValidate:
    def test_lilavati_triples(self):
        assert validate_triple(15, 20, 25) == PythTriple(15, 20, 25)
        assert validate_triple(7, 24, 25) == PythTriple(7, 24, 25)

    def test_canonical_order(self):
        assert validate_triple(20, 15, 25) == PythTriple(15, 20, 25)

    def test_rejects_non_pythagorean(self):
        with pytest.raises(NotPythagorean):
            validate_triple(3, 4, 6)

    def test_rejects_nonpositive(self):
        with pytest.raises(NotPythagorean):
            validate_triple(0, 4, 4)


def pickled(protocol):
    return lambda t: pickle.loads(pickle.dumps(t, protocol))


class TestPythTripleContract:
    def test_fields_and_repr(self):
        t = PythTriple(3, 4, 5)
        assert (t.l, t.m, t.n) == (3, 4, 5)
        assert repr(t) == str(t) == "PythTriple(l=3, m=4, n=5)"

    def test_equal_triples_hash_alike(self):
        a, b = PythTriple(5, 12, 13), validate_triple(12, 5, 13)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != PythTriple(3, 4, 5)

    def test_sorts_by_l_then_m(self):
        triples = [PythTriple(15, 20, 25), PythTriple(9, 40, 41), PythTriple(7, 24, 25),
                   PythTriple(9, 12, 15), PythTriple(3, 4, 5)]
        got = [(t.l, t.m) for t in sorted(triples)]
        assert got == [(3, 4), (7, 24), (9, 12), (9, 40), (15, 20)]
        assert PythTriple(3, 4, 5) < PythTriple(5, 12, 13) <= PythTriple(5, 12, 13)

    def test_equals_its_plain_tuple(self):
        t = PythTriple(3, 4, 5)
        assert t == (3, 4, 5) and hash(t) == hash((3, 4, 5)) and list(t) == [3, 4, 5]

    def test_replace_checks_the_result(self):
        assert PythTriple(3, 4, 5)._replace(l=3) == PythTriple(3, 4, 5)
        with pytest.raises(NotPythagorean):
            PythTriple(3, 4, 5)._replace(n=6)

    def test_immutable(self):
        with pytest.raises(AttributeError):
            PythTriple(3, 4, 5).l = 6

    @pytest.mark.parametrize(
        "clone",
        [copy.copy, copy.deepcopy] + [pickled(p) for p in range(pickle.HIGHEST_PROTOCOL + 1)],
    )
    def test_copies_and_pickles(self, clone):
        t = PythTriple(20, 21, 29)
        got = clone(t)
        assert got == t and type(got) is PythTriple
        assert hash(got) == hash(t) and repr(got) == repr(t)

    @pytest.mark.parametrize(
        "sides, message",
        [
            ((0, 5, 5), r"sides must be positive: PythTriple\(l=0, m=5, n=5\)"),
            ((4, 3, 5), r"legs out of canonical order l <= m: PythTriple\(l=4, m=3, n=5\)"),
            ((3, 4, 6), r"3\*\*2 \+ 4\*\*2 != 6\*\*2"),
        ],
    )
    def test_rejects(self, sides, message):
        with pytest.raises(NotPythagorean, match=message):
            PythTriple(*sides)

    @pytest.mark.parametrize(
        "sides",
        [(3.0, 4.0, 5.0), (Fraction(3), 4, 5), (3, 4, 5.0), (3, True, 5), (3, 4, "5")],
    )
    def test_rejects_sides_that_are_not_ints(self, sides):
        # equal values of other types are not sides either: the writers
        # print a triple's sides without looking at them
        with pytest.raises(TypeError, match=r"sides must be ints: \("):
            PythTriple(*sides)
        with pytest.raises(TypeError, match="sides must be ints"):
            validate_triple(*sides)
        with pytest.raises(TypeError, match="sides must be ints"):
            PythTriple(3, 4, 5)._replace(l=sides[0], m=sides[1], n=sides[2])


class TestGenerate:
    def test_smallest(self):
        assert generate_triples(5) == [PythTriple(3, 4, 5)]

    def test_max_25_exact_list(self):
        got = [(t.l, t.m, t.n) for t in generate_triples(25)]
        assert set(got) == {
            (3, 4, 5), (6, 8, 10), (5, 12, 13), (9, 12, 15),
            (8, 15, 17), (12, 16, 20), (15, 20, 25), (7, 24, 25),
        }
        assert got == sorted(got, key=lambda t: (t[2], t[0]))

    def test_matches_brute_force(self):
        # 1105 = 5 * 13 * 17 is the smallest hypotenuse of 13 triples
        oracle = brute_force_triples(1105)
        for bound in [*range(5, 401), 1105]:
            got = [(t.l, t.m, t.n) for t in generate_triples(bound)]
            assert len(set(got)) == len(got), bound
            assert got == [t for t in oracle if t[2] <= bound], bound

    def test_all_valid_and_unique_up_to_1000(self):
        triples = generate_triples(1000)
        assert len(set(triples)) == len(triples)
        for t in triples:
            assert validate_triple(t.l, t.m, t.n) == t

    def test_bound_enforced(self):
        with pytest.raises(ValueError):
            generate_triples(4)


class TestHypotenusePairs:
    def test_contains_lilavati_pair(self):
        pairs = hypotenuse_pairs(generate_triples(25))
        assert (PythTriple(7, 24, 25), PythTriple(15, 20, 25)) in pairs

    def test_no_pair_below_25(self):
        # every hypotenuse up to 20 occurs once, so no pairs at all
        assert hypotenuse_pairs(generate_triples(20)) == []
        assert all(p.n != 15 and s.n != 15 for p, s in hypotenuse_pairs(generate_triples(20)))

    def test_single_triple_no_pairs(self):
        assert hypotenuse_pairs(generate_triples(5)) == []

    def test_pairs_share_hypotenuse_and_are_sorted(self):
        pairs = hypotenuse_pairs(generate_triples(300))
        keys = [(p.n, p.l) for p, _ in pairs]
        assert keys == sorted(keys)
        for p, s in pairs:
            assert p.n == s.n and p != s

    def test_groups_and_pairs_match_brute_force(self):
        # every bound up to 1200, the empty list for those below 5:
        # generate_triples(bound) is the prefix of generate_triples(1200)
        # with n <= bound (TestGenerate)
        found = generate_triples(1200)
        brute_pairs = [(a, b) for a, b in combinations(found, 2) if a.n == b.n]
        hyps = sorted({t.n for t in found})
        brute_groups = [[t for t in found if t.n == n] for n in hyps]
        brute_groups = [group for group in brute_groups if len(group) > 1]
        for bound in range(1201):
            prefix = [t for t in found if t.n <= bound]
            assert hypotenuse_groups(prefix) == [g for g in brute_groups if g[0].n <= bound], bound
            assert hypotenuse_pairs(prefix) == [p for p in brute_pairs if p[0].n <= bound], bound
