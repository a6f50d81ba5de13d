from math import isqrt

import pytest

from cyclicquad.triples import (
    NotPythagorean,
    PythTriple,
    generate_triples,
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
        got = [(t.l, t.m, t.n) for t in generate_triples(200)]
        assert got == brute_force_triples(200)

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
