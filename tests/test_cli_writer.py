"""The direct JSON and text writers against their references.

`cli._json` must give the bytes `json.dumps(indent=2)` gives with
`cli._json_value` as the hook, and `cli._text` the bytes of the recursive
writer it replaced, copied here as `reference_text`."""

import json
from collections import namedtuple
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from cyclicquad import cli
from cyclicquad.exactnum import Surd
from cyclicquad.triples import validate_triple


def reference_text(value, digits: int) -> str:
    """Text form of one report value, as the recursive writer printed it."""
    if isinstance(value, (int, str)):
        return str(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(reference_text(v, digits) for v in value) + "]"
    if isinstance(value, (Fraction, Surd)):
        c, r = cli._term(value)
        exact = str(c) if r == 1 else f"{c}*sqrt({r})"
        return f"{exact} ({cli._decimal(value, digits)})"
    raise TypeError(f"{type(value).__name__} has no text form")


def reference_json(value, digits: int) -> str:
    return json.dumps(value, indent=2, default=partial(cli._json_value, digits=digits))


# quotes, backslashes and control characters among any other code point
keys = st.text(st.sampled_from('"\\/\n\t\x00\x1f\x7f') | st.characters(), max_size=8)
ints = st.integers(-(10**100), 10**100)
fractions = st.builds(Fraction, ints, st.integers(1, 10**30))
# single-term surds; a square radicand gives back a Fraction
surds = st.builds(Surd, fractions, st.integers(1, 10**6))
scalars = st.one_of(ints, st.booleans(), keys, fractions, surds)
exacts = fractions | surds

# rows as `generate_triples` and `hypotenuse_pairs` give them: PythTriples,
# a namedtuple of their own style, and plain tuples
Row = namedtuple("Row", "l m n")
pyth_triples = st.integers(2, 60).flatmap(
    lambda p: st.builds(
        lambda q, k: validate_triple(k * (p * p - q * q), k * 2 * p * q, k * (p * p + q * q)),
        st.integers(1, p - 1),
        st.integers(1, 9),
    )
)
int_rows = pyth_triples | st.builds(Row, ints, ints, ints) | st.tuples(ints, ints, ints)




def blocks(leaves):
    """Nested lists of `leaves` shaped like triple and pair rows: uniform
    k x 3 and k x 2 x 3 blocks, ragged rows with empty ones, and any mix of
    depths such as [[1, 2], [3, [4]]]."""
    row = st.lists(leaves, min_size=3, max_size=3)
    return st.one_of(
        st.lists(row, max_size=6),
        st.lists(st.lists(row, min_size=2, max_size=2), max_size=6),
        st.lists(st.lists(leaves, max_size=4), max_size=6),
        st.recursive(leaves, lambda c: st.lists(c, max_size=4), max_leaves=12),
    )


def containers(children, odd_leaf):
    """Lists and tuples of `children`, and blocks of ints or of strs, pure or
    with an `odd_leaf` (a bool, a str, ...) among the ints."""
    return (
        st.lists(children, max_size=6)
        | st.lists(children, max_size=6).map(tuple)
        | st.lists(ints, max_size=6)
        | st.lists(keys, max_size=6)
        | blocks(ints)
        | blocks(keys)
        | blocks(st.one_of(ints, ints, ints, odd_leaf))
    )


def tuple_blocks(rows):
    """Uniform blocks of tuple rows: k rows, k pairs of rows as tuples or
    lists, and single rows."""
    return st.one_of(
        st.lists(rows, min_size=1, max_size=6),
        st.lists(rows, min_size=1, max_size=6).map(tuple),
        st.lists(st.tuples(rows, rows), min_size=1, max_size=6),
        st.lists(st.lists(rows, min_size=2, max_size=2), min_size=1, max_size=6),
        rows,
    )


def nested(children, depth: int):
    """`children` inside `depth` levels of lists, tuples and dicts."""
    for _ in range(depth):
        children = st.one_of(
            st.lists(children, max_size=3),
            st.lists(children, max_size=3).map(tuple),
            st.dictionaries(keys, children, max_size=3),
        )
    return children


# exact values, alone, in lists or beside triple rows, at depths 0 to 4
exact_trees = st.integers(0, 4).flatmap(
    lambda depth: nested(
        exacts | st.lists(exacts, max_size=4) | tuple_blocks(pyth_triples | int_rows), depth
    )
)


text_trees = st.recursive(
    scalars,
    lambda children: containers(children, st.booleans() | keys),
    max_leaves=30,
)
json_trees = st.recursive(
    scalars | st.none(),
    lambda children: (
        containers(children, st.booleans() | st.none() | keys)
        | st.dictionaries(keys, children, max_size=5)
    ),
    max_leaves=30,
)


class TestJsonWriter:
    @settings(deadline=None)
    @given(json_trees, st.integers(1, 60))
    def test_matches_json_dumps(self, value, digits):
        assert cli._json(value, "\n", digits) == reference_json(value, digits)

    @pytest.mark.parametrize(
        "value",
        [
            [1, True, "x", None],
            [[True, 1], [False], [0, 1]],
            [[], (), {}, [[]]],
            [[1, 2, 3], [4, 5, 6], [7, 8]],
            [["a", "b"], ["c", "d"], [1, "e"]],
            [[1, 2], [3, [4]]],
            [[[1, 2]], [[3]]],
            [[1, 2, 3], [4, 5, True]],
            [["0.5", "1.25"], ["0.75", "é\\"]],
            [["a", "b"], ["c", 1]],
            [[[1, 2, 3], [4, 5, 6]], [[7, 8, 9], [10, 11, None]]],
            [[], []],
            {"pairs": [[[7, 24, 25], [15, 20, 25]], [[14, 48, 50], [30, 40, 50]]]},
            {"é \"\\": [-(10**99), Fraction(-7, 3), Surd(Fraction(2, 3), 12)]},
            Surd(1, 2),
        ],
    )
    def test_examples(self, value):
        assert cli._json(value, "\n", 20) == reference_json(value, 20)

    @settings(deadline=None)
    @given(blocks(st.text(st.sampled_from("0123456789.-"), max_size=12)) | blocks(keys))
    def test_string_blocks(self, value):
        # decimal-only blocks are quoted by the template, others escaped
        assert cli._json(value, "\n", 20) == reference_json(value, 20)

    @pytest.mark.parametrize(
        "value",
        [
            [["35.08", "937.158825036"], ["-0.5", "1e5"]],
            [["0.1", "-2"], ["3.", ""]],
            [["", ""], ["", ""]],
            [["1.5", '2"5'], ["3", "4"]],
            [["1.5", "2\\5"], ["3", "4"]],
            [["1.5", "2\n"], ["3", "\x00"]],
            [["1.5", "٣"], ["3", "4"]],
            [["1.5", "²"], ["é", "4"]],
            [["1.5", "\ud800"], ["3", "4"]],
            ["0.25", "-7", "\x7f"],
        ],
    )
    def test_string_block_examples(self, value):
        assert cli._json(value, "\n", 20) == reference_json(value, 20)

    @settings(deadline=None)
    @given(exact_trees, st.sampled_from((1, 60)))
    def test_exact_values_and_tuple_rows(self, value, digits):
        # an exact value fills one template at any depth, and tuple rows,
        # PythTriples among them, are arrays as json.dumps writes them
        assert cli._json(value, "\n", digits) == reference_json(value, digits)

    @pytest.mark.parametrize(
        "value",
        [
            Fraction(-(10**99) - 7, 3),
            Surd(Fraction(-(10**100), 7), 30),
            [Fraction(1, 3), {"a": (Surd(2, 3), [Fraction(-5)])}],
            {"k": [[(3, 4, 5)], ({"x": Fraction(7, 2)},)]},
            [validate_triple(3, 4, 5), Row(-1, 0, 10**100)],
            ((validate_triple(7, 24, 25), validate_triple(15, 20, 25)),),
        ],
    )
    @pytest.mark.parametrize("digits", [1, 60])
    def test_exact_examples(self, value, digits):
        assert cli._json(value, "\n", digits) == reference_json(value, digits)

    def test_unknown_type_raises_from_the_hook(self):
        with pytest.raises(TypeError, match="set is not JSON serializable"):
            cli._json({"a": [1, {2}]}, "\n", 20)


class TestTextWriter:
    @settings(deadline=None)
    @given(text_trees, st.integers(1, 60))
    def test_matches_reference(self, value, digits):
        assert cli._text(value, digits) == reference_text(value, digits)

    @settings(deadline=None)
    @given(tuple_blocks(pyth_triples | int_rows) | blocks(ints), st.integers(1, 60))
    def test_int_and_tuple_blocks(self, value, digits):
        assert cli._text(value, digits) == reference_text(value, digits)

    def test_int_rows(self):
        rows = [[3, 4, 5], [6, 8, 10], (5, 12, 13), [], [True, 0]]
        assert cli._text(rows, 12) == "[[3, 4, 5], [6, 8, 10], [5, 12, 13], [], [True, 0]]"
        pairs = [[[7, 24, 25], [15, 20, 25]], [[1, (2,)], [[]]]]
        assert cli._text(pairs, 12) == "[[[7, 24, 25], [15, 20, 25]], [[1, [2]], [[]]]]"


# any code point: lone surrogates, characters past U+FFFF, C0 controls and
# DEL, and the two characters JSON escapes by name
any_text = st.text(
    st.characters(min_codepoint=0, max_codepoint=0x10FFFF)
    | st.sampled_from('"\\\x00\x1f\x7f𐏿\U0001f600 ')
)


class TestQuote:
    @settings(deadline=None)
    @given(any_text)
    def test_matches_json_dumps(self, text):
        assert cli._quote(text) == json.dumps(text)

    @settings(deadline=None)
    @given(st.lists(any_text, max_size=4))
    def test_memo_matches_json_dumps(self, texts):
        # `_QUOTED` keeps each answer; asking twice gives it back unchanged
        for text in texts + texts:
            assert cli._QUOTED[text] == json.dumps(text)

    @pytest.mark.parametrize(
        "text",
        ["", "plain", '"', "\\", "\b\f\n\r\t", "\x00\x1f\x7f", "é", "\ud800", "\udfff x",
         "\U0001f600", "\U0010ffff", "a b"],
    )
    def test_examples(self, text):
        assert cli._quote(text) == json.dumps(text)
