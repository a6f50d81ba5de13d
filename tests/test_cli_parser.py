"""The table-driven command-line parser against the argparse parser it
replaced, kept as `build_parser` in conftest.py.

Argv that argparse accepts must parse to the same values; argv that it
rejects must be rejected with exit code 2; `-h` must print the help of the
same level."""

import contextlib
import io
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

import cyclicquad.cli as cli

from conftest import build_parser as reference_parser

COMMANDS = ["reproduce", "area", "construct", "scan", "rhombus", "triples"]

# global options: full, abbreviated, with =value, and with missing or bad values
GLOBAL = [
    ["--digits", "5"], ["--dig", "7"], ["--digits=3"], ["--d=9"], ["--digits", "-3"],
    ["--steps", "9"], ["--st=3"], ["--s", "4"], ["--steps", "x"], ["--digits="],
    ["--format", "json"], ["--f", "svg"], ["--format=text"], ["--form=json"],
    ["--format", "xml"], ["--format", "JSON"], ["--format="],
    ["--out", "r.txt"], ["--o=x"], ["--out", "-"], ["--out="],
    ["--digits"], ["--steps", "--format"], ["--out", "-x"],
]
# a command's own options and option-like strings
OPTIONS = [
    ["--diagonal", "77"], ["--diag=5"], ["--d", "-3"], ["--diagonal"], ["--diagonal", "-x"],
    ["--triple", "3", "4", "5"], ["--tri", "7", "24", "25"], ["--triple", "3", "4"],
    ["--triple", "3", "x", "5"], ["--triple=3"], ["--triple", "-3", "4", "5"],
    ["--pairs"], ["--p"], ["--pairs=x"], ["--pairs="],
    ["-h"], ["--help"], ["--h"], ["--he"], ["-hh"], ["-hx"], ["-h=x"], ["-h="], ["--help=1"],
    ["--foo"], ["-x"], ["--=x"], ["--"],
]
# positional strings: numbers, negative-looking numbers, bad ints, odd text
VALUES = [
    "3", "4", "5", "8", "15", "17", "25", "75", "13/2", "0", "-3", "-2.5", "-.5",
    "x", "", " 7", "1_000", "-", "text", "json", "xml", "a b", "-1 2",
]
if sys.version_info >= (3, 12):
    # argparse changed its handling of '--' in 3.12; the parser keeps 3.11's
    OPTIONS.remove(["--"])

INTS = ["3", "4", "5", "8", "15", "17", "-3", " 7", "1_000"]
# each command's arguments in a valid count, with its options among them
BODIES = {
    "reproduce": st.just([]),
    "area": st.lists(st.sampled_from(VALUES[:13]).map(lambda v: [v]), min_size=3, max_size=4)
    .map(lambda sides: sides + [["--diagonal", "77"]]),
    "construct": st.lists(st.sampled_from(INTS).map(lambda v: [v]), min_size=6, max_size=6),
    "scan": st.lists(st.sampled_from(VALUES[:13]).map(lambda v: [v]), min_size=4, max_size=4),
    "rhombus": st.just([["25"], ["30"]]) | st.just([["--triple", "7", "24", "25"]]),
    "triples": st.just([["25"], ["--pairs"]]),
}
valid = st.sampled_from(COMMANDS).flatmap(
    lambda command: st.builds(
        lambda front, body: sum(front, []) + [command] + sum(body, []),
        st.lists(st.sampled_from(GLOBAL[:21]), max_size=3),
        BODIES[command].flatmap(st.permutations),
    )
)

parts = st.sampled_from(GLOBAL) | st.sampled_from(OPTIONS) | st.sampled_from(VALUES).map(lambda v: [v])
argvs = st.one_of(
    valid,
    # global options, a command (or not), then anything
    st.builds(
        lambda front, command, rest: sum(front, []) + command + sum(rest, []),
        st.lists(st.sampled_from(GLOBAL), max_size=3),
        st.sampled_from(COMMANDS + ["circle", "-3", ""]).map(lambda c: [c]) | st.just([]),
        st.lists(parts, max_size=8),
    ),
    # any mix of the pieces
    st.lists(parts | st.sampled_from(COMMANDS).map(lambda c: [c]), max_size=10).map(
        lambda chunks: sum(chunks, [])
    ),
)


def reference(argv):
    """("ok", values), ("help", prog words) or ("error", exit code) from argparse."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return "ok", vars(reference_parser().parse_args(argv))
    except SystemExit as exc:
        if exc.code == 0:
            return "help", out.getvalue().split()[1:3]
        return "error", exc.code


def parsed(argv):
    """The same outcome from `cli.build_parser()`."""
    try:
        return "ok", vars(cli.build_parser().parse_args(argv))
    except cli.ParserExit as stop:
        if stop.code == 0:
            return "help", stop.text.split()[1:3]
        return "error", stop.code


@settings(max_examples=2000, deadline=None)
@given(argvs)
@example(["area", "3", "4", "5", "--diagonal", "-3"])
@example(["area", "3", "--diagonal", "5", "4", "5"])
@example(["scan", "3", "4", "-h"])
@example(["--digits", "5", "--foo", "-h"])
@example(["-hh"])
@example(["rhombus", "--triple", "3", "4", "5", "25", "30"])
def test_parser_matches_argparse(argv):
    assert parsed(argv) == reference(argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["--dig", "5", "area", "14", "12", "9", "13", "--d=3"],
        ["--format=json", "--st", "9", "scan", "75", "40", "51", "68"],
        ["rhombus", "--triple", "3", "4", "5"],
        ["triples", "25", "--p"],
        ["construct", "3", "4", "5", "8", "15", "17"],
        ["area", "-3", "4", "5"],
        ["--out", "x", "reproduce"],
    ],
)
def test_accepted_forms(argv):
    outcome, values = parsed(argv)
    assert outcome == "ok" and values == reference(argv)[1]


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["area"],
        ["construct", "3", "4", "5"],
        ["--format", "xml", "area", "3", "4", "5"],
        ["circle"],
        ["triples", "x"],
        ["scan", "3", "4", "5", "6", "7"],
        ["area", "3", "4", "5", "--digits", "5"],
        ["--triple", "3", "4", "5"],
        ["-x", "reproduce"],
    ],
)
def test_rejected_forms_exit_2(capsys, argv):
    assert reference(argv) == ("error", 2)
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: cyclicquad")
    assert captured.err.splitlines()[-1].split(": error: ")[1]
