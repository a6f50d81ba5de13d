"""Byte-for-byte CLI output for the worked examples, text, JSON and SVG forms.

Each case is (golden file under tests/data/cli/, exit code, argv).  A run
that exits 0 must print the file on stdout and nothing on stderr; a refusal
must print the file on stderr and nothing on stdout."""

import signal
from contextlib import contextmanager
from itertools import zip_longest
from pathlib import Path

import pytest

from cyclicquad.cli import main

GOLDEN = Path(__file__).resolve().parent / "data" / "cli"

_REPORTS = [
    ("area_quad77_split", ["area", "75", "68", "51", "40", "--diagonal", "77"]),
    ("area_trapezium", ["area", "14", "12", "9", "13"]),
    ("area_triangle_digits12", ["--digits", "12", "area", "2", "2", "3"]),
    ("rhombus_1_1", ["rhombus", "1", "1"]),
    ("triples_25_pairs", ["triples", "25", "--pairs"]),
    # six pairs share hypotenuse 65, so pair lists print nested and long
    ("triples_65_pairs", ["triples", "65", "--pairs"]),
    # seven triples on hypotenuse 325, so 21 pairs on one hypotenuse
    ("triples_325_pairs", ["triples", "325", "--pairs"]),
    ("scan_steps9", ["--steps", "9", "scan", "75", "40", "51", "68"]),
]

CASES = (
    [(f"{name}.txt", 0, argv) for name, argv in _REPORTS]
    + [(f"{name}.json", 0, ["--format", "json", *argv]) for name, argv in _REPORTS]
    + [
        ("reproduce.json", 0, ["--format", "json", "reproduce"]),
        ("scan_steps999.json", 0, ["--format", "json", "scan", "75", "40", "51", "68"]),
        ("scan_steps999.svg", 0, ["--format", "svg", "scan", "75", "40", "51", "68"]),
        (
            "area_incommensurable_split.err",
            2,
            ["--format", "json", "area", "2", "3", "4", "5", "--diagonal", "3"],
        ),
    ]
)


def assert_matches_golden(shown: str, name: str):
    """shown == the golden file, byte for byte.  A mismatch is reported at
    its first differing line: pytest's own diff of two outputs of 100 KB
    takes minutes."""
    golden = (GOLDEN / name).read_text()
    if shown == golden:
        return
    pairs = zip_longest(shown.splitlines(keepends=True), golden.splitlines(keepends=True))
    for number, (got, want) in enumerate(pairs, 1):
        if got != want:
            pytest.fail(
                f"{name}, line {number}: got {_line(got)}, golden {_line(want)}",
                pytrace=False,
            )


def _line(text: str | None) -> str:
    return "end of output" if text is None else repr(text)


@pytest.mark.parametrize("name, code, argv", CASES, ids=[c[0] for c in CASES])
def test_output_matches_golden(capsys, name, code, argv):
    assert main(argv) == code
    captured = capsys.readouterr()
    shown, silent = (captured.out, captured.err) if code == 0 else (captured.err, captured.out)
    assert_matches_golden(shown, name)
    assert silent == ""


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


def assert_area_golden_within(capsys, seconds: int, sides: list[str], name: str):
    with time_limit(seconds):
        code = main(["area", *sides])
    assert code == 0
    captured = capsys.readouterr()
    assert_matches_golden(captured.out, name)
    assert captured.err == ""


def test_area_with_large_prime_radicand_finishes(capsys):
    # Heron's radicand here has three prime factors near 2*10**8, which trial
    # division to the cube root took about 20 s to reach
    assert_area_golden_within(
        capsys, 10, ["12433071/61", "92602035/488", "185871427/976"],
        "area_large_prime_radicand.txt",
    )


def test_area_with_20_digit_sides_finishes(capsys):
    # Heron's radicand multiplied out is about 10**78, and rho on it took
    # about 30 s; its four factors are near 10**20 and split in milliseconds
    assert_area_golden_within(
        capsys, 10, ["64319778597937997879", "55114109362843527589", "16401117268241863454"],
        "area_20digit_sides.txt",
    )
