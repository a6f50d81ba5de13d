"""Byte-for-byte CLI output for the worked examples, text, JSON and SVG forms.

Each case is (golden file under tests/data/cli/, exit code, argv).  A run
that exits 0 must print the file on stdout and nothing on stderr; a refusal
must print the file on stderr and nothing on stdout."""

import signal
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


@pytest.mark.parametrize("name, code, argv", CASES, ids=[c[0] for c in CASES])
def test_output_matches_golden(capsys, name, code, argv):
    assert main(argv) == code
    captured = capsys.readouterr()
    shown, silent = (captured.out, captured.err) if code == 0 else (captured.err, captured.out)
    assert shown == (GOLDEN / name).read_text()
    assert silent == ""


def test_area_with_large_prime_radicand_finishes(capsys):
    # Heron's radicand here has three prime factors near 2*10**8, which trial
    # division to the cube root took about 20 s to reach
    def timed_out(signum, frame):
        raise TimeoutError("area did not finish within 10 s")

    previous = signal.signal(signal.SIGALRM, timed_out)
    signal.alarm(10)
    try:
        code = main(["area", "12433071/61", "92602035/488", "185871427/976"])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out == (GOLDEN / "area_large_prime_radicand.txt").read_text()
    assert captured.err == ""
