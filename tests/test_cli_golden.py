"""Byte-for-byte CLI output for the worked examples, text, JSON and SVG forms.

Each case is (golden file under tests/data/cli/, exit code, argv).  A run
that exits 0 must print the file on stdout and nothing on stderr; a refusal
must print the file on stderr and nothing on stdout."""

from itertools import zip_longest
from pathlib import Path

import pytest

from cyclicquad.cli import main

from conftest import time_limit

GOLDEN = Path(__file__).resolve().parent / "data" / "cli"

SIDES_80 = [
    "53702342298702900314186501861978917952591646589069216578666847614225793129935131",
    "38645708957458125109916684478674801782240005510317688634899862001321450129624253",
    "25472285789645087989880181318047485199648290023307462091389693829302135896208000",
    "87939823223186002773145329248828446915704894884080899850836230542941273950599438",
]

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
    # the one report that prints a QuadSides
    ("construct_3_4_5_8_15_17", ["construct", "3", "4", "5", "8", "15", "17"]),
    # rational sides: four denominators, and a surd root-rule area
    ("area_four_denominators", ["area", "7/2", "15/4", "9/5", "13/6"]),
    # the 77-split scaled by 1/7: split area 66, perpendiculars 60/7 and 24/7
    (
        "area_quad77_sevenths_split",
        ["area", "75/7", "68/7", "51/7", "40/7", "--diagonal", "11"],
    ),
    ("area_triangle_rational", ["area", "13/2", "14/3", "15/4"]),
    ("rhombus_rational", ["rhombus", "5/2", "7/3"]),
]

CASES = (
    [(f"{name}.txt", 0, argv) for name, argv in _REPORTS]
    + [(f"{name}.json", 0, ["--format", "json", *argv]) for name, argv in _REPORTS]
    + [
        ("reproduce.json", 0, ["--format", "json", "reproduce"]),
        ("scan_steps999.txt", 0, ["scan", "75", "40", "51", "68"]),
        ("scan_steps999.json", 0, ["--format", "json", "scan", "75", "40", "51", "68"]),
        ("scan_steps999.svg", 0, ["--format", "svg", "scan", "75", "40", "51", "68"]),
        (
            "scan_steps99.svg",
            0,
            ["--format", "svg", "--steps", "99", "scan", "75", "40", "51", "68"],
        ),
        ("scan_steps9.svg", 0, ["--format", "svg", "--steps", "9", "scan", "75", "40", "51", "68"]),
        # the smallest grid: the peak's window is clipped at both ends, and
        # every curve point is a known exact root
        ("scan_steps3.txt", 0, ["--steps", "3", "scan", "75", "40", "51", "68"]),
        (
            "scan_steps3.json",
            0,
            ["--format", "json", "--steps", "3", "scan", "75", "40", "51", "68"],
        ),
        ("scan_steps3.svg", 0, ["--format", "svg", "--steps", "3", "scan", "75", "40", "51", "68"]),
        (
            # snapshot heights irrational, drawn from the scan's integers
            "scan_9digit_sides.svg",
            0,
            ["--format", "svg", "scan", "655703491", "247009029", "923783236", "809765390"],
        ),
        (
            # 20-digit sides: the curve proved from doubles
            "scan_20digit_sides.svg",
            0,
            ["--format", "svg", "scan", "64319778597937997879", "55114109362843527589",
             "16401117268241863454", "30000000000000000001"],
        ),
        (
            # 80-digit sides: each P is too large for a double, so every
            # curve point takes its exact root
            "scan_80digit_sides.svg",
            0,
            ["--format", "svg", "scan", *SIDES_80],
        ),
        ("help.txt", 0, ["--help"]),
        *[(f"help_{c}.txt", 0, [c, "--help"]) for c in
          ("reproduce", "area", "construct", "scan", "rhombus", "triples")],
        # usage errors: argparse's wording, as Python 3.11 printed it
        ("usage_area_missing_side.err", 2, ["area"]),
        ("usage_construct_missing_number.err", 2, ["construct", "3", "4", "5", "8", "15"]),
        ("usage_format_xml.err", 2, ["--format", "xml", "area", "3", "4", "5"]),
        ("usage_unknown_command.err", 2, ["circle", "3", "4", "5"]),
        ("usage_triples_not_int.err", 2, ["triples", "x"]),
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


def test_text_scan_at_a_million_steps_finishes(capsys):
    # a text scan evaluates its ends and a window around the peak, so its
    # cost does not grow with the grid; the full kernel took about 2 s
    # and 221 MB on a 2-vCPU x86 VM
    with time_limit(5):
        code = main(["--steps", "999999", "scan", "75", "40", "51", "68"])
    assert code == 0
    captured = capsys.readouterr()
    assert_matches_golden(captured.out, "scan_steps999999.txt")
    assert captured.err == ""
