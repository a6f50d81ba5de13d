import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import cyclicquad.cli as cli
from cyclicquad import exactnum, manifest, mensuration, triples
from cyclicquad.cli import main
from cyclicquad.manifest import ManifestEntry

DATA = os.path.join(os.path.dirname(__file__), "data")
SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestReproduce:
    def test_text_passes(self, capsys):
        code, out, err = run_cli(capsys, "reproduce")
        assert code == 0
        assert "18/18 entries passed" in out
        assert "[PASS" in out and "FAIL" not in out
        # provenance lines name the classical sources
        assert "Lilavati 168" in out
        assert "Brahmasphutasiddhanta XII.38" in out

    def test_json_deterministic(self, capsys):
        code1, out1, _ = run_cli(capsys, "--format", "json", "reproduce")
        code2, out2, _ = run_cli(capsys, "--format", "json", "reproduce")
        assert code1 == code2 == 0
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["command"] == "reproduce"
        assert len(payload["entries"]) == 18
        assert all(e["status"] == "pass" for e in payload["entries"])

    def test_failure_exit_code(self, capsys, monkeypatch):
        broken = ManifestEntry(
            id="synthetic",
            description="forced failure",
            provenance="test fixture",
            expected=1,
            computed=2,
            status="fail",
        )
        monkeypatch.setattr(manifest, "run_manifest", lambda: [broken])
        code, out, _ = run_cli(capsys, "reproduce")
        assert code == 1
        assert "0/1 entries passed" in out

    def test_any_digits_passes(self, capsys):
        # every manifest comparison is exact, so the printed decimals do not
        # decide a verdict
        code, out, _ = run_cli(capsys, "--digits", "5", "reproduce")
        assert code == 0
        assert "18/18 entries passed" in out


class TestArea:
    def test_triangle_text(self, capsys):
        code, out, _ = run_cli(capsys, "area", "3", "4", "5")
        assert code == 0
        assert "figure: triangle" in out
        assert "area: 6" in out

    def test_quad_with_diagonal_json(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "--format", "json",
            "area", "75", "68", "51", "40", "--diagonal", "77",
        )
        assert code == 0
        report = json.loads(out)["report"]
        assert report["figure"] == "quadrilateral"
        assert report["split_area"]["coefficient"]["num"] == "3234"
        assert report["split_area"]["radicand"] == "1"
        assert [p["coefficient"]["num"] for p in report["perpendiculars"]] == ["60", "24"]
        assert report["cyclic"] is True
        diag_nums = sorted(d["coefficient"]["num"] for d in report["cyclic_diagonals"])
        assert diag_nums == ["77", "85"]

    def test_surd_rendering(self, capsys):
        code, out, _ = run_cli(capsys, "area", "14", "12", "9", "13")
        assert code == 0
        assert "30*sqrt(22)" in out

    def test_wrong_arity(self, capsys):
        code, _, err = run_cli(capsys, "area", "3", "4")
        assert code == 2 and "error:" in err

    def test_invalid_triangle(self, capsys):
        code, _, err = run_cli(capsys, "area", "1", "2", "5")
        assert code == 2 and "error:" in err

    def test_nonpositive_side(self, capsys):
        code, _, err = run_cli(capsys, "area", "3", "4", "-5")
        assert code == 2 and "error:" in err

    def test_incommensurable_split_refused_with_its_value(self, capsys):
        # the split area 6 + 2*sqrt(2) is exact but has no one-term form
        code, out, err = run_cli(capsys, "area", "2", "3", "4", "5", "--diagonal", "3")
        assert code == 2 and out == ""
        assert err == "error: 6 + 2*sqrt(2) has no single c*sqrt(r) form\n"

    def test_nonpositive_diagonal(self, capsys):
        code, out, err = run_cli(capsys, "area", "75", "68", "51", "40", "--diagonal", "0")
        assert code == 2 and out == ""
        assert err == "error: lengths must be positive: 0\n"

    def test_diagonal_on_triangle(self, capsys):
        code, _, err = run_cli(capsys, "area", "3", "4", "5", "--diagonal", "2")
        assert code == 2 and "error:" in err


class TestConstruct:
    def test_ganesa_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "--format", "json", "construct", "3", "4", "5", "8", "15", "17"
        )
        assert code == 0
        report = json.loads(out)["report"]
        assert report["glue_diagonal"]["coefficient"]["num"] == "85"
        assert report["area"]["coefficient"]["num"] == "3234"
        assert report["sutra_area"]["coefficient"]["num"] == "3234"
        assert sorted(int(s["coefficient"]["num"]) for s in report["sides"]) == [
            40, 51, 68, 75,
        ]

    def test_not_a_triple(self, capsys):
        code, _, err = run_cli(capsys, "construct", "3", "4", "6", "8", "15", "17")
        assert code == 2 and "error:" in err

    def test_missing_triple_is_a_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "construct", "3", "4", "5")
        assert (code, out) == (2, "")
        assert err.endswith("error: the following arguments are required: L2, M2, N2\n")


class TestScan:
    def test_json_structure(self, capsys):
        code, out, _ = run_cli(
            capsys, "--format", "json", "--steps", "99", "--digits", "20",
            "scan", "25", "25", "25", "25",
        )
        assert code == 0
        report = json.loads(out)["report"]
        assert report["steps"] == 99
        assert len(report["samples"]) == 99
        assert float(report["max_area"]) == pytest.approx(625, abs=0.1)

    def test_svg_shape(self, capsys):
        code, out, _ = run_cli(
            capsys, "--format", "svg", "--steps", "99", "scan", "75", "40", "51", "68"
        )
        assert code == 0
        assert out.startswith("<svg")
        assert 'viewBox="0 0 1000 700"' in out
        assert 'stroke-width="2"' in out
        assert out.rstrip().endswith("</svg>")

    def test_svg_deterministic(self, capsys):
        args = ("--format", "svg", "--steps", "99", "scan", "14", "12", "9", "13")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_tiny_sides_keep_significant_digits(self, capsys):
        side = "1/" + "1" + "0" * 39
        code, out, _ = run_cli(capsys, "--digits", "12", "--steps", "9", "scan", *[side] * 4)
        assert code == 0
        report = dict(line.strip().split(": ", 1) for line in out.splitlines()[1:])
        # rhombi of side 1e-39: the best sampled diagonal, 1.4e-39, gives
        # area 0.7e-39 * sqrt(4 - 1.96)e-39 = 9.9979998e-79
        assert report["max_area"] == "0." + "0" * 78 + "99979998000"
        assert report["argmax_diagonal"] == "0." + "0" * 38 + "14000000000"

    def test_one_digit_shows_a_significant_digit(self, capsys):
        code, out, _ = run_cli(capsys, "--digits", "1", "scan", "1", "1", "1", "1")
        assert code == 0
        report = dict(line.strip().split(": ", 1) for line in out.splitlines()[1:])
        # first grid diagonal 2/1000, area about 0.002 * sqrt(4 - 0.000004) / 2
        assert report["first_sample"] == "[0.002, 0.002]"

    @pytest.mark.parametrize(
        "command",
        [
            ["area", "3", "4", "5"],
            ["rhombus", "--triple", "7", "24", "25"],
            ["triples", "25"],
            ["reproduce"],
        ],
    )
    def test_svg_only_for_scan(self, capsys, command):
        code, out, err = run_cli(capsys, "--format", "svg", *command)
        assert code == 2 and out == ""
        assert err == "error: --format svg applies only to scan\n"

    def test_bad_steps(self, capsys):
        code, _, err = run_cli(capsys, "--steps", "2", "scan", "3", "4", "5", "6")
        assert code == 2 and "error:" in err

    def test_wrong_arity_rejected_by_parser(self, capsys):
        # main returns the parser's exit code; it raises no SystemExit
        code, out, err = run_cli(capsys, "scan", "3", "4", "5")
        assert (code, out) == (2, "")
        assert err.endswith("error: the following arguments are required: sides\n")

    def test_json_scan_bypasses_the_hook(self, capsys, monkeypatch):
        # the samples are rendered to strings by the command, so the JSON
        # writer renders only the four exact sides as exact values
        calls = []
        original = cli._exact_strs

        def counting(value, digits):
            calls.append(value)
            return original(value, digits)

        monkeypatch.setattr(cli, "_exact_strs", counting)
        code, out, _ = run_cli(capsys, "--format", "json", "scan", "75", "40", "51", "68")
        assert code == 0 and len(json.loads(out)["report"]["samples"]) == 999
        assert calls == [75, 40, 51, 68]


class TestRhombus:
    def test_dims(self, capsys):
        code, out, _ = run_cli(capsys, "rhombus", "25", "30")
        assert code == 0
        assert "d2: 40" in out
        assert "area: 600" in out
        assert "square_same_side_area: 625" in out

    def test_triple(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "rhombus", "--triple", "7", "24", "25")
        assert code == 0
        report = json.loads(out)["report"]
        assert report["d1"]["coefficient"]["num"] == "14"
        assert report["d2"]["coefficient"]["num"] == "48"
        assert report["area"]["coefficient"]["num"] == "336"

    @settings(deadline=None)
    @given(st.fractions(min_value=Fraction(1, 10**6), max_value=10**6, max_denominator=10**6))
    def test_square_same_side_area_is_the_rule_on_the_square(self, side):
        # the rhombus rule on the square of the same side, whose diagonal is
        # side*sqrt(2), is the reference for side*side
        reports = []
        with mock.patch.object(cli, "_write_report", lambda _, __, report: reports.append(report)):
            main(["rhombus", str(side), str(side)])
        value = reports[0]["square_same_side_area"]
        square = mensuration.Rhombus(side, side * exactnum.Surd(1, 2))
        assert type(value) is Fraction and value == mensuration.rhombus_area(square)

    def test_degenerate(self, capsys):
        code, _, err = run_cli(capsys, "rhombus", "25", "50")
        assert code == 2 and "error:" in err

    def test_missing_dims(self, capsys):
        code, _, err = run_cli(capsys, "rhombus", "25")
        assert code == 2 and "error:" in err

    def test_dims_with_triple_rejected(self, capsys):
        code, out, err = run_cli(capsys, "rhombus", "25", "30", "--triple", "7", "24", "25")
        assert code == 2 and out == ""
        assert err == "error: rhombus takes SIDE D1 or --triple L M N\n"


class TestTriples:
    def test_max_25_with_pairs(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "triples", "25", "--pairs")
        assert code == 0
        report = json.loads(out)["report"]
        assert [15, 20, 25] in report["triples"]
        assert [7, 24, 25] in report["triples"]
        assert [[7, 24, 25], [15, 20, 25]] in report["hypotenuse_pairs"]

    def test_no_pairs_below_25(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "triples", "20", "--pairs")
        assert code == 0
        assert json.loads(out)["report"]["hypotenuse_pairs"] == []

    def test_pairs_enumerate_the_triples_once(self, capsys, monkeypatch):
        calls = []
        original = triples.generate_triples

        def counting(max_hypotenuse):
            calls.append(max_hypotenuse)
            return original(max_hypotenuse)

        monkeypatch.setattr(triples, "generate_triples", counting)
        monkeypatch.setattr(cli, "generate_triples", counting)
        code, _, _ = run_cli(capsys, "triples", "50", "--pairs")
        assert code == 0 and calls == [50]

    def test_below_five_is_a_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "triples", "4")
        assert code == 2 and out == ""
        assert err == "error: max_hypotenuse must be >= 5\n"

    # 1105 = 5 * 13 * 17 and 2465 = 5 * 17 * 29 are each the hypotenuse of
    # 13 triples, so of 78 pairs
    @pytest.mark.parametrize("n", [5, 24, 25, 100, 1000, 1105, 2000, 2465])
    def test_pairs_print_as_the_listified_report(self, capsys, tmp_path, n):
        # the writers take the PythTriple rows as they come and the pairs as
        # their hypotenuse groups; the output is that of the report with
        # the triples and the pair tuples copied into lists of lists
        found = triples.generate_triples(n)
        report = {
            "max_hypotenuse": n,
            "triples": [list(t) for t in found],
            "hypotenuse_pairs": [[list(p), list(s)] for p, s in triples.hypotenuse_pairs(found)],
        }
        text = "triples:\n" + "".join(f"  {k}: {v!r}\n" for k, v in report.items())
        config = {"precision_digits": cli.DEFAULT_DIGITS, "scan_steps": 999, "output_format": "json"}
        payload = {"command": "triples", "config": config, "report": report}
        for argv, expected in [
            (["triples", str(n), "--pairs"], text),
            (["--format", "json", "triples", str(n), "--pairs"], json.dumps(payload, indent=2) + "\n"),
        ]:
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0 and out == expected
            path = tmp_path / "out"
            code, out, _ = run_cli(capsys, "--out", str(path), *argv)
            assert (code, out) == (0, "") and path.read_text() == expected


class TestExitCodes:
    def test_a_bug_is_not_a_usage_error(self, capsys, monkeypatch):
        # a plain ValueError from inside the program is a bug: it propagates
        # instead of exiting 2 as if the input were at fault
        def broken(q):
            raise ValueError("internal fault")

        monkeypatch.setattr(cli, "sutra_area", broken)
        with pytest.raises(ValueError, match="internal fault"):
            main(["area", "3", "4", "5", "6"])


class TestFactoring:
    @pytest.mark.parametrize(
        "argv, calls",
        [
            # rational roots are found by isqrt and never factored
            (["area", "75", "68", "51", "40", "--diagonal", "77"], 0),
            (["construct", "3", "4", "5", "8", "15", "17"], 0),
            # sqrt(19800) only, one split per factor: 10, 12, 15 and 11
            (["area", "14", "12", "9", "13"], 4),
            (["reproduce"], 7),
        ],
    )
    def test_each_root_factored_once(self, capsys, monkeypatch, argv, calls):
        seen = []
        original = exactnum.square_free_split

        def counting(n):
            seen.append(n)
            return original(n)

        monkeypatch.setattr(exactnum, "square_free_split", counting)
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0
        assert len(seen) == len(set(seen)) == calls


class TestValidation:
    def test_split_validates_each_triangle_once(self, capsys, monkeypatch):
        seen = []
        original = mensuration.Triangle.__post_init__

        def counting(self):
            seen.append(self)
            original(self)

        monkeypatch.setattr(mensuration.Triangle, "__post_init__", counting)
        code, _, _ = run_cli(capsys, "area", "75", "68", "51", "40", "--diagonal", "77")
        assert code == 0
        assert len(seen) == 2


class TestOutFile:
    def test_out_writes_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "--format", "json", "--out", str(path), "area", "3", "4", "5"
        )
        assert code == 0 and out == ""
        payload = json.loads(path.read_text())
        assert payload["report"]["area"]["coefficient"]["num"] == "6"

    def test_unwritable_out_is_an_output_error(self, capsys, tmp_path):
        path = tmp_path / "missing" / "report.txt"
        code, out, err = run_cli(capsys, "--out", str(path), "area", "3", "4", "5")
        assert code == cli.EXIT_OUTPUT == 3 and out == ""
        assert err == f"error: cannot write {path}: No such file or directory\n"

    @pytest.mark.parametrize("argv", [["--out="], ["--out", ""]], ids=["joined", "separate"])
    def test_empty_out_is_an_output_error(self, capsys, argv):
        # an empty path names no file; it is not a missing --out
        code, out, err = run_cli(capsys, *argv, "area", "3", "4", "5")
        assert (code, out) == (cli.EXIT_OUTPUT, "")
        assert err == "error: cannot write : No such file or directory\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_failed_write_is_an_output_error(self, capsys):
        # /dev/full opens, then fails when the report is flushed on close
        code, out, err = run_cli(capsys, "--out", "/dev/full", "area", "3", "4", "5")
        assert (code, out) == (cli.EXIT_OUTPUT, "")
        assert err == "error: cannot write /dev/full: No space left on device\n"


class TestGolden:
    def test_construct_json_golden(self, capsys):
        code, out, _ = run_cli(
            capsys, "--format", "json", "construct", "3", "4", "5", "8", "15", "17"
        )
        with open(os.path.join(DATA, "cli", "construct_3_4_5_8_15_17.json")) as handle:
            assert (code, out) == (0, handle.read())
        # the report is the canonical two-space dump of its own parse
        assert out == json.dumps(json.loads(out), indent=2) + "\n"


class TestProcess:
    """Fresh interpreters, as a one-shot call from the shell runs them."""

    def test_python_m_runs_the_command_line(self):
        env = {**os.environ, "PYTHONPATH": SRC}
        done = subprocess.run(
            [sys.executable, "-m", "cyclicquad", "area", "14", "12", "9", "13"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        with open(os.path.join(DATA, "cli", "area_trapezium.txt")) as handle:
            assert (done.returncode, done.stdout, done.stderr) == (0, handle.read(), "")

    def test_cold_start_skips_dataclasses_inspect_and_typing(self):
        # -I -S: no site, so no .pth file imports typing before the program.
        # The parser needs neither argparse (nor gettext, locale, shutil
        # under it) nor json, and each command imports its own modules.
        forbidden = {
            "dataclasses", "inspect", "typing",
            "argparse", "json", "gettext", "locale", "shutil",
            "cyclicquad.construct", "cyclicquad.manifest", "cyclicquad.oracle", "cyclicquad.svg",
        }
        code = (
            f"import sys; sys.path.insert(0, {SRC!r})\n"
            "import cyclicquad.cli\n"
            "cyclicquad.cli.build_parser()\n"
            f"print(sorted({sorted(forbidden)!r} & sys.modules.keys()))\n"
        )
        done = subprocess.run(
            [sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, timeout=60
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")

    @pytest.mark.parametrize(
        "golden, argv",
        [
            ("reproduce.json", ["--format", "json", "reproduce"]),
            ("area_trapezium.txt", ["area", "14", "12", "9", "13"]),
            ("area_quad77_split.txt", ["area", "75", "68", "51", "40", "--diagonal", "77"]),
            ("construct_3_4_5_8_15_17.txt", ["construct", "3", "4", "5", "8", "15", "17"]),
            ("scan_steps9.txt", ["--steps", "9", "scan", "75", "40", "51", "68"]),
            ("scan_steps9.json", ["--format", "json", "--steps", "9", "scan", "75", "40", "51", "68"]),
            ("scan_steps9.svg", ["--format", "svg", "--steps", "9", "scan", "75", "40", "51", "68"]),
            ("rhombus_1_1.txt", ["rhombus", "1", "1"]),
            ("triples_325_pairs.txt", ["triples", "325", "--pairs"]),
        ],
        ids=lambda value: value if isinstance(value, str) else None,
    )
    def test_each_command_in_a_fresh_process(self, golden, argv):
        # in this process every module is loaded already; a fresh child
        # shows that each command imports the modules it runs
        code = (
            f"import sys; sys.path.insert(0, {SRC!r})\n"
            "from cyclicquad.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        done = subprocess.run(
            [sys.executable, "-I", "-S", "-c", code, *argv],
            capture_output=True, text=True, timeout=60,
        )
        expected = (Path(DATA) / "cli" / golden).read_text()
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout == expected

    def test_package_import_loads_no_module(self):
        # the package re-exports nothing: each name comes from its own module
        code = (
            f"import sys; sys.path.insert(0, {SRC!r})\n"
            "import cyclicquad\n"
            "print(sorted(m for m in sys.modules if m.startswith('cyclicquad.')))\n"
        )
        done = subprocess.run(
            [sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, timeout=60
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


SUBCOMMANDS = ["reproduce", "area", "construct", "scan", "rhombus", "triples"]


class TestHelp:
    def test_help_names_every_subcommand(self, capsys):
        code, out, err = run_cli(capsys, "--help")
        usage = out.split("\n\n")[0]
        assert (code, err) == (0, "")
        assert usage.startswith("usage: cyclicquad ")
        assert "{" + ",".join(SUBCOMMANDS) + "}" in usage

    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_each_subcommand_has_help(self, capsys, command):
        code, out, err = run_cli(capsys, command, "--help")
        assert (code, err) == (0, "")
        assert out.startswith(f"usage: cyclicquad {command} ")


class TestParserReuse:
    # (golden under tests/data/cli/ or None, argv); run in this order
    SEQUENCE = [
        ("area_trapezium.txt", ["area", "14", "12", "9", "13"]),
        ("area_triangle_digits12.json", ["--digits", "12", "--format", "json", "area", "2", "2", "3"]),
        (None, ["area"]),
        ("scan_steps9.txt", ["--steps", "9", "scan", "75", "40", "51", "68"]),
        ("area_trapezium.txt", ["area", "14", "12", "9", "13"]),
    ]

    def test_calls_share_one_parser_without_leaking_state(self, capsys):
        fresh = []
        for _, argv in self.SEQUENCE:
            cli.build_parser.cache_clear()
            fresh.append(run_cli(capsys, *argv))
        cli.build_parser.cache_clear()
        parser = cli.build_parser()
        for (golden, argv), expected in zip(self.SEQUENCE, fresh):
            got = run_cli(capsys, *argv)
            assert got == expected
            if golden:
                assert got == (0, (Path(DATA) / "cli" / golden).read_text(), "")
        assert cli.build_parser() is parser
        assert fresh[2][0] == 2 and "the following arguments are required: sides" in fresh[2][2]

    def test_warm_calls_construct_no_parser(self, capsys, monkeypatch):
        built = []
        original = cli.Parser.__init__

        def counting(self, *args, **kwargs):
            built.append(args)
            original(self, *args, **kwargs)

        monkeypatch.setattr(cli.Parser, "__init__", counting)
        cli.build_parser.cache_clear()
        run_cli(capsys, "area", "3", "4", "5")
        assert built  # the counter sees the cold build
        built.clear()
        for _ in range(20):
            run_cli(capsys, "area", "3", "4", "5")
        assert built == []
