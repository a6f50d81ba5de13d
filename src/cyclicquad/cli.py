"""Command-line surface.

Subcommands: reproduce, area, construct, scan, rhombus, triples.
Exit codes: 0 success, 1 manifest failure, 2 usage or domain error.
JSON output is deterministic: fixed key order, decimals rendered as
strings, exact values as {coefficient: {num, den}, radicand}.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

from .construct import brahmagupta_quad
from .exactnum import DEFAULT_DIGITS, ApproxScalar, IncompatibleRadicands, Surd
from .manifest import ManifestEntry, run_manifest
from .mensuration import (
    DiagQuad,
    GeometryError,
    Rhombus,
    Triangle,
    area_by_diagonal,
    cyclic_diagonal_pair,
    gross_area,
    heron_area,
    quad,
    rhombus_area,
    rhombus_second_diagonal,
    semiperimeter,
    sutra_area,
)
from .oracle import area_scan, concyclic_exact
from .svg import scan_svg
from .triples import NotPythagorean, generate_triples, hypotenuse_pairs, validate_triple

EXIT_OK = 0
EXIT_MANIFEST_FAILURE = 1
EXIT_USAGE = 2


@dataclass(frozen=True)
class RunConfig:
    precision_digits: int = DEFAULT_DIGITS
    scan_steps: int = 999
    output_format: str = "text"


def _report_digits(config: RunConfig) -> int:
    # text mode trims decimals for readability; JSON keeps full precision
    if config.output_format == "json":
        return config.precision_digits
    return min(config.precision_digits, 12)


def _scalar_json(value, digits: int):
    """JSON form of one value.  An exact value is shown as one c*sqrt(r)
    term; a sum of surds has none and raises IncompatibleRadicands."""
    if isinstance(value, ApproxScalar):
        return value.decimal()
    if isinstance(value, (int, Fraction)):
        value = Surd(value)
    if isinstance(value, Surd):
        return {
            "coefficient": {
                "num": str(value.coefficient.numerator),
                "den": str(value.coefficient.denominator),
            },
            "radicand": str(value.radicand),
            "decimal": value.approx(digits).decimal(),
        }
    return value


def _parse_length(text: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a number: {text!r}") from exc
    if value <= 0:
        raise ValueError(f"lengths must be positive: {text}")
    return value


def _write(text: str, out_path) -> None:
    """Write the command's output to --out, or to stdout without one."""
    if out_path:
        with open(out_path, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _config_json(config: RunConfig) -> dict:
    return {
        "precision_digits": config.precision_digits,
        "scan_steps": config.scan_steps,
        "output_format": config.output_format,
    }


def _entry_json(entry: ManifestEntry, digits: int) -> dict:
    def convert(value):
        if isinstance(value, bool) or value is None:
            return value
        if isinstance(value, (list, tuple)):
            return [convert(v) for v in value]
        if isinstance(value, (int, Fraction, Surd, ApproxScalar)):
            return _scalar_json(value, digits)
        return value

    return {
        "id": entry.id,
        "description": entry.description,
        "provenance": entry.provenance,
        "expected": convert(entry.expected),
        "computed": convert(entry.computed),
        "status": entry.status,
    }


def cmd_reproduce(args, config: RunConfig) -> int:
    if config.precision_digits < 10:
        raise ValueError("reproduce requires at least 10 precision digits")
    entries = run_manifest(config.precision_digits)
    failures = [e for e in entries if e.status != "pass"]
    if config.output_format == "json":
        payload = {
            "command": "reproduce",
            "config": _config_json(config),
            "entries": [_entry_json(e, config.precision_digits) for e in entries],
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = []
        for e in entries:
            lines.append(f"[{e.status.upper():4}] {e.id}: {e.description}")
            lines.append(f"       source: {e.provenance}")
        lines.append(f"{len(entries) - len(failures)}/{len(entries)} entries passed")
        text = "\n".join(lines) + "\n"
    _write(text, args.out)
    return EXIT_OK if not failures else EXIT_MANIFEST_FAILURE


def cmd_area(args, config: RunConfig) -> int:
    sides = [_parse_length(s) for s in args.sides]
    digits = _report_digits(config)
    if len(sides) == 3:
        if args.diagonal is not None:
            raise ValueError("a diagonal applies only to four-sided input")
        area = heron_area(Triangle(*sides))
        report = {
            "figure": "triangle",
            "sides": [_scalar_json(s, digits) for s in sides],
            "semiperimeter": _scalar_json(semiperimeter(sides), digits),
            "area": _scalar_json(area, digits),
        }
    elif len(sides) == 4:
        q = quad(*sides)
        report = {
            "figure": "quadrilateral",
            "sides": [_scalar_json(s, digits) for s in sides],
            "semiperimeter": _scalar_json(semiperimeter(sides), digits),
            "gross_area": _scalar_json(gross_area(q), digits),
            "sutra_area": _scalar_json(sutra_area(q), digits),
        }
        if args.diagonal is not None:
            dq = DiagQuad(q, _parse_length(args.diagonal))
            full = area_by_diagonal(dq)
            report["diagonal"] = _scalar_json(dq.diagonal, digits)
            report["split_area"] = _scalar_json(full.split_area, digits)
            report["perpendiculars"] = [
                _scalar_json(p, digits) for p in full.perpendiculars
            ]
            pair = cyclic_diagonal_pair(q)
            report["cyclic_diagonals"] = [
                _scalar_json(pair.p, digits),
                _scalar_json(pair.q, digits),
            ]
            report["cyclic"] = concyclic_exact(dq)
    else:
        raise ValueError("area takes three sides (triangle) or four (quadrilateral)")
    return _render_report("area", report, args, config)


def cmd_construct(args, config: RunConfig) -> int:
    t1 = validate_triple(args.triple1[0], args.triple1[1], args.triple1[2])
    t2 = validate_triple(args.triple2[0], args.triple2[1], args.triple2[2])
    built = brahmagupta_quad(t1, t2)
    digits = _report_digits(config)
    pair = cyclic_diagonal_pair(built.sides)
    split = area_by_diagonal(built.as_diag_quad())
    report = {
        "source": [[t1.l, t1.m, t1.n], [t2.l, t2.m, t2.n]],
        "sides": [_scalar_json(s, digits) for s in built.sides.sides],
        "glue_diagonal": _scalar_json(built.glue_diagonal, digits),
        "circumdiameter": _scalar_json(built.circumdiameter, digits),
        "cyclic_diagonals": [
            _scalar_json(pair.p, digits),
            _scalar_json(pair.q, digits),
        ],
        "area": _scalar_json(split.split_area, digits),
        "sutra_area": _scalar_json(sutra_area(built.sides), digits),
    }
    return _render_report("construct", report, args, config)


def cmd_scan(args, config: RunConfig) -> int:
    sides = [_parse_length(s) for s in args.sides]
    if len(sides) != 4:
        raise ValueError("scan takes exactly four sides")
    q = quad(*sides)
    digits = _report_digits(config)
    result = area_scan(q, config.scan_steps, digits)
    if config.output_format == "svg":
        _write(scan_svg(q, result, digits), args.out)
        return EXIT_OK
    report = {
        "sides": [_scalar_json(s, digits) for s in sides],
        "steps": config.scan_steps,
        "argmax_diagonal": result.argmax_diagonal.decimal(),
        "max_area": result.max_area.decimal(),
        "first_sample": [
            result.samples[0][0].decimal(),
            result.samples[0][1].decimal(),
        ],
        "last_sample": [
            result.samples[-1][0].decimal(),
            result.samples[-1][1].decimal(),
        ],
    }
    if config.output_format == "json":
        report["samples"] = [
            [d.decimal(), a.decimal()] for d, a in result.samples
        ]
    return _render_report("scan", report, args, config)


def cmd_rhombus(args, config: RunConfig) -> int:
    digits = _report_digits(config)
    if args.triple:
        t = validate_triple(*args.triple)
        from .construct import rhombus_from_triple

        r = rhombus_from_triple(t)
    else:
        if len(args.dims) != 2:
            raise ValueError("rhombus takes SIDE D1 or --triple L M N")
        r = Rhombus(side=_parse_length(args.dims[0]), d1=_parse_length(args.dims[1]))
    square = Rhombus(side=r.side, d1=r.side * Surd(1, 2))
    report = {
        "side": _scalar_json(r.side, digits),
        "d1": _scalar_json(r.d1, digits),
        "d2": _scalar_json(rhombus_second_diagonal(r), digits),
        "area": _scalar_json(rhombus_area(r), digits),
        "square_same_side_area": _scalar_json(rhombus_area(square), digits),
    }
    return _render_report("rhombus", report, args, config)


def cmd_triples(args, config: RunConfig) -> int:
    found = generate_triples(args.max_hypotenuse)
    report: dict = {
        "max_hypotenuse": args.max_hypotenuse,
        "triples": [[t.l, t.m, t.n] for t in found],
    }
    if args.pairs:
        report["hypotenuse_pairs"] = [
            [[p.l, p.m, p.n], [s.l, s.m, s.n]]
            for p, s in hypotenuse_pairs(args.max_hypotenuse)
        ]
    return _render_report("triples", report, args, config)


def _render_report(command: str, report: dict, args, config: RunConfig) -> int:
    if config.output_format == "json":
        payload = {
            "command": command,
            "config": _config_json(config),
            "report": report,
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = [f"{command}:"]
        lines.extend(_text_lines(report, indent=2))
        text = "\n".join(lines) + "\n"
    _write(text, args.out)
    return EXIT_OK


def _text_lines(value, indent: int) -> list[str]:
    pad = " " * indent
    lines = []
    if isinstance(value, dict):
        for key, item in value.items():
            if isinstance(item, dict) and "coefficient" not in item:
                lines.append(f"{pad}{key}:")
                lines.extend(_text_lines(item, indent + 2))
            else:
                lines.append(f"{pad}{key}: {_flat_text(item)}")
    return lines


def _flat_text(value) -> str:
    if isinstance(value, dict):
        num = value.get("coefficient", {}).get("num")
        den = value.get("coefficient", {}).get("den")
        rad = value.get("radicand")
        if num is not None:
            coeff = num if den == "1" else f"{num}/{den}"
            base = coeff if rad == "1" else f"{coeff}*sqrt({rad})"
            return f"{base} ({value.get('decimal')})"
        return json.dumps(value)
    if isinstance(value, list):
        return "[" + ", ".join(_flat_text(v) for v in value) + "]"
    return str(value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclicquad",
        description="Exact mensuration of quadrilaterals: gross and root "
        "area rules, perpendicular splits, cyclic diagonals, rhombus "
        "families, integer cyclic quadrilateral construction, and a "
        "coordinate-embedding oracle.",
    )
    parser.add_argument("--digits", type=int, default=DEFAULT_DIGITS, metavar="N",
                        help="significant decimal digits for approximations")
    parser.add_argument("--steps", type=int, default=999, metavar="N",
                        help="grid points for the diagonal scan")
    parser.add_argument("--format", choices=("text", "json", "svg"), default="text")
    parser.add_argument("--out", metavar="PATH", default=None)

    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("reproduce", help="run the worked-example manifest")

    p_area = sub.add_parser("area", help="areas of a triangle or quadrilateral")
    p_area.add_argument("sides", nargs="+")
    p_area.add_argument("--diagonal", default=None)

    p_con = sub.add_parser("construct", help="glue two Pythagorean triples")
    p_con.add_argument("triple1", nargs=3, type=int, metavar=("L1", "M1", "N1"))
    p_con.add_argument("triple2", nargs=3, type=int, metavar=("L2", "M2", "N2"))

    p_scan = sub.add_parser("scan", help="area versus diagonal for fixed sides")
    p_scan.add_argument("sides", nargs=4)

    p_rho = sub.add_parser("rhombus", help="rhombus second diagonal and area")
    p_rho.add_argument("dims", nargs="*")
    p_rho.add_argument("--triple", nargs=3, type=int, metavar=("L", "M", "N"))

    p_tri = sub.add_parser("triples", help="enumerate Pythagorean triples")
    p_tri.add_argument("max_hypotenuse", type=int)
    p_tri.add_argument("--pairs", action="store_true",
                       help="also list pairs sharing a hypotenuse")

    return parser


_COMMANDS = {
    "reproduce": cmd_reproduce,
    "area": cmd_area,
    "construct": cmd_construct,
    "scan": cmd_scan,
    "rhombus": cmd_rhombus,
    "triples": cmd_triples,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config = RunConfig(
        precision_digits=args.digits,
        scan_steps=args.steps,
        output_format=args.format,
    )
    try:
        if config.precision_digits < 1:
            raise ValueError("--digits must be at least 1")
        if config.scan_steps < 3:
            raise ValueError("--steps must be at least 3")
        return _COMMANDS[args.command](args, config)
    except (GeometryError, NotPythagorean, IncompatibleRadicands, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
