"""Command-line surface.

Subcommands: reproduce, area, construct, scan, rhombus, triples.
Exit codes: 0 success, 1 manifest failure, 2 usage or domain error
(`UsageError`, `GeometryError`, `NotPythagorean`, `IncompatibleRadicands`).
Any other exception is a bug and propagates.

Commands build their reports from the program's own values, and two
renderers print every report:
- text shows an exact value as `c*sqrt(r) (decimal)`, or `c (decimal)` when
  it is rational, always with its coefficient (`1*sqrt(3)`), and a list as
  `[a, b]`;
- JSON is deterministic: fixed key order, an exact value as
  {coefficient: {num, den}, radicand, decimal} with every field a string.
  `_json` writes it directly, byte-identical to `json.dumps(indent=2)` with
  `_json_value` as the hook for exact values.  It fills cached `%`
  templates: one per exact value, built from the layout `_json_value`
  defines, and one per block of int or str rows, such as triples.
The decimal of an exact value is `render_decimal(approx(value, digits),
digits)`.  `scan` prints approximations only: `--steps` builds the scan's
`ScanGrid`, and the sample count, diagonals and areas are read from it,
each column in one `render_ratios` pass over integer numerators.  JSON
takes every sample from `area_scan`; text prints three, found by
`ScanGrid.peak`, whose cost does not grow with `--steps`; SVG draws the
grid with `scan_svg`.
A sum of surds has no single c*sqrt(r) form, so a command whose report holds
one exits 2 and names the value.  `--format svg` applies only to scan.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from functools import cache, lru_cache
from itertools import chain
from json.encoder import encode_basestring_ascii

from .construct import brahmagupta_quad, rhombus_from_triple
from .exactnum import (
    DEFAULT_DIGITS,
    IncompatibleRadicands,
    Surd,
    approx,
    render_decimal,
    render_ratios,
)
from .manifest import run_manifest
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
from .oracle import area_scan, concyclic_exact, scan_grid
from .svg import scan_svg
from .triples import NotPythagorean, generate_triples, hypotenuse_pairs, validate_triple

EXIT_OK = 0
EXIT_MANIFEST_FAILURE = 1
EXIT_USAGE = 2


class UsageError(ValueError):
    """The command line asks for something the program does not do."""


def _report_digits(args) -> int:
    # text mode trims decimals for readability; JSON keeps full precision
    return args.digits if args.format == "json" else min(args.digits, 12)


def _term(value) -> tuple[Fraction, int]:
    """(c, r) of an exact value c*sqrt(r).  A sum of surds has no such
    form and raises IncompatibleRadicands."""
    if isinstance(value, Surd):
        return value.coefficient, value.radicand
    return value, 1


def _decimal(value, digits: int) -> str:
    return render_decimal(approx(value, digits), digits)


def _exact_strs(value, digits: int) -> tuple[str, str, str, str]:
    """(num, den, radicand, decimal) of an exact value c*sqrt(r)."""
    if isinstance(value, (Fraction, Surd)):
        c, r = _term(value)
        return str(c.numerator), str(c.denominator), str(r), _decimal(value, digits)
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _exact_layout(num, den, radicand, decimal) -> dict:
    """The JSON layout of an exact value, from its four strings."""
    return {"coefficient": {"num": num, "den": den}, "radicand": radicand, "decimal": decimal}


def _json_value(value, digits: int) -> dict:
    """The JSON form of a value `_json` has no rule for: one c*sqrt(r) term
    with its decimal for an exact value."""
    return _exact_layout(*_exact_strs(value, digits))


@lru_cache(maxsize=64)
def _exact_template(pad: str) -> str:
    """`%` template, to fill with `_exact_strs`, of an exact value at `pad`."""
    return _json(_exact_layout(*["%s"] * 4), pad, 0)


def _enclose(items: list[str], pad: str | None, brackets: str = "[]") -> str:
    """`items` between `brackets`: in JSON each on its own line, indented
    two spaces past `pad`; in text, for `pad` None, as `[a, b]`."""
    if not items:
        return brackets
    if pad is None:
        return brackets[0] + ", ".join(items) + brackets[1]
    inner = pad + "  "
    return brackets[0] + inner + ("," + inner).join(items) + pad + brackets[1]


@lru_cache(maxsize=256)
def _list_template(shape: tuple[int, ...], pad: str | None, leaf: str) -> str:
    """`%` template of a list of `shape[0]` items written by `_enclose`, each
    a list of shape `shape[1:]` nested the same way; `leaf`, the template
    of one scalar, for the empty shape.  No dimension is 0."""
    if not shape:
        return leaf
    # JSON pads start with a newline; text's None stays None
    item = _list_template(shape[1:], pad and pad + "  ", leaf)
    return _enclose([item] * shape[0], pad)


def _block(value, pad: str | None) -> str | None:
    """`value`, a list or tuple, as one filled template when it nests lists
    or tuples to one shape around scalars that are all ints or all strs,
    such as triple and pair rows and scan samples; else None.  Text, for
    `pad` None, prints a str as itself; JSON's template quotes strs that
    hold only ASCII digits, '.' and '-', such as decimals."""
    shape, leaves = [], value
    kinds = set(map(type, leaves))
    while all(issubclass(k, (list, tuple)) for k in kinds):
        lengths = set(map(len, leaves))
        if len(lengths) != 1:
            return None
        shape.append(lengths.pop())
        leaves = list(chain.from_iterable(leaves))
        kinds = set(map(type, leaves))
    if kinds != {int} and kinds != {str}:
        return None
    leaf = "%s"
    if kinds == {str} and pad is not None:
        # one check over the joined column, not one call per leaf; bytes
        # translate, unlike str.isdigit, makes no Unicode lookup per char,
        # and isascii keeps a lone surrogate away from encode
        joined = "".join(leaves)
        if joined.isascii() and not joined.encode().translate(None, b"0123456789.-"):
            leaf = '"%s"'
        else:
            leaves = map(encode_basestring_ascii, leaves)
    # only the row template is cached: one keyed by the outer length would
    # keep output-sized strings alive
    row = _list_template(tuple(shape), pad and pad + "  ", leaf)
    return _enclose([row] * len(value), pad) % tuple(leaves)


def _json(value, pad: str, digits: int) -> str:
    """`value` as `json.dumps(value, indent=2, default=hook)` writes it, with
    `_json_value` as the hook.  `pad` is a newline and the indent of the line
    the value starts on: a bare newline at the top level."""
    cls = type(value)
    if cls is str:
        return encode_basestring_ascii(value)
    if cls is int:
        return repr(value)
    if isinstance(value, (list, tuple)):
        # a list of only ints or only strs, or of rows of them, fills one
        # template, with no Python call per item
        return _block(value, pad) or _enclose([_json(v, pad + "  ", digits) for v in value], pad)
    if cls is dict:
        inner = pad + "  "
        items = [
            f"{encode_basestring_ascii(k)}: {_json(v, inner, digits)}" for k, v in value.items()
        ]
        return _enclose(items, pad, "{}")
    if cls is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    # an exact value fills one template, where `_json_value`'s dict would
    # take eight calls
    return _exact_template(pad) % _exact_strs(value, digits)


def _text(value, digits: int) -> str:
    """Text form of one report value."""
    # int and str first: they are the common scalars, and isinstance
    # against Fraction goes through the numbers ABCs
    if isinstance(value, (int, str)):
        return str(value)
    if isinstance(value, (list, tuple)):
        # the triples and their pairs fill one template, as in JSON
        return _block(value, None) or _enclose([_text(v, digits) for v in value], None)
    if isinstance(value, (Fraction, Surd)):
        c, r = _term(value)
        exact = str(c) if r == 1 else f"{c}*sqrt({r})"
        return f"{exact} ({_decimal(value, digits)})"
    raise TypeError(f"{type(value).__name__} has no text form")


def _parse_length(text: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"not a number: {text!r}") from exc
    if value <= 0:
        raise UsageError(f"lengths must be positive: {text}")
    return value


def _write(text: str, out_path) -> None:
    """Write the command's output to --out, or to stdout without one."""
    if out_path:
        try:
            handle = open(out_path, "w")
        except OSError as exc:
            raise UsageError(f"cannot write {out_path}: {exc.strerror}") from exc
        with handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _write_json(args, command: str, **body) -> None:
    payload = {
        "command": command,
        "config": {
            "precision_digits": args.digits,
            "scan_steps": args.steps,
            "output_format": args.format,
        },
        **body,
    }
    _write(_json(payload, "\n", args.digits) + "\n", args.out)


def _write_report(args, command: str, report: dict) -> int:
    if args.format == "json":
        _write_json(args, command, report=report)
    else:
        digits = _report_digits(args)
        lines = [f"{command}:"]
        lines.extend(f"  {key}: {_text(value, digits)}" for key, value in report.items())
        _write("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_reproduce(args) -> int:
    entries = run_manifest()
    failures = [e for e in entries if e.status != "pass"]
    if args.format == "json":
        _write_json(args, "reproduce", entries=[e._asdict() for e in entries])
    else:
        lines = []
        for e in entries:
            lines.append(f"[{e.status.upper():4}] {e.id}: {e.description}")
            lines.append(f"       source: {e.provenance}")
        lines.append(f"{len(entries) - len(failures)}/{len(entries)} entries passed")
        _write("\n".join(lines) + "\n", args.out)
    return EXIT_OK if not failures else EXIT_MANIFEST_FAILURE


def cmd_area(args) -> int:
    sides = [_parse_length(s) for s in args.sides]
    if len(sides) == 3:
        if args.diagonal is not None:
            raise UsageError("a diagonal applies only to four-sided input")
        report = {
            "figure": "triangle",
            "sides": sides,
            "semiperimeter": semiperimeter(sides),
            "area": heron_area(Triangle(*sides)),
        }
    elif len(sides) == 4:
        q = quad(*sides)
        report = {
            "figure": "quadrilateral",
            "sides": sides,
            "semiperimeter": semiperimeter(sides),
            "gross_area": gross_area(q),
            "sutra_area": sutra_area(q),
        }
        if args.diagonal is not None:
            dq = DiagQuad(q, _parse_length(args.diagonal))
            split = area_by_diagonal(dq)
            pair = cyclic_diagonal_pair(q)
            report["diagonal"] = dq.diagonal
            report["split_area"] = split.split_area
            report["perpendiculars"] = split.perpendiculars
            report["cyclic_diagonals"] = [pair.p, pair.q]
            report["cyclic"] = concyclic_exact(dq)
    else:
        raise UsageError("area takes three sides (triangle) or four (quadrilateral)")
    return _write_report(args, "area", report)


def cmd_construct(args) -> int:
    t1 = validate_triple(args.l1, args.m1, args.n1)
    t2 = validate_triple(args.l2, args.m2, args.n2)
    built = brahmagupta_quad(t1, t2)
    report = {
        "source": [[t1.l, t1.m, t1.n], [t2.l, t2.m, t2.n]],
        "sides": list(built.sides),
        "glue_diagonal": built.glue_diagonal,
        "circumdiameter": built.glue_diagonal,
        "cyclic_diagonals": [built.diagonals.p, built.diagonals.q],
        "area": area_by_diagonal(built.as_diag_quad()).split_area,
        "sutra_area": sutra_area(built.sides),
    }
    return _write_report(args, "construct", report)


def cmd_scan(args) -> int:
    sides = [_parse_length(s) for s in args.sides]
    q = quad(*sides)
    digits = _report_digits(args)
    if args.format == "json":
        grid, roots, argmax = area_scan(q, args.steps, digits)
        shown = range(grid.steps)
    else:
        grid = scan_grid(q, args.steps, digits)
        if args.format == "svg":
            _write(scan_svg(q, grid), args.out)
            return EXIT_OK
        # text prints only the first, the peak and the last sample
        known: dict = {}
        argmax = grid.peak(known)
        shown = (0, argmax, grid.steps - 1)
        roots = grid.known_roots(known, shown)

    diagonals = render_ratios(grid.diagonals(shown), grid.den, digits)
    areas = render_ratios(roots, grid.area_den, digits)
    samples = [[x, a] for x, a in zip(diagonals, areas)]
    argmax_diagonal, max_area = samples[shown.index(argmax)]
    report = {
        "sides": sides,
        "steps": grid.steps,
        "argmax_diagonal": argmax_diagonal,
        "max_area": max_area,
        "first_sample": samples[0],
        "last_sample": samples[-1],
    }
    if args.format == "json":
        report["samples"] = samples
    return _write_report(args, "scan", report)


def cmd_rhombus(args) -> int:
    if args.triple and not args.dims:
        r = rhombus_from_triple(validate_triple(*args.triple))
    elif len(args.dims) == 2 and not args.triple:
        r = Rhombus(side=_parse_length(args.dims[0]), d1=_parse_length(args.dims[1]))
    else:
        raise UsageError("rhombus takes SIDE D1 or --triple L M N")
    square = Rhombus(side=r.side, d1=r.side * Surd(1, 2))
    report = {
        "side": r.side,
        "d1": r.d1,
        "d2": rhombus_second_diagonal(r),
        "area": rhombus_area(r),
        "square_same_side_area": rhombus_area(square),
    }
    return _write_report(args, "rhombus", report)


def cmd_triples(args) -> int:
    if args.max_hypotenuse < 5:
        raise UsageError("max_hypotenuse must be >= 5")
    found = generate_triples(args.max_hypotenuse)
    report: dict = {"max_hypotenuse": args.max_hypotenuse, "triples": found}
    if args.pairs:
        report["hypotenuse_pairs"] = hypotenuse_pairs(found)
    return _write_report(args, "triples", report)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later `main()` in the process; parsing leaves it unchanged."""
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
    # one positional per number: argparse cannot print a positional whose
    # metavar is a tuple, in help or in a missing-argument error
    for name in ("l1", "m1", "n1", "l2", "m2", "n2"):
        p_con.add_argument(name, type=int, metavar=name.upper())

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
    args = build_parser().parse_args(argv)
    try:
        if args.digits < 1:
            raise UsageError("--digits must be at least 1")
        if args.steps < 3:
            raise UsageError("--steps must be at least 3")
        if args.format == "svg" and args.command != "scan":
            raise UsageError("--format svg applies only to scan")
        return _COMMANDS[args.command](args)
    except (GeometryError, NotPythagorean, IncompatibleRadicands, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
