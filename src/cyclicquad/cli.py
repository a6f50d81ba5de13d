"""Command-line surface.

Subcommands: reproduce, area, construct, scan, rhombus, triples.
Exit codes:
- 0 success, and `-h`/`--help`;
- 1 manifest failure: `reproduce` found an entry that does not pass;
- 2 usage or domain error: a command line the grammar rejects, or
  `UsageError`, `GeometryError`, `NotPythagorean`, `IncompatibleRadicands`;
- 3 output error: `--out` is empty, or names a file that cannot be opened,
  written or closed.
`main()` returns the code and raises no `SystemExit`.  Any other exception
is a bug and propagates.

`build_parser()` builds the parser once per process from the fixed grammar
in `_GRAMMAR`.  It is argparse's parsing algorithm over that table: the
same values, the same rejections and, for the usage errors the tests check,
the same messages, with argparse's help texts written out in `_HELP`.  Each
command imports the modules only it needs, so a one-shot call loads
neither argparse nor json, nor the manifest, construction, oracle or SVG
modules it does not run.

Commands build their reports from the program's own values, and two
renderers print every report.  Both read an exact value c*sqrt(r) through
`_exact_strs` alone, as the strings of c's numerator and denominator, of r
and of its decimal: `render_decimal` of the value itself when it is
rational, of its `Surd.approx` otherwise:
- text shows an exact value as `c*sqrt(r) (decimal)`, or `c (decimal)` when
  it is rational, always with its coefficient (`1*sqrt(3)`), and a list as
  `[a, b]`;
- JSON is deterministic: fixed key order, an exact value as
  {coefficient: {num, den}, radicand, decimal} with every field a string.
  `_json` writes it directly, byte-identical to `json.dumps(indent=2)` with
  a hook that gives that dict, and `_quote` quotes strings as `json.dumps`
  does.  It fills cached `%` templates: one per exact value and indent,
  and one per row of a block of int or str rows, such as triples and
  scan samples; a block of `PythTriple`s fills it with no check of each
  side, since a `PythTriple` holds only ints.  The hypotenuse pairs are
  held as their groups: `_pairs` formats each paired triple once and
  fills one pair template from those strings.
`scan` prints approximations only: `--steps` builds the scan's
`ScanGrid`, and the sample count, diagonals and areas are read from it,
each column in one `render_ratios` pass over integer numerators.  JSON
takes every sample from `area_scan`; text prints three, found by
`ScanGrid.peak`, whose cost does not grow with `--steps`; SVG draws the
grid with `scan_svg`.
A sum of surds has no single c*sqrt(r) form, so a command whose report holds
one exits 2 and names the value.  `--format svg` applies only to scan.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import cache
from itertools import chain, combinations
from types import SimpleNamespace

from .exactnum import (
    DEFAULT_DIGITS,
    IncompatibleRadicands,
    Surd,
    render_decimal,
    render_ratios,
)
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
from .triples import (
    NotPythagorean,
    PythTriple,
    generate_triples,
    hypotenuse_groups,
    validate_triple,
)

EXIT_OK = 0
EXIT_MANIFEST_FAILURE = 1
EXIT_USAGE = 2
EXIT_OUTPUT = 3


class UsageError(ValueError):
    """The command line asks for something the program does not do."""


class OutputError(Exception):
    """The report cannot be written to the file `--out` names."""


def _report_digits(args) -> int:
    # text mode trims decimals for readability; JSON keeps full precision
    return args.digits if args.format == "json" else min(args.digits, 12)


def _exact_strs(value, digits: int) -> tuple[str, str, str, str]:
    """(num, den, radicand, decimal) of an exact value c*sqrt(r): the only
    reading of an exact value that the text and JSON writers print from.  A
    sum of surds has no such form and raises IncompatibleRadicands."""
    if isinstance(value, Surd):
        c, r = value.coefficient, value.radicand
        decimal = render_decimal(value.approx(digits), digits)
    elif isinstance(value, Fraction):
        c, r = value, 1
        decimal = render_decimal(value, digits)
    else:
        raise TypeError(f"{type(value).__name__} is not JSON serializable")
    return str(c.numerator), str(c.denominator), str(r), decimal


@cache
def _exact_template(pad: str) -> str:
    """`%` template, to fill with `_exact_strs`, of an exact value at `pad`."""
    layout = {"coefficient": {"num": "%s", "den": "%s"}, "radicand": "%s", "decimal": "%s"}
    return _json(layout, pad, 0)


# json.dumps's two-character escapes; any other character outside ' '..'~'
# is written as \uXXXX
_SHORT_ESCAPES = {
    '"': '\\"', "\\": "\\\\", "\b": "\\b", "\f": "\\f", "\n": "\\n", "\r": "\\r", "\t": "\\t",
}


def _escape(char: str) -> str:
    """`char` as `json.dumps` escapes it in ASCII output."""
    code = ord(char)
    if code > 0xFFFF:
        # past the BMP: the UTF-16 surrogate pair
        code -= 0x10000
        return "\\u%04x\\u%04x" % (0xD800 | code >> 10, 0xDC00 | code & 0x3FF)
    return _SHORT_ESCAPES.get(char) or "\\u%04x" % code


def _quote(text: str) -> str:
    """`text` as a JSON string, as `json.dumps` writes it with its default
    `ensure_ascii`."""
    if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        return f'"{text}"'
    return '"' + "".join(c if " " <= c <= "~" and c not in '"\\' else _escape(c) for c in text) + '"'


def _enclose(items: list[str], pad: str | None, brackets: str = "[]") -> str:
    """`items` between `brackets`: in JSON each on its own line, indented
    two spaces past `pad`; in text, for `pad` None, as `[a, b]`."""
    if not items:
        return brackets
    if pad is None:
        return brackets[0] + ", ".join(items) + brackets[1]
    inner = pad + "  "
    return brackets[0] + inner + ("," + inner).join(items) + pad + brackets[1]


@cache
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
    such as triple rows and scan samples; else None.  Text, for
    `pad` None, prints a str as itself; JSON's template quotes strs that
    hold only ASCII digits, '.' and '-', such as decimals."""
    shape, leaves = [], value
    kinds = set(map(type, leaves))
    if kinds == {PythTriple}:
        # a PythTriple's sides are ints: no walk over its leaves
        shape, leaves, kinds = [3], chain.from_iterable(value), {int}
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
            leaves = map(_quote, leaves)
    # only the row template is cached: one keyed by the outer length would
    # keep output-sized strings alive
    row = _list_template(tuple(shape), pad and pad + "  ", leaf)
    return _enclose([row] * len(value), pad) % tuple(leaves)


class _HypotenusePairs:
    """The pairs of triples sharing a hypotenuse, held as their
    `hypotenuse_groups`: a report prints it as the list `hypotenuse_pairs`
    gives, without building the pair tuples."""

    __slots__ = ("groups",)

    def __init__(self, groups: list[list[PythTriple]]):
        self.groups = groups


def _pairs(groups: list[list[PythTriple]], pad: str | None) -> str:
    """`combinations(group, 2)` of each of `groups`, as `_block` writes that
    list of pairs: each triple is formatted once, at the pair indent, and
    one pair template is filled from the combinations of the row strings."""
    inner = pad and pad + "  "
    row = _list_template((3,), inner and inner + "  ", "%s")
    cells: list[str] = []
    for group in groups:
        cells += chain.from_iterable(combinations([row % t for t in group], 2))
    pair = _list_template((2,), inner, "%s")
    return _enclose([pair] * (len(cells) // 2), pad) % tuple(cells)


def _json(value, pad: str, digits: int) -> str:
    """`value` as `json.dumps(value, indent=2, default=hook)` writes it, for
    a hook that gives an exact value as {coefficient: {num, den}, radicand,
    decimal} from `_exact_strs`.  `pad` is a newline and the indent of the
    line the value starts on: a bare newline at the top level."""
    cls = type(value)
    if cls is str:
        return _quote(value)
    if cls is int:
        return repr(value)
    if cls is _HypotenusePairs:
        return _pairs(value.groups, pad)
    if isinstance(value, (list, tuple)):
        # a list of only ints or only strs, or of rows of them, fills one
        # template, with no Python call per item
        return _block(value, pad) or _enclose([_json(v, pad + "  ", digits) for v in value], pad)
    if cls is dict:
        inner = pad + "  "
        items = [f"{_quote(k)}: {_json(v, inner, digits)}" for k, v in value.items()]
        return _enclose(items, pad, "{}")
    if cls is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    # an exact value fills one template, where walking its dict would take
    # eight calls
    return _exact_template(pad) % _exact_strs(value, digits)


def _text(value, digits: int) -> str:
    """Text form of one report value."""
    # int and str first: they are the common scalars, and isinstance
    # against Fraction goes through the numbers ABCs
    if isinstance(value, (int, str)):
        return str(value)
    if type(value) is _HypotenusePairs:
        return _pairs(value.groups, None)
    if isinstance(value, (list, tuple)):
        # the triples fill one template, as in JSON
        return _block(value, None) or _enclose([_text(v, digits) for v in value], None)
    if isinstance(value, (Fraction, Surd)):
        num, den, r, decimal = _exact_strs(value, digits)
        c = num if den == "1" else f"{num}/{den}"
        return f"{c} ({decimal})" if r == "1" else f"{c}*sqrt({r}) ({decimal})"
    raise TypeError(f"{type(value).__name__} has no text form")


def _parse_length(text: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"not a number: {text!r}") from exc
    if value <= 0:
        raise UsageError(f"lengths must be positive: {text}")
    return value


def _write(text: str, out_path: str | None) -> None:
    """Write the command's output to --out, or to stdout without one.  Any
    failure to open, write or close the file, for an empty path too, raises
    OutputError."""
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w") as handle:
            handle.write(text)
    except OSError as exc:
        raise OutputError(f"cannot write {out_path}: {exc.strerror}") from exc


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
    from .manifest import run_manifest

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
            from .oracle import concyclic_exact

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
    from .construct import brahmagupta_quad

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
    from .oracle import area_scan, scan_grid

    sides = [_parse_length(s) for s in args.sides]
    q = quad(*sides)
    digits = _report_digits(args)
    if args.format == "json":
        grid, roots, argmax = area_scan(q, args.steps, digits)
        shown = range(grid.steps)
    else:
        grid = scan_grid(q, args.steps, digits)
        if args.format == "svg":
            from .svg import scan_svg

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
        from .construct import rhombus_from_triple

        r = rhombus_from_triple(validate_triple(*args.triple))
    elif len(args.dims) == 2 and not args.triple:
        r = Rhombus(side=_parse_length(args.dims[0]), d1=_parse_length(args.dims[1]))
    else:
        raise UsageError("rhombus takes SIDE D1 or --triple L M N")
    report = {
        "side": r.side,
        "d1": r.d1,
        "d2": rhombus_second_diagonal(r),
        "area": rhombus_area(r),
        "square_same_side_area": r.side * r.side,
    }
    return _write_report(args, "rhombus", report)


def cmd_triples(args) -> int:
    if args.max_hypotenuse < 5:
        raise UsageError("max_hypotenuse must be >= 5")
    found = generate_triples(args.max_hypotenuse)
    report: dict = {"max_hypotenuse": args.max_hypotenuse, "triples": found}
    if args.pairs:
        report["hypotenuse_pairs"] = _HypotenusePairs(hypotenuse_groups(found))
    return _write_report(args, "triples", report)


_COMMANDS = {
    "reproduce": cmd_reproduce,
    "area": cmd_area,
    "construct": cmd_construct,
    "scan": cmd_scan,
    "rhombus": cmd_rhombus,
    "triples": cmd_triples,
}

# -- the command-line grammar ------------------------------------------------
#
# For the global level (key None) and each command: its options and its
# positionals.  An option is (option string, dest, nargs, convert, default)
# and a positional (dest, name in messages, nargs, convert).  nargs is 0
# for a flag, None for one value, an int for a list of that many, "+" or
# "*" for a list of one or more or of any number, and `_COMMAND` for the
# command word and every string after it (argparse's PARSER).  convert is
# int, str, or the tuple of allowed choices.
_COMMAND = "A..."
_GRAMMAR = {
    None: (
        [
            ("--digits", "digits", None, int, DEFAULT_DIGITS),
            ("--steps", "steps", None, int, 999),
            ("--format", "format", None, ("text", "json", "svg"), "text"),
            ("--out", "out", None, str, None),
        ],
        [("command", "command", _COMMAND, tuple(_COMMANDS))],
    ),
    "reproduce": ([], []),
    "area": ([("--diagonal", "diagonal", None, str, None)], [("sides", "sides", "+", str)]),
    "construct": ([], [(n, n.upper(), None, int) for n in ("l1", "m1", "n1", "l2", "m2", "n2")]),
    "scan": ([], [("sides", "sides", 4, str)]),
    "rhombus": ([("--triple", "triple", 3, int, None)], [("dims", "dims", "*", str)]),
    "triples": (
        [("--pairs", "pairs", 0, None, False)],
        [("max_hypotenuse", "max_hypotenuse", None, int)],
    ),
}
_HELP_OPTION = ("-h/--help", None, 0, None, None)

# argparse's help, as Python 3.11 formats it for an 80-column terminal; a
# usage error prints the first paragraph
_HELP = {
    None: """\
usage: cyclicquad [-h] [--digits N] [--steps N] [--format {text,json,svg}]
                  [--out PATH]
                  {reproduce,area,construct,scan,rhombus,triples} ...

Exact mensuration of quadrilaterals: gross and root area rules, perpendicular
splits, cyclic diagonals, rhombus families, integer cyclic quadrilateral
construction, and a coordinate-embedding oracle.

positional arguments:
  {reproduce,area,construct,scan,rhombus,triples}
    reproduce           run the worked-example manifest
    area                areas of a triangle or quadrilateral
    construct           glue two Pythagorean triples
    scan                area versus diagonal for fixed sides
    rhombus             rhombus second diagonal and area
    triples             enumerate Pythagorean triples

options:
  -h, --help            show this help message and exit
  --digits N            significant decimal digits for approximations
  --steps N             grid points for the diagonal scan
  --format {text,json,svg}
  --out PATH
""",
    "reproduce": """\
usage: cyclicquad reproduce [-h]

options:
  -h, --help  show this help message and exit
""",
    "area": """\
usage: cyclicquad area [-h] [--diagonal DIAGONAL] sides [sides ...]

positional arguments:
  sides

options:
  -h, --help           show this help message and exit
  --diagonal DIAGONAL
""",
    "construct": """\
usage: cyclicquad construct [-h] L1 M1 N1 L2 M2 N2

positional arguments:
  L1
  M1
  N1
  L2
  M2
  N2

options:
  -h, --help  show this help message and exit
""",
    "scan": """\
usage: cyclicquad scan [-h] sides sides sides sides

positional arguments:
  sides

options:
  -h, --help  show this help message and exit
""",
    "rhombus": """\
usage: cyclicquad rhombus [-h] [--triple L M N] [dims ...]

positional arguments:
  dims

options:
  -h, --help      show this help message and exit
  --triple L M N
""",
    "triples": """\
usage: cyclicquad triples [-h] [--pairs] max_hypotenuse

positional arguments:
  max_hypotenuse

options:
  -h, --help      show this help message and exit
  --pairs         also list pairs sharing a hypotenuse
""",
}


def _negative_number(arg: str) -> bool:
    """Whether argparse reads `arg` as a negative number, and so as an
    argument: its `^-\\d+$|^-\\d*\\.\\d+$`, such as -5, -2.5 or -.5."""
    # `$` matches before a final newline too
    digits = arg[1:-1] if arg.endswith("\n") else arg[1:]
    whole, dot, fraction = digits.partition(".")
    return bool(whole.isdecimal() or dot and not whole) and (not dot or fraction.isdecimal())


def _run(nargs, pattern: str, start: int) -> int | None:
    """The number of strings from `start` that a positional takes, or None
    if it takes none, as argparse's regular expressions match it over the
    classes of the strings in `pattern`: 'A' an argument, 'O' an option,
    '-' the '--' that ends options, after which every string is an 'A'.
    Each run takes the dashes that follow it."""
    if nargs == _COMMAND:
        # the command word, then every string left
        return len(pattern) - start if pattern[start:].lstrip("-")[:1] == "A" else None
    end = pattern.find("O", start)
    chunk = pattern[start:] if end < 0 else pattern[start:end]
    if nargs in ("+", "*"):
        return len(chunk) if nargs == "*" or "A" in chunk else None
    count = 1 if nargs is None else nargs
    if chunk.count("A") < count:
        return None
    taken = 0
    for _ in range(count):
        taken = chunk.index("A", taken) + 1
    return len(chunk) - len(chunk[taken:].lstrip("-"))


class ParserExit(Exception):
    """The command line ends the call: `text` is help for stdout (code 0) or
    a usage error for stderr (code 2)."""

    def __init__(self, code: int, text: str):
        super().__init__(text)
        self.code = code
        self.text = text


class Parser:
    """The parser of one level of the command line: the global options and
    the command word, or one command's own options and positionals.

    It runs argparse's algorithm (`ArgumentParser._parse_known_args`) over
    its row of `_GRAMMAR`: it classifies every string as an option or an
    argument, then takes options and runs of positionals in turn.  Parsing
    leaves the parser unchanged."""

    def __init__(self, command: str | None, commands: dict | None = None):
        options, self.positionals = _GRAMMAR[command]
        self.prog = "cyclicquad" if command is None else f"cyclicquad {command}"
        self.help = _HELP[command]
        self.usage = self.help[: self.help.index("\n\n") + 1]
        self.commands = commands
        self.defaults = {dest: default for _, dest, _, _, default in options}
        self.options = {"-h": _HELP_OPTION, "--help": _HELP_OPTION}
        self.options.update((option[0], option) for option in options)

    def error(self, message: str):
        raise ParserExit(EXIT_USAGE, f"{self.usage}{self.prog}: error: {message}\n")

    def parse_args(self, argv) -> SimpleNamespace:
        values: dict = {}
        extras = self._parse(list(argv), values)
        if extras:
            self.error("unrecognized arguments: " + " ".join(extras))
        return SimpleNamespace(**values)

    def _classify(self, arg: str):
        """argparse's `_parse_optional`: (option, option string, explicit
        argument) for an option of this level, (None, arg, None) for an
        unknown option, None for an argument."""
        if not arg.startswith("-"):
            return None
        options = self.options
        if arg in options:
            return options[arg], arg, None
        if len(arg) == 1:
            return None
        name, eq, explicit = arg.partition("=")
        if eq and name in options:
            return options[name], name, explicit
        if arg[1] == "-":
            # a prefix of long options, such as --dig; --dig=5 too
            matches = [(options[o], o, explicit if eq else None) for o in options if o.startswith(name)]
        else:
            # -h with more short flags, or a value, joined to it
            matches = [(options[o], o, arg[2:]) for o in options if o == arg[:2]]
        if len(matches) > 1:
            names = ", ".join(option for _, option, _ in matches)
            self.error(f"ambiguous option: {arg} could match {names}")
        if matches:
            return matches[0]
        if _negative_number(arg) or " " in arg:
            return None
        return None, arg, None

    def _value(self, name: str, nargs, convert, args: list):
        """argparse's `_get_values`: the value of `args` for an option or
        positional called `name` in messages."""
        values = []
        for arg in args:
            if isinstance(convert, tuple):
                if arg not in convert:
                    choices = ", ".join(map(repr, convert))
                    self.error(f"argument {name}: invalid choice: {arg!r} (choose from {choices})")
                values.append(arg)
            else:
                try:
                    values.append(convert(arg))
                except ValueError:
                    self.error(f"argument {name}: invalid {convert.__name__} value: {arg!r}")
        # one value for nargs None, but a list if a '--' was all it took
        return values[0] if nargs is None and len(values) == 1 else values

    def _parse(self, argv: list, values: dict) -> list:
        """argparse's `parse_known_args` on this level: put the values of
        `argv` in `values`, and return the strings no option or positional
        took."""
        values.update(self.defaults)
        found = {}
        kinds = []
        for i, arg in enumerate(argv):
            if arg == "--":
                # every later string is an argument
                kinds.append("-" + "A" * (len(argv) - i - 1))
                break
            option = self._classify(arg)
            if option:
                found[i] = option
            kinds.append("O" if option else "A")
        pattern = "".join(kinds)
        extras: list = []
        taken = 0  # positionals taken so far

        def take_positionals(start: int) -> int:
            # argparse's `consume_positionals`: as many positionals as can
            # each take their run, in order
            nonlocal taken
            runs, at = [], start
            for _, _, nargs, _ in self.positionals[taken:]:
                run = _run(nargs, pattern, at)
                if run is None:
                    break
                runs.append(run)
                at += run
            for (dest, name, nargs, convert), run in zip(self.positionals[taken:], runs):
                args = argv[start : start + run]
                start += run
                if nargs == _COMMAND:
                    self._value(name, None, convert, args[:1])
                    values[dest] = args[0]
                    extras.extend(self.commands[args[0]]._parse(args[1:], values))
                    continue
                if "--" in args:
                    args.remove("--")
                values[dest] = self._value(name, nargs, convert, args)
            taken += len(runs)
            return start

        def take_option(start: int) -> int:
            (name, dest, nargs, convert, _), option, explicit = found[start]
            count = 1 if nargs is None else nargs
            stop = start + 1
            if explicit is None:
                if not pattern.startswith("A" * count, stop):
                    expected = "one argument" if nargs is None else f"{count} arguments"
                    self.error(f"argument {name}: expected {expected}")
                args = argv[stop : stop + count]
                stop += count
            elif count == 1:
                args = [explicit]
            elif count:
                self.error(f"argument {name}: expected {count} arguments")
            elif option == "-h" and explicit and not explicit.lstrip("h"):
                # argparse reads letters joined to -h as more short flags,
                # and -h is the only one
                args = []
            else:
                ignored = explicit.lstrip("h") if option == "-h" else explicit
                self.error(f"argument {name}: ignored explicit argument {ignored!r}")
            if dest is None:
                raise ParserExit(EXIT_OK, self.help)
            values[dest] = True if nargs == 0 else self._value(name, nargs, convert, args)
            return stop

        start = 0
        last = max(found, default=-1)
        while start <= last:
            following = min(i for i in found if i >= start)
            if start != following:
                end = take_positionals(start)
                if end > start:
                    start = end
                    continue
                extras.extend(argv[start:following])
                start = following
            if found[start][0] is None:
                extras.append(argv[start])
                start += 1
            else:
                start = take_option(start)
        extras.extend(argv[take_positionals(start) :])
        missing = [name for _, name, _, _ in self.positionals[taken:]]
        if missing:
            self.error("the following arguments are required: " + ", ".join(missing))
        return extras


@cache
def build_parser() -> Parser:
    """The command-line parser, built on the first call and shared by every
    later `main()` in the process; parsing leaves it unchanged."""
    return Parser(None, {command: Parser(command) for command in _COMMANDS})


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(sys.argv[1:] if argv is None else argv)
    except ParserExit as stop:
        (sys.stderr if stop.code else sys.stdout).write(stop.text)
        return stop.code
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
    except OutputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OUTPUT


if __name__ == "__main__":
    sys.exit(main())
