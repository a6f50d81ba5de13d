"""Output checks that do not depend on byte format.

Every reference is computed here in exact Fraction arithmetic; nothing from
the program under test is imported.  An exact value c*sqrt(r) is compared
through its square c^2*r, and a printed decimal must lie within one unit in
its last place of the reference root.  `check` returns None when the output
is right and a one-line reason otherwise.
"""

from __future__ import annotations

import json
import re
import xml.etree.ElementTree as ET
from fractions import Fraction
from math import comb, isqrt

from workloads import (Op, cyclic_diagonal_square, diagonal_interval, glued_sides, heron_square,
                       root_rule_square)

_EXACT_TEXT = re.compile(
    r"^(?P<num>-?\d+)(?:/(?P<den>\d+))?(?:\*sqrt\((?P<rad>\d+)\))? \((?P<dec>-?\d+(?:\.\d+)?)\)$"
)
_TRIPLE_TEXT = re.compile(r"\[(\d+), (\d+), (\d+)\]")


class Exact:
    """A printed exact value c*sqrt(r) with its printed decimal."""

    def __init__(self, coefficient: Fraction, radicand: int, decimal: str):
        self.c = coefficient
        self.r = radicand
        self.decimal = decimal

    @property
    def square(self) -> Fraction:
        return self.c * self.c * self.r


def _from_json(value: dict) -> Exact:
    coeff = value["coefficient"]
    return Exact(Fraction(int(coeff["num"]), int(coeff["den"])), int(value["radicand"]), value["decimal"])


def _from_text(value: str) -> Exact:
    m = _EXACT_TEXT.match(value.strip())
    if not m:
        raise ValueError(f"not an exact value: {value!r}")
    c = Fraction(int(m["num"]), int(m["den"] or 1))
    return Exact(c, int(m["rad"] or 1), m["dec"])


def _text_report(text: str) -> dict:
    """Top-level `key: value` lines of a text report."""
    report = {}
    for line in text.splitlines()[1:]:
        if line.startswith("  ") and not line.startswith("   "):
            key, _, value = line.strip().partition(": ")
            report[key] = value
    return report


def _text_list(value: str) -> list[str]:
    inner = value.strip()[1:-1]
    return inner.split(", ") if inner else []


class Report:
    """Uniform access to a text or json report."""

    def __init__(self, op: Op, text: str):
        self.json = op.fmt == "json"
        self.data = json.loads(text)["report"] if self.json else _text_report(text)

    def exact(self, key: str) -> Exact:
        value = self.data[key]
        return _from_json(value) if self.json else _from_text(value)

    def exact_list(self, key: str) -> list[Exact]:
        value = self.data[key]
        if self.json:
            return [_from_json(v) for v in value]
        return [_from_text(v) for v in _text_list(value)]

    def flag(self, key: str) -> bool:
        value = self.data[key]
        return value if self.json else value == "True"


def _ulp(decimal: str) -> Fraction:
    """One unit in the last printed place of a decimal string."""
    return Fraction(1, 10 ** len(decimal.partition(".")[2]))


def _near_root(value: Fraction, root_square: Fraction, tolerance: Fraction) -> bool:
    """|value - sqrt(root_square)| <= tolerance, exactly."""
    low, high = value - tolerance, value + tolerance
    return (low <= 0 or low * low <= root_square) and root_square <= high * high


def _below_root(value: Fraction, root_square: Fraction, slack: Fraction) -> bool:
    """value - slack <= sqrt(root_square), exactly."""
    low = value - slack
    return low <= 0 or low * low <= root_square


def _decimal_ok(decimal: str, ref_square: Fraction) -> bool:
    """|decimal - sqrt(ref_square)| <= one unit in the last printed place."""
    return _near_root(Fraction(decimal), ref_square, _ulp(decimal))


def _value_ok(value: Exact, ref_square: Fraction) -> bool:
    return value.c >= 0 and value.square == ref_square and _decimal_ok(value.decimal, ref_square)


def _sum_matches(total: Exact, t1_sq: Fraction, t2_sq: Fraction) -> bool:
    """total == sqrt(t1_sq) + sqrt(t2_sq), exactly: with u = total^2 - t1^2 -
    t2^2 the identity is u >= 0 and u^2 == 4 t1^2 t2^2."""
    u = total.square - t1_sq - t2_sq
    return total.c >= 0 and u >= 0 and u * u == 4 * t1_sq * t2_sq


def _check_area(op: Op, report: Report) -> str | None:
    sides = op.data["sides"]
    if len(sides) == 3:
        if not _value_ok(report.exact("area"), heron_square(*sides)):
            return "triangle area differs from Heron's rule"
        return None
    a, b, c, d = sides
    gross = report.exact("gross_area")
    if gross.r != 1 or gross.c != (a + c) * (b + d) / 4:
        return "gross area differs from (a+c)(b+d)/4"
    if not _value_ok(report.exact("sutra_area"), root_rule_square(a, b, c, d)):
        return "root-rule area differs from the reference"
    if "diagonal" not in op.data:
        return None
    x = op.data["diagonal"]
    t1_sq, t2_sq = heron_square(a, b, x), heron_square(c, d, x)
    if not _sum_matches(report.exact("split_area"), t1_sq, t2_sq):
        return "split area differs from the sum of the two Heron areas"
    perps = report.exact_list("perpendiculars")
    if [p.square for p in perps] != [4 * t1_sq / (x * x), 4 * t2_sq / (x * x)]:
        return "perpendiculars differ from 2*area/diagonal"
    p_sq = cyclic_diagonal_square(a, b, c, d)
    if report.exact_list("cyclic_diagonals")[0].square != p_sq:
        return "cyclic diagonal differs from the reference"
    if report.flag("cyclic") != (x * x == p_sq):
        return "cyclic flag disagrees with x^2 == p^2"
    return None


def _check_construct(op: Op, report: Report) -> str | None:
    t1, t2 = op.data["t1"], op.data["t2"]
    sides = report.exact_list("sides")
    if any(s.r != 1 or s.c.denominator != 1 for s in sides):
        return "constructed sides are not integers"
    a, b, c, d = (s.c for s in sides)
    if sorted((a, b, c, d)) != sorted(glued_sides(t1, t2)):
        return "constructed sides differ from the glued triangles"
    p, q = report.exact_list("cyclic_diagonals")
    if p.square * q.square != (a * c + b * d) ** 2:
        return "Ptolemy's relation fails"
    (l1, m1, n1), (l2, m2, n2) = t1, t2
    area = Fraction(l1 * m1 * n2 * n2 + l2 * m2 * n1 * n1, 2)
    if root_rule_square(a, b, c, d) != area * area:
        return "reference areas disagree"
    for key in ("area", "sutra_area"):
        if not _value_ok(report.exact(key), area * area):
            return f"{key} differs from the glued area"
    return None


def _check_rhombus(op: Op, report: Report) -> str | None:
    l, m, n = op.data["t"]
    expected = {"side": n * n, "d1": 4 * l * l, "d2": 4 * m * m,
                "area": 4 * l * l * m * m, "square_same_side_area": n**4}
    for key, square in expected.items():
        if not _value_ok(report.exact(key), Fraction(square)):
            return f"rhombus {key} differs from the reference"
    return None


class TripleCounts:
    """Brute-force triple and shared-hypotenuse pair counts for every bound
    up to max_hyp, computed once during set-up."""

    def __init__(self, triples: list[tuple[int, int, int]], max_hyp: int):
        per_n = [0] * (max_hyp + 1)
        for _, _, n in triples:
            per_n[n] += 1
        self.triples = [0] * (max_hyp + 1)
        self.pairs = [0] * (max_hyp + 1)
        for n in range(1, max_hyp + 1):
            self.triples[n] = self.triples[n - 1] + per_n[n]
            self.pairs[n] = self.pairs[n - 1] + comb(per_n[n], 2)


def _check_triples(op: Op, report: Report, counts: TripleCounts) -> str | None:
    n = op.data["n"]
    if report.json:
        found = report.data["triples"]
        pairs = len(report.data["hypotenuse_pairs"])
    else:
        found = _TRIPLE_TEXT.findall(report.data["triples"])
        listed = report.data["hypotenuse_pairs"]
        pairs = listed.count("]], [[") + 1 if listed != "[]" else 0
    if len(found) != counts.triples[n]:
        return f"{len(found)} triples listed, brute force finds {counts.triples[n]}"
    if pairs != counts.pairs[n]:
        return f"{pairs} hypotenuse pairs listed, brute force finds {counts.pairs[n]}"
    for l, m, h in found:
        l, m, h = int(l), int(m), int(h)
        if l * l + m * m != h * h or h > n:
            return f"({l}, {m}, {h}) is not a triple within the bound"
    return None


def _check_reproduce(op: Op, text: str) -> str | None:
    if op.fmt == "json":
        statuses = [e["status"] for e in json.loads(text)["entries"]]
    else:
        statuses = [line[1:5].strip().lower() for line in text.splitlines() if line.startswith("[")]
    if not statuses or any(s != "pass" for s in statuses):
        return "a manifest entry did not pass"
    return None


def _check_scan(op: Op, text: str) -> str | None:
    sides, steps = op.data["sides"], op.data["steps"]
    lo, hi = diagonal_interval(*sides)
    step = (hi - lo) / (steps + 1)
    p_sq, k_sq = cyclic_diagonal_square(*sides), root_rule_square(*sides)
    if op.fmt == "svg":
        labels = [el.text or "" for el in ET.fromstring(text).iter("{http://www.w3.org/2000/svg}text")]
        area_text = next(t for t in labels if t.startswith("max area ")).split()[-1]
        diag_text = next(t for t in labels if t.startswith("at diagonal ")).split()[-1]
    else:
        report = json.loads(text)["report"] if op.fmt == "json" else _text_report(text)
        if op.fmt == "json":
            samples = report["samples"]
            if len(samples) != steps:
                return f"{len(samples)} samples for {steps} steps"
            if max(Fraction(a) for _, a in samples) != Fraction(report["max_area"]):
                return "max_area is not the largest sample"
        if int(report["steps"]) != steps:
            return "steps differs from the request"
        area_text, diag_text = report["max_area"], report["argmax_diagonal"]
    if not _near_root(Fraction(diag_text), p_sq, step + _ulp(diag_text)):
        return "argmax is more than one grid step from the cyclic diagonal"
    if not _below_root(Fraction(area_text), k_sq, _ulp(area_text)):
        return "max area exceeds Brahmagupta's K"
    return None


def _is_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


def refusal_ok(op: Op) -> bool:
    """Whether exit code 2 on `op` is a refusal the program may make:
    `area --diagonal` may refuse when the two Heron areas are
    incommensurable, that is when T1^2 * T2^2 is not a rational square."""
    if op.kind != "area_diag":
        return False
    a, b, c, d = op.data["sides"]
    x = op.data["diagonal"]
    product = heron_square(a, b, x) * heron_square(c, d, x)
    return not (_is_square(product.numerator) and _is_square(product.denominator))


def check(op: Op, text: str, counts: TripleCounts | None) -> str | None:
    """None if `text`, the output of `op`, is right; else the reason."""
    try:
        if op.kind == "scan":
            return _check_scan(op, text)
        if op.kind == "reproduce":
            return _check_reproduce(op, text)
        report = Report(op, text)
        if op.kind.startswith("area"):
            return _check_area(op, report)
        if op.kind == "construct":
            return _check_construct(op, report)
        if op.kind == "rhombus":
            return _check_rhombus(op, report)
        if op.kind == "triples":
            return _check_triples(op, report, counts)
    except (ValueError, KeyError, IndexError, StopIteration, ET.ParseError) as exc:
        return f"unparseable output: {type(exc).__name__}: {exc}"
    raise ValueError(f"no check for operation kind {op.kind!r}")
