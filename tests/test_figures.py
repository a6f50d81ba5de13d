"""Figures and results are tuples: `collections.namedtuple` subclasses.  The
checked ones coerce and check their fields when they are made, through the
constructor, `_make` and `_replace` alike; every one equals, hashes, copies
and pickles as the tuple of its fields."""

import copy
import pickle
from fractions import Fraction
from unittest.mock import patch

import pytest

from cyclicquad.construct import brahmagupta_quad
from cyclicquad.exactnum import Surd
from cyclicquad.manifest import run_manifest
from cyclicquad.mensuration import (
    DegenerateRhombus,
    DiagQuad,
    InvalidQuad,
    InvalidTrapezium,
    InvalidTriangle,
    QuadSides,
    Rhombus,
    Trapezium,
    Triangle,
    area_by_diagonal,
    cyclic_diagonal_pair,
    quad,
)
from cyclicquad.oracle import ScanResult, area_scan, embed, scan_grid
from cyclicquad.triples import PythTriple

_DQ = DiagQuad(quad(75, 68, 51, 40), 77)

FIGURES = {
    "Triangle": Triangle(3, 4, 5),
    "QuadSides": quad(14, 12, 9, 13),
    "DiagQuad": _DQ,
    "Trapezium": Trapezium(base=14, face=9, legs=(13, 12), height=12),
    "Rhombus": Rhombus(side=25, d1=Surd(25, 2)),
    "MensurationReport": area_by_diagonal(_DQ),
    "DiagonalPair": cyclic_diagonal_pair(quad(75, 68, 51, 40)),
    "PythTriple": PythTriple(3, 4, 5),
    "ScanGrid": scan_grid(quad(75, 40, 51, 68), 9, 12),
    "ScanResult": area_scan(quad(75, 40, 51, 68), 9, 12),
    "CyclicQuadConstruction": brahmagupta_quad(PythTriple(3, 4, 5), PythTriple(8, 15, 17)),
    "ManifestEntry": run_manifest()[0],
}

CHECKED = [Triangle, QuadSides, DiagQuad, Trapezium, Rhombus]


def pickled(protocol):
    return lambda v: pickle.loads(pickle.dumps(v, protocol))


CLONES = [copy.copy, copy.deepcopy] + [pickled(p) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
CLONE_IDS = ["copy", "deepcopy"] + [f"pickle{p}" for p in range(pickle.HIGHEST_PROTOCOL + 1)]


@pytest.mark.parametrize("name", FIGURES)
@pytest.mark.parametrize("clone", CLONES, ids=CLONE_IDS)
def test_copies_and_pickles(name, clone):
    value = FIGURES[name]
    got = clone(value)
    assert got == value and type(got) is type(value)
    assert hash(got) == hash(value) and repr(got) == repr(value)


@pytest.mark.parametrize("name", FIGURES)
def test_equals_the_tuple_of_its_fields(name):
    value = FIGURES[name]
    fields = tuple(getattr(value, f) for f in value._fields)
    assert value == fields and hash(value) == hash(fields)


@pytest.mark.parametrize("name", FIGURES)
def test_fields_cannot_be_set(name):
    value = FIGURES[name]
    with pytest.raises(AttributeError):
        setattr(value, value._fields[0], None)


@pytest.mark.parametrize("name", FIGURES)
def test_has_no_instance_dict(name):
    value = FIGURES[name]
    assert not hasattr(value, "__dict__")
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("name, attr", [("DiagQuad", "triangles"), ("ScanResult", "samples")])
def test_derived_values_cannot_be_set_or_deleted(name, attr):
    value = FIGURES[name]
    getattr(value, attr)
    with pytest.raises(AttributeError):
        setattr(value, attr, ())
    with pytest.raises(AttributeError):
        delattr(value, attr)


@pytest.mark.parametrize("clone", CLONES, ids=CLONE_IDS)
def test_scan_clones_leave_the_samples_unbuilt(clone):
    # a copy or a pickle carries the integers only and never reads `samples`
    result = area_scan(quad(75, 40, 51, 68), 9, 12)

    def unread(self):
        raise AssertionError("cloning read ScanResult.samples")

    with patch.object(ScanResult, "samples", property(unread)):
        got = clone(result)
    assert got.samples == result.samples


def test_quad_is_its_four_sides():
    q = quad(1, 2, 3, 4)
    a, b, c, d = q
    assert (a, b, c, d) == (1, 2, 3, 4) and quad is QuadSides
    assert len(q) == 4 and q == (1, 2, 3, 4) and hash(q) == hash((1, 2, 3, 4))


def test_quad_takes_exactly_four_sides():
    assert QuadSides._make([1, 2, 3, 4]) == (1, 2, 3, 4)
    with pytest.raises(TypeError):
        QuadSides(1, 2, 3)
    with pytest.raises(TypeError):
        QuadSides._make([1, 1, 1])
    with pytest.raises(TypeError):
        quad(1, 2, 3, 4, 5)


@pytest.mark.parametrize(
    "figure, field, bad, error",
    [
        (Triangle(3, 4, 5), "c", 7, InvalidTriangle),
        (quad(14, 12, 9, 13), "d", 100, InvalidQuad),
        (Rhombus(5, 6), "d1", 10, DegenerateRhombus),
        (Trapezium(14, 9, (13, 12), 12), "height", 13, InvalidTrapezium),
        (Trapezium(14, 9, (13, 12), 12), "face", 15, InvalidTrapezium),
    ],
    ids=["triangle", "quad-closure", "rhombus", "trapezium-height",
         "trapezium-face"],
)
def test_replace_and_make_check_the_result(figure, field, bad, error):
    assert figure._replace() == figure and type(figure._replace()) is type(figure)
    with pytest.raises(error):
        figure._replace(**{field: bad})
    values = [bad if f == field else v for f, v in zip(figure._fields, figure)]
    with pytest.raises(error):
        type(figure)._make(values)


def test_make_coerces_like_the_constructor():
    t = Triangle._make([3, 4, 5])
    assert t == Triangle(3, 4, 5) and all(type(s) is Fraction for s in t)
    r = Rhombus(5, 6)._replace(d1=8)
    assert r == Rhombus(5, 8) and type(r.d1) is Fraction


@pytest.mark.parametrize("cls", CHECKED, ids=lambda c: c.__name__)
def test_post_init_runs_once_per_construction_through_the_class(cls, monkeypatch):
    # bench/tracer.py times the checks by patching `__post_init__` on the class
    value = FIGURES[cls.__name__]
    seen = []
    original = cls.__post_init__

    def counting(self):
        seen.append(self)
        original(self)

    monkeypatch.setattr(cls, "__post_init__", counting)
    assert cls(*value) == value
    assert value._replace() == value
    assert seen == [value, value]


def test_diag_quad_takes_a_quad_sides():
    # a plain tuple would skip the coercion of the sides
    with pytest.raises(TypeError):
        DiagQuad((75, 68, 51, 40), 77)


def test_diag_quad_checks_its_triangles_once(monkeypatch):
    # the two triangles are checked when the DiagQuad is made and kept
    # nowhere; reading them back, as the split area and the embedding do,
    # rebuilds them without checking them again
    calls = []
    original = Triangle.__post_init__

    def counting(self):
        calls.append(tuple(self))
        original(self)

    monkeypatch.setattr(Triangle, "__post_init__", counting)
    dq = DiagQuad(quad(75, 68, 51, 40), 77)
    assert calls == [(75, 68, 77), (51, 40, 77)] and not hasattr(dq, "__dict__")
    for _ in range(2):
        assert dq.triangles == ((75, 68, 77), (51, 40, 77))
        assert all(type(t) is Triangle for t in dq.triangles)
    area_by_diagonal(dq)
    embed(dq)
    assert len(calls) == 2
