"""Figures and results are tuples: `collections.namedtuple` subclasses.  The
checked ones coerce and check their fields when they are made, through the
constructor, `_make` and `_replace` alike; every one equals, hashes, copies
and pickles as the tuple of its fields."""

import copy
import pickle
from fractions import Fraction

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
from cyclicquad.oracle import area_scan, embed
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
    "Embedding": embed(_DQ, 12),
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


@pytest.mark.parametrize("name, attr", [("DiagQuad", "triangles"), ("ScanResult", "samples")])
def test_instance_dict_cannot_be_set_or_deleted(name, attr):
    value = FIGURES[name]
    getattr(value, attr)
    with pytest.raises(AttributeError):
        setattr(value, attr, ())
    with pytest.raises(AttributeError):
        delattr(value, attr)
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("clone", CLONES, ids=CLONE_IDS)
def test_scan_clones_leave_the_samples_unbuilt(clone):
    result = area_scan(quad(75, 40, 51, 68), 9, 12)
    assert len(result.samples) == 9
    got = clone(result)
    assert "samples" not in vars(got)
    assert got.samples == result.samples


@pytest.mark.parametrize(
    "figure, field, bad, error",
    [
        (Triangle(3, 4, 5), "c", 7, InvalidTriangle),
        (quad(14, 12, 9, 13), "sides", (1, 1, 1, 5), InvalidQuad),
        (quad(14, 12, 9, 13), "sides", (1, 1, 1), InvalidQuad),
        (Rhombus(5, 6), "d1", 10, DegenerateRhombus),
        (Trapezium(14, 9, (13, 12), 12), "height", 13, InvalidTrapezium),
        (Trapezium(14, 9, (13, 12), 12), "face", 15, InvalidTrapezium),
    ],
    ids=["triangle", "quad-closure", "quad-three-sides", "rhombus", "trapezium-height",
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
