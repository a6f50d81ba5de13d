"""Exact mensuration of quadrilaterals: the gross and square-root area
rules, Heron's rule, perpendicular splits, cyclic diagonal formulas,
rhombus families, integer cyclic quadrilateral construction, and an
independent coordinate-embedding oracle."""

from .exactnum import (
    IncompatibleRadicands,
    NegativeRadicand,
    Surd,
    approx,
    render_decimal,
    to_exact,
)
from .triples import (
    NotPythagorean,
    PythTriple,
    generate_triples,
    hypotenuse_pairs,
    validate_triple,
)
from .mensuration import (
    DegenerateRhombus,
    DiagonalPair,
    DiagQuad,
    GeometryError,
    InvalidQuad,
    InvalidTriangle,
    InvalidTrapezium,
    MensurationReport,
    QuadSides,
    Rhombus,
    Trapezium,
    Triangle,
    abadha_split,
    area_by_diagonal,
    cyclic_diagonal_pair,
    gross_area,
    heron_area,
    ptolemy_check,
    quad,
    rhombus_area,
    rhombus_second_diagonal,
    semiperimeter,
    split_triangle_areas,
    sutra_area,
    trapezium_area,
    triangle_circumradius,
)
from .construct import (
    CyclicQuadConstruction,
    PtolemyViolation,
    brahmagupta_quad,
    reflect_swap,
    rhombus_from_triple,
)
from .oracle import (
    DegenerateCollinear,
    ScanResult,
    area_scan,
    concyclic,
    concyclic_exact,
    diagonal_range,
    embed,
    embed_triangle,
    shoelace_area,
)
from .manifest import ManifestEntry, run_manifest

__version__ = "0.1.0"
