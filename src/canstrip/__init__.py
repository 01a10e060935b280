"""Exact Hilbert polynomials of homogeneous spaces, their sections and covers,
with certified root localization for the canonical-strip family of hypotheses."""

from .ratpoly import (
    ConsistencyError,
    RatPoly,
    SturmCertificate,
    squarefree_parts,
    symmetric_split,
)
from .root_system import (
    MarkedSystem,
    Root,
    RootSystem,
    SimpleType,
    all_simple_types,
    build_root_system,
    canonicalize,
    extremal_roots,
    mark,
    marked,
)
from .hilbert import HilbertData, LevelTable, degree_of, expand, hilbert_gp, validate
from .varieties import (
    AbelianSpec,
    abelian_ci,
    abelian_spec_from_json,
    complete_intersection,
    double_cover,
    pell,
    section_step,
)
from .verify import (
    LineCheck,
    StripReport,
    check_line,
    strip_report,
)

__version__ = "0.1.0"

__all__ = [
    "AbelianSpec",
    "ConsistencyError",
    "HilbertData",
    "LevelTable",
    "LineCheck",
    "MarkedSystem",
    "RatPoly",
    "Root",
    "RootSystem",
    "SimpleType",
    "StripReport",
    "SturmCertificate",
    "abelian_ci",
    "abelian_spec_from_json",
    "all_simple_types",
    "build_root_system",
    "canonicalize",
    "check_line",
    "complete_intersection",
    "degree_of",
    "double_cover",
    "expand",
    "extremal_roots",
    "hilbert_gp",
    "mark",
    "marked",
    "pell",
    "section_step",
    "squarefree_parts",
    "strip_report",
    "symmetric_split",
    "validate",
]
