"""Exact-arithmetic deformation theory of differential graded modules.

Cochain complexes, cohomology, obstruction ladders, inductive deformation
extension, and gauge trivialization over Q or GF(p), with a text format and a
command-line interface.  All arithmetic is exact; every reported identity is
an equality, not an approximation.
"""

from .cochain import (
    Cochain,
    CohomologyResult,
    Complex,
    Infeasible,
    InfeasibilityWitness,
    Solved,
    cochain_basis,
    coboundary,
    cohomology,
    is_cocycle,
    noncobounding_certificate,
    solve_coboundary,
)
from .deform import (
    DeformationReport,
    MapSeries,
    NextLift,
    ObstructionHit,
    TrivializationReport,
    check_relations,
    deform_to_order,
    extend_step,
    first_order_triviality,
    gauge_transform,
    obstruction,
    series_inverse,
    series_mul,
    trivialize,
)
from .dsl import Document, load_complex, parse, render
from .errors import DgmError
from .family import (
    FamilySpec,
    VerificationReport,
    base_complex,
    family_lifts,
    minimal_truncation,
    verify_infinite,
    verify_obstructed,
    verify_polynomial,
)
from .field import GF, QQ, FieldSpec, Scalar
from .gmap import GradedMap
from .graded import MIXED, GradedModule, Vector

__version__ = "0.1.0"

__all__ = [
    "Cochain",
    "CohomologyResult",
    "Complex",
    "DeformationReport",
    "DgmError",
    "Document",
    "FamilySpec",
    "FieldSpec",
    "GF",
    "GradedMap",
    "GradedModule",
    "Infeasible",
    "InfeasibilityWitness",
    "MIXED",
    "MapSeries",
    "NextLift",
    "ObstructionHit",
    "QQ",
    "Scalar",
    "Solved",
    "TrivializationReport",
    "Vector",
    "VerificationReport",
    "base_complex",
    "check_relations",
    "coboundary",
    "cochain_basis",
    "cohomology",
    "deform_to_order",
    "extend_step",
    "family_lifts",
    "first_order_triviality",
    "gauge_transform",
    "is_cocycle",
    "load_complex",
    "minimal_truncation",
    "noncobounding_certificate",
    "obstruction",
    "parse",
    "render",
    "series_inverse",
    "series_mul",
    "solve_coboundary",
    "trivialize",
    "verify_infinite",
    "verify_obstructed",
    "verify_polynomial",
]
