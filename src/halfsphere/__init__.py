"""Exact symbolic computation for the half-liberated real sphere.

The algebra generated by self-adjoint v_1..v_n with sum v_i^2 = 1 and the
half-commutation relations v_i v_j v_k = v_k v_j v_i is modeled faithfully
inside a crossed product of the complex sphere ring, giving canonical forms,
a decision procedure for the word problem, the correspondence with complex
projective space, the complete 2-dimensional representation theory, and a
classification workflow for quantum subspaces presented by truncated ideals.
"""

from .algebra import CrossedElem, NCPoly, nc_equal, nc_lift, pi
from .errors import (
    DimensionError,
    HalfsphereError,
    MixedAlphabetError,
    ParseError,
    PreconditionError,
)
from .parsing import parse_expr, parse_point
from .projective import (
    PExpr,
    ProjectorReport,
    check_projector_relations,
    phi_inv,
    transport_ideal,
)
from .representations import (
    Mat2,
    PointClass,
    REAL,
    REGULAR,
    SpherePoint,
    TORUS_REAL,
    character,
    classify_point,
    commutant_dimension,
    decompose_nonregular,
    is_irreducible,
    orbit_equivalent,
    phi_rep,
    rational_unit_vector,
    sample_points,
    sample_real_point,
    sample_regular_point,
    sample_torus_real_point,
    theta,
)
from .scalars import DEFAULT_EPSILON, EC_I, EC_ONE, EC_ZERO, ExactComplex
from .sphere_ring import ZPoly, sphere_relation
from .subspaces import (
    IdealSpec,
    PairEF,
    SpanBasis,
    classify_pair,
    even_ideal_span,
    even_to_graded,
    graded_to_even,
    ideal_span,
    is_graded,
    lift_basis,
    membership,
    sampled_f_symmetric,
    vanishing_ideal,
)

__all__ = [
    "CrossedElem",
    "DEFAULT_EPSILON",
    "DimensionError",
    "EC_I",
    "EC_ONE",
    "EC_ZERO",
    "ExactComplex",
    "HalfsphereError",
    "IdealSpec",
    "Mat2",
    "MixedAlphabetError",
    "NCPoly",
    "PExpr",
    "PairEF",
    "ParseError",
    "PointClass",
    "PreconditionError",
    "ProjectorReport",
    "REAL",
    "REGULAR",
    "SpanBasis",
    "SpherePoint",
    "TORUS_REAL",
    "ZPoly",
    "character",
    "check_projector_relations",
    "classify_pair",
    "classify_point",
    "commutant_dimension",
    "decompose_nonregular",
    "even_ideal_span",
    "even_to_graded",
    "graded_to_even",
    "ideal_span",
    "is_graded",
    "is_irreducible",
    "lift_basis",
    "membership",
    "nc_equal",
    "nc_lift",
    "orbit_equivalent",
    "parse_expr",
    "parse_point",
    "phi_inv",
    "phi_rep",
    "pi",
    "rational_unit_vector",
    "sample_points",
    "sample_real_point",
    "sample_regular_point",
    "sample_torus_real_point",
    "sampled_f_symmetric",
    "sphere_relation",
    "theta",
    "transport_ideal",
    "vanishing_ideal",
]
