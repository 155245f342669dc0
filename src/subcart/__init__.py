"""Exact tangent-space and regular/singular analysis of finitely
presented differential subspaces of R^n.

Everything except the bump function evaluates in exact rational
arithmetic; all values are immutable and all operations pure.
"""

from .errors import (
    DimensionMismatchError,
    FrameEvaluationError,
    NonMemberError,
    NoSampleSourceError,
    ParseError,
    SamplerInvariantError,
    SpaceFormatError,
    SubcartError,
)
from .frames import (
    BumpFunction,
    FrameSection,
    bump,
    common_pivot_exists,
    frame_at,
    frame_smoothness_check,
    glued_section,
    verify_local_triviality,
)
from .poly import Polynomial, constant, parse, parse_rational, variable, zero
from .space import (
    IdealWitness,
    RingElement,
    Sampler,
    SpacePresentation,
    is_member,
    load_space,
    representatives_agree,
    sample,
    space_from_dict,
    validate_sampler,
)
from .stratify import (
    PointRecord,
    StratificationReport,
    Verdict,
    classify,
    default_adjacency_radius,
    stratify,
    structural_dim,
    verify_dense,
    verify_open,
    verify_usc,
)
from .tangent import (
    BundlePoint,
    TangentBasis,
    TangentVector,
    apply_derivation,
    bundle_member,
    eval_bundle_function,
    is_tangent,
    jacobian,
    tangent_space,
)

__version__ = "0.1.0"

__all__ = [
    "BumpFunction",
    "BundlePoint",
    "DimensionMismatchError",
    "FrameEvaluationError",
    "FrameSection",
    "IdealWitness",
    "NoSampleSourceError",
    "NonMemberError",
    "ParseError",
    "PointRecord",
    "Polynomial",
    "RingElement",
    "Sampler",
    "SamplerInvariantError",
    "SpaceFormatError",
    "SpacePresentation",
    "StratificationReport",
    "SubcartError",
    "TangentBasis",
    "TangentVector",
    "Verdict",
    "apply_derivation",
    "bump",
    "bundle_member",
    "classify",
    "common_pivot_exists",
    "constant",
    "default_adjacency_radius",
    "eval_bundle_function",
    "frame_at",
    "frame_smoothness_check",
    "glued_section",
    "is_member",
    "is_tangent",
    "jacobian",
    "load_space",
    "parse",
    "parse_rational",
    "representatives_agree",
    "sample",
    "space_from_dict",
    "stratify",
    "structural_dim",
    "tangent_space",
    "validate_sampler",
    "variable",
    "verify_dense",
    "verify_local_triviality",
    "verify_open",
    "verify_usc",
    "zero",
]
