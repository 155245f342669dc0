"""Exact tangent-space and regular/singular analysis of finitely
presented differential subspaces of R^n.

Everything evaluates in exact rational arithmetic; all values are
immutable and all operations pure.
"""

from .errors import (
    DimensionMismatchError,
    FrameEvaluationError,
    NonMemberError,
    NoSampleSourceError,
    ParseError,
    SpaceFormatError,
    SubcartError,
)
from .frames import (
    FrameSection,
    common_pivot_exists,
    frame_at,
    verify,
    verify_local_triviality,
)
from .poly import Polynomial, constant, parse, parse_rational, variable, zero
from .space import (
    Sampler,
    SpacePresentation,
    is_member,
    load_space,
    sample,
    space_from_dict,
)
from .stratify import (
    NeighbourIndex,
    PointRecord,
    StratificationReport,
    Verdict,
    classify,
    label,
    stratify,
    structural_dim,
    verify_dense,
    verify_open,
    verify_usc,
)
from .tangent import is_tangent

__version__ = "0.1.0"

__all__ = [
    "DimensionMismatchError",
    "FrameEvaluationError",
    "FrameSection",
    "NeighbourIndex",
    "NoSampleSourceError",
    "NonMemberError",
    "ParseError",
    "PointRecord",
    "Polynomial",
    "Sampler",
    "SpaceFormatError",
    "SpacePresentation",
    "StratificationReport",
    "SubcartError",
    "Verdict",
    "classify",
    "common_pivot_exists",
    "constant",
    "frame_at",
    "is_member",
    "is_tangent",
    "label",
    "load_space",
    "parse",
    "parse_rational",
    "sample",
    "space_from_dict",
    "stratify",
    "structural_dim",
    "variable",
    "verify",
    "verify_dense",
    "verify_local_triviality",
    "verify_open",
    "verify_usc",
    "zero",
]
