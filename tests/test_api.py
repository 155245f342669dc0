"""The public API of the package, pinned by name: adding or removing a
name from ``subcart.__all__`` must edit this list too."""

import subcart

PUBLIC = [
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


def test_the_public_api_is_pinned_and_each_name_resolves():
    assert len(PUBLIC) == 36
    assert sorted(subcart.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(subcart, name) is not None, name
