"""Structural dimension, regular/singular classification, and sampled
verification of the stratification theorems.

The structural dimension at a member point equals the dimension of the
tangent space there, so it is computed exactly as
ambient_dim - rank(Jacobian); ``stratify`` analyses each sample point
once and keeps the analysis beside its record.  Kernel dimension is upper
semicontinuous: approaching a point, dimensions can only stay or rise at
the limit point, never persistently exceed it nearby.  Regularity (local
constancy of the dimension) is therefore decided from sampled evidence
asymmetrically, by the one rule ``label`` that ``stratify``, ``classify``
and the frame anchor check all apply:

* a sampled neighbor of strictly LOWER dimension certifies that the
  dimension is not locally constant at x, so x is singular;
* sampled neighbors of HIGHER dimension are points of thinner singular
  strata poking into the neighborhood at finite sampling scale (the cone
  apex sits within any reasonable radius of nearby smooth samples) and
  certify nothing about x;
* no sampled neighbor at all is no evidence, so x is unknown.

All adjacency uses the exact rational sup-norm.  Default radius and
epsilon are the maximum nearest-neighbor gap of the sample set (computed
once), so the defaults scale with sampling density instead of being
assumed.  A negative radius or epsilon, which would leave every point
without evidence, is an input error.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Literal, Sequence

from .errors import NoSampleSourceError, SubcartError
from .poly import Point, format_point
from .space import SpacePresentation, repeated_factor_caveats, sample
from .tangent import PointAnalysis, analyse

Label = Literal["regular", "singular", "unknown"]


def sup_distance(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    return max(abs(x - y) for x, y in zip(a, b))


def structural_dim(space: SpacePresentation, point: Sequence[Fraction]) -> int:
    """ambient_dim - rank of the generator Jacobian, exactly."""
    return analyse(space, point).dim


def label(dim: int, neighbor_dims: Sequence[int]) -> Label:
    """The regular/singular rule: singular iff some neighbor has lower
    dimension, unknown when there is no neighbor at all."""
    if not neighbor_dims:
        return "unknown"
    return "singular" if min(neighbor_dims) < dim else "regular"


def label_in_sample(
    x: PointAnalysis, analyses: Sequence[PointAnalysis], radius: Fraction
) -> Label:
    """``label`` with every analysed sample point within the radius as
    evidence (the point itself included when it is a sample, so isolated
    sample points are regular rather than unknown)."""
    return label(
        x.dim, [a.dim for a in analyses if sup_distance(x.point, a.point) <= radius]
    )


def classify(
    space: SpacePresentation,
    point: Sequence[Fraction],
    neighbors: Sequence[Sequence[Fraction]],
) -> Label:
    """Classify a member point from sampled neighbor evidence.

    ``neighbors`` is intended to be every sampled point within a
    caller-chosen radius of ``point`` (the point itself may be included;
    it never changes the outcome).  Empty evidence yields ``unknown``.
    """
    dim = structural_dim(space, point)
    return label(dim, [structural_dim(space, y) for y in neighbors])


@dataclass(frozen=True)
class PointRecord:
    point: Point
    dim: int
    label: Label

    def to_json(self) -> dict:
        return {
            "point": [str(c) for c in self.point],
            "dim": self.dim,
            "label": self.label,
        }


@dataclass(frozen=True)
class Verdict:
    name: str
    passed: bool
    detail: str = ""

    def to_json(self) -> dict:
        return {"pass": self.passed, "detail": self.detail or None}


@dataclass(frozen=True)
class StratificationReport:
    space_name: str
    ambient_dim: int
    records: tuple[PointRecord, ...]
    analyses: tuple[PointAnalysis, ...]  # analyses[i] is the point of records[i]
    radius: Fraction
    epsilon: Fraction
    strata: tuple[tuple[int, ...], ...]  # strata[i] = record indices with dim <= i
    verdicts: tuple[Verdict, ...]
    caveats: tuple[str, ...] = ()

    def verdict(self, name: str) -> Verdict:
        for v in self.verdicts:
            if v.name == name:
                return v
        raise KeyError(name)

    def all_pass(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def to_json(self) -> dict:
        return {
            "space": self.space_name,
            "records": [r.to_json() for r in self.records],
            "strata": {str(i): len(members) for i, members in enumerate(self.strata)},
            "verdicts": {v.name: v.to_json() for v in self.verdicts},
            "params": {"radius": str(self.radius), "epsilon": str(self.epsilon)},
            "caveats": list(self.caveats),
        }

    def to_json_text(self) -> str:
        return json.dumps(self.to_json(), indent=2) + "\n"


def default_adjacency_radius(points: Sequence[Point]) -> Fraction:
    """Maximum over sample points of the distance to the nearest other
    sample point; 0 when fewer than two points exist."""
    if len(points) < 2:
        return Fraction(0)
    worst = Fraction(0)
    for i, p in enumerate(points):
        nearest = min(
            sup_distance(p, q) for j, q in enumerate(points) if j != i
        )
        if nearest > worst:
            worst = nearest
    return worst


def _neighbor_indices(
    records: Sequence[PointRecord], i: int, radius: Fraction
) -> list[int]:
    return [
        j
        for j, r in enumerate(records)
        if j != i and sup_distance(records[i].point, r.point) <= radius
    ]


def verify_usc(records: Sequence[PointRecord], adjacency_radius: Fraction) -> Verdict:
    """Sampled upper semicontinuity of the dimension function.

    Fails iff some sampled point has neighbors within the radius and every
    one of them has strictly larger dimension: then the point's dimension
    is contradicted by all local evidence, the sampled witness of an
    upward jump in the limit.
    """
    if not records:
        raise ValueError("verify_usc requires at least one record")
    for i, record in enumerate(records):
        neighbor_dims = [records[j].dim for j in _neighbor_indices(records, i, adjacency_radius)]
        if neighbor_dims and all(d > record.dim for d in neighbor_dims):
            return Verdict(
                "usc",
                False,
                f"point {format_point(record.point)} of dimension {record.dim} is "
                f"approximated only by higher-dimensional samples within radius "
                f"{adjacency_radius}",
            )
    return Verdict("usc", True)


def verify_open(records: Sequence[PointRecord], adjacency_radius: Fraction) -> Verdict:
    """Sampled openness of the regular part.

    A regular point may abut singular samples only when those belong to a
    strictly higher-dimensional (thinner) stratum; a non-regular neighbor
    of dimension <= its own contradicts openness at sampling scale.
    """
    if not records:
        raise ValueError("verify_open requires at least one record")
    for i, record in enumerate(records):
        if record.label != "regular":
            continue
        for j in _neighbor_indices(records, i, adjacency_radius):
            other = records[j]
            if other.label != "regular" and other.dim <= record.dim:
                return Verdict(
                    "open",
                    False,
                    f"regular point {format_point(record.point)} has "
                    f"{other.label} neighbor {format_point(other.point)} of "
                    f"dimension {other.dim} within radius {adjacency_radius}",
                )
    return Verdict("open", True)


def verify_dense(records: Sequence[PointRecord], epsilon: Fraction) -> Verdict:
    """Sampled density of the regular part: every sampled point (itself
    included) has a regular-labeled sample within epsilon."""
    if not records:
        raise ValueError("verify_dense requires at least one record")
    regular_points = [r.point for r in records if r.label == "regular"]
    for record in records:
        if not any(sup_distance(record.point, p) <= epsilon for p in regular_points):
            return Verdict(
                "dense",
                False,
                f"no regular sample within {epsilon} of {format_point(record.point)}",
            )
    return Verdict("dense", True)


def _radii(points: Sequence[Point], *radii: Fraction | None) -> list[Fraction]:
    """The given radii with None replaced by the default adjacency radius,
    computed at most once.  A negative radius is an input error."""
    for r in radii:
        if r is not None and r < 0:
            raise SubcartError(f"radius and epsilon must be nonnegative, got {r}")
    default = default_adjacency_radius(points) if None in radii else None
    return [default if r is None else r for r in radii]


def classify_point(
    space: SpacePresentation, point: Sequence[Fraction], radius: Fraction | None
) -> PointRecord:
    """Record of any member point, classified against the sample points
    within the radius (the default adjacency radius when None)."""
    x = analyse(space, point)
    points = sample(space)
    (radius,) = _radii(points, radius)
    neighbors = [q for q in points if sup_distance(x.point, q) <= radius]
    return PointRecord(x.point, x.dim, classify(space, x.point, neighbors))


def stratify(
    space: SpacePresentation,
    radius: Fraction | None = None,
    epsilon: Fraction | None = None,
) -> StratificationReport:
    """Full pipeline: sample, analyse each point once, classify, build
    strata, and run the usc / open / dense verifiers."""
    points = sample(space)
    if not points:
        raise NoSampleSourceError(f"space {space.name!r} produced no sample points")
    radius, epsilon = _radii(points, radius, epsilon)
    analyses = tuple(analyse(space, p) for p in points)
    records = tuple(
        PointRecord(a.point, a.dim, label_in_sample(a, analyses, radius))
        for a in analyses
    )

    strata = tuple(
        tuple(i for i, r in enumerate(records) if r.dim <= level)
        for level in range(space.ambient_dim + 1)
    )
    verdicts = (
        verify_usc(records, radius),
        verify_open(records, radius),
        verify_dense(records, epsilon),
    )
    return StratificationReport(
        space_name=space.name,
        ambient_dim=space.ambient_dim,
        records=records,
        analyses=analyses,
        radius=radius,
        epsilon=epsilon,
        strata=strata,
        verdicts=verdicts,
        caveats=tuple(repeated_factor_caveats(space)),
    )
