"""Structural dimension, regular/singular classification, and sampled
verification of the stratification theorems.

The structural dimension at a member point equals the dimension of the
tangent space there, so it is computed exactly as
ambient_dim - rank(Jacobian); ``stratify`` analyses each sample point
once, on integers and without testing membership again (the samples were
validated at load), and keeps the analysis beside its record.  Kernel
dimension is upper semicontinuous: approaching a point, dimensions can
only stay or rise at the limit point, never persistently exceed it
nearby.  Regularity (local constancy of the dimension) is therefore
decided from sampled evidence asymmetrically, by the one rule ``label``
that ``stratify``, ``classify`` and the frame anchor check all apply:

* a sampled neighbor of strictly LOWER dimension certifies that the
  dimension is not locally constant at x, so x is singular;
* sampled neighbors of HIGHER dimension are points of thinner singular
  strata poking into the neighborhood at finite sampling scale (the cone
  apex sits within any reasonable radius of nearby smooth samples) and
  certify nothing about x;
* no sampled neighbor at all is no evidence, so x is unknown.

Every adjacency question (labels, usc, open, dense, the triviality
targets, and classification of points that are not samples) is answered
by one ``NeighbourIndex`` per radius.  It multiplies the coordinates and
the radius by the lcm of their denominators and hashes the points into
cells (``near`` needs only those; the samples' neighbour lists are found
on the first ``neighbours`` call, each pair of points in adjacent cells
compared once and only up to its first coordinate beyond the radius), so
every comparison is between integers and exact: a pair at exactly the
radius is a neighbour for the ``<=`` questions (labels, usc, open, and
dense with epsilon) and not for the strict ``<`` of the triviality
targets, which keeps the coordinate cross's branches apart.  Default
radius and epsilon are the maximum nearest-neighbor gap of the sample set
(computed once, on the same integer coordinates), so the defaults scale
with sampling density instead of being assumed.  A negative radius or epsilon, which would leave every
point without evidence, is an input error; a radius that leaves some
sample without any other sample within it is reported as a caveat, since
those labels rest on no neighbour evidence.

A ``StratificationReport`` carries its space, so whatever reads it needs
the report alone.  Its JSON views are ``to_json`` (every record) and
``summary_json`` (the verdicts and the label counts).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import product
from operator import add, sub
from typing import Literal, Sequence

from .errors import SubcartError
from .poly import Point, format_point
from .space import SpacePresentation, repeated_factor_caveats, sample
from .tangent import PointAnalysis, analyse, analyse_member

Label = Literal["regular", "singular", "unknown"]


def sup_distance(
    a: Sequence[Fraction | int], b: Sequence[Fraction | int]
) -> Fraction | int:
    return max(map(abs, map(sub, a, b)))


def structural_dim(space: SpacePresentation, point: Sequence[Fraction]) -> int:
    """ambient_dim - rank of the generator Jacobian, exactly."""
    return analyse(space, point).dim


def label(dim: int, neighbor_dims: Sequence[int]) -> Label:
    """The regular/singular rule: singular iff some neighbor has lower
    dimension, unknown when there is no neighbor at all."""
    if not neighbor_dims:
        return "unknown"
    return "singular" if min(neighbor_dims) < dim else "regular"


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
    space: SpacePresentation = field(repr=False, compare=False)  # the analysed space
    records: tuple[PointRecord, ...]
    analyses: tuple[PointAnalysis, ...]  # analyses[i] is the point of records[i]
    index: NeighbourIndex = field(repr=False, compare=False)  # records' points, radius
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

    def counts(self) -> dict:
        labels = [r.label for r in self.records]
        return {
            "records": len(labels),
            "regular": labels.count("regular"),
            "singular": labels.count("singular"),
        }

    def to_json(self) -> dict:
        """The full view: every record, the strata sizes and the verdicts."""
        return {
            "space": self.space.name,
            "records": [r.to_json() for r in self.records],
            "strata": {str(i): len(members) for i, members in enumerate(self.strata)},
            "verdicts": {v.name: v.to_json() for v in self.verdicts},
            "params": {"radius": str(self.radius), "epsilon": str(self.epsilon)},
            "caveats": list(self.caveats),
        }

    def summary_json(self) -> dict:
        """The summary view: the verdicts and the label counts, no records."""
        return {
            "space": self.space.name,
            "verdicts": {v.name: v.to_json() for v in self.verdicts},
            "params": {"radius": str(self.radius), "epsilon": str(self.epsilon)},
            "counts": self.counts(),
            "caveats": list(self.caveats),
        }


def _integer_points(
    points: Sequence[Sequence[Fraction]], *extra: Fraction
) -> tuple[int, list[tuple[int, ...]]]:
    """The lcm of the denominators of the points and of ``extra``, and the
    points multiplied by it: integer tuples whose sup-norm distances are
    the rational ones times that scale."""
    scale = math.lcm(
        *(c.denominator for p in points for c in p), *(f.denominator for f in extra)
    )
    return scale, [
        tuple(c.numerator * (scale // c.denominator) for c in p) for p in points
    ]


def _axes(points: Sequence[tuple[int, ...]]) -> tuple[int, ...]:
    """At most three coordinate axes, those with the most distinct values
    first (ties by position): the sweep axis of the nearest-neighbour gap
    and the cell axes of ``NeighbourIndex``."""
    if not points:
        return ()
    spread = [len({p[a] for p in points}) for a in range(len(points[0]))]
    return tuple(sorted(range(len(spread)), key=lambda a: -spread[a])[:3])


def _nearest_gap(
    order: Sequence[tuple[int, ...]], axis: int, k: int, enough: int
) -> int:
    """Distance from ``order[k]`` to the nearest other point of ``order``
    (sorted along ``axis``), or the first distance found that is at most
    ``enough``.  A point whose gap along the axis alone reaches the best
    distance so far, and every point beyond it, cannot be nearer."""
    p = order[k]
    best = None
    for step in (1, -1):
        m = k + step
        while 0 <= m < len(order):
            if best is not None and abs(order[m][axis] - p[axis]) >= best:
                break
            d = sup_distance(p, order[m])
            if best is None or d < best:
                if d <= enough:
                    return d
                best = d
            m += step
    return best


def default_adjacency_radius(points: Sequence[Point]) -> Fraction:
    """Maximum over sample points of the distance to the nearest other
    sample point; 0 when fewer than two points exist.

    Computed exactly on integer-scaled coordinates by a sweep along the
    axis with the most distinct values; a point's search stops as soon as
    it cannot raise the maximum found so far."""
    if len(points) < 2:
        return Fraction(0)
    scale, scaled = _integer_points(points)
    axis = _axes(scaled)[0]
    order = sorted(scaled, key=lambda p: p[axis])
    worst = 0
    for k in range(len(order)):
        worst = max(worst, _nearest_gap(order, axis, k, worst))
    return Fraction(worst, scale)


class NeighbourIndex:
    """Exact fixed-radius sup-norm neighbours of a point set.

    Coordinates and radius are multiplied by the lcm of their
    denominators, so distances are compared as integers.  Points are
    hashed into cells of side max(scaled radius, 1) along at most three
    axes (Bentley, Stanat & Williams 1977): two points within the radius
    lie in the same or adjacent cells, so only those pairs are compared.
    ``near`` reads only the cells.  The first ``neighbours`` call stores
    each point's neighbours as ascending indices, once within the closed
    ball (``<=`` radius) and once within the open ball (``<``).
    """

    def __init__(self, points: Sequence[Sequence[Fraction]], radius: Fraction):
        self.radius = radius
        self._scale, self._points = _integer_points(points, radius)
        self._reach = radius.numerator * (self._scale // radius.denominator)
        self._side = max(self._reach, 1)
        self._axes = _axes(self._points)
        self._offsets = tuple(product((-1, 0, 1), repeat=len(self._axes)))
        self._cells: dict[tuple[int, ...], list[int]] = {}
        for i, p in enumerate(self._points):
            self._cells.setdefault(self._cell(p), []).append(i)

    @cached_property
    def _lists(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """The closed and the open neighbour lists of every point.  Each
        cell's points are compared with its later points and with the
        points of the adjacent cells on one side (the offsets after the
        zero offset, whose negations are the ones before it), so each
        pair is compared once."""
        closed: list[list[int]] = [[] for _ in self._points]
        strict: list[list[int]] = [[] for _ in self._points]
        forward = self._offsets[len(self._offsets) // 2 + 1 :]
        for key, members in self._cells.items():
            adjacent = []
            for offset in forward:
                adjacent += self._cells.get(tuple(map(add, key, offset)), ())
            for k, i in enumerate(members):
                candidates = members[k + 1 :] + adjacent
                found = _within(self._points[i], self._points, candidates, self._reach)
                for j, d in found:
                    closed[i].append(j)
                    closed[j].append(i)
                    if d < self._reach:
                        strict[i].append(j)
                        strict[j].append(i)
        return (
            tuple(tuple(sorted(c)) for c in closed),
            tuple(tuple(sorted(c)) for c in strict),
        )

    def _cell(self, scaled: Sequence[Fraction | int]) -> tuple[int, ...]:
        return tuple(scaled[a] // self._side for a in self._axes)

    def _candidates(self, scaled: Sequence[Fraction | int]) -> list[int]:
        """Indices of the points in the cells adjacent to the point's cell."""
        key = self._cell(scaled)
        found = []
        for offset in self._offsets:
            found += self._cells.get(tuple(map(add, key, offset)), ())
        return found

    def neighbours(self, i: int, strict: bool = False) -> tuple[int, ...]:
        """Ascending indices j != i of the points within the radius of
        point i (closer than the radius when ``strict``)."""
        closed, open_ = self._lists
        return open_[i] if strict else closed[i]

    def near(self, point: Sequence[Fraction], strict: bool = False) -> list[int]:
        """Ascending indices of the points within the radius of any point
        (closer than the radius when ``strict``); an indexed point equal
        to it is included."""
        scaled = [c * self._scale for c in point]
        found = _within(scaled, self._points, self._candidates(scaled), self._reach)
        return sorted(j for j, d in found if not strict or d < self._reach)


def _within(
    p: Sequence[Fraction | int],
    points: Sequence[tuple[int, ...]],
    candidates: Sequence[int],
    reach: int,
) -> list[tuple[int, Fraction | int]]:
    """(j, distance) for each candidate index j whose point is within
    ``reach`` of ``p`` in the sup norm, in candidate order.  A pair's
    comparison stops at its first coordinate further apart than ``reach``."""
    found = []
    for j in candidates:
        distance = 0
        for x, y in zip(p, points[j]):
            gap = x - y if x > y else y - x
            if gap > reach:
                break
            if gap > distance:
                distance = gap
        else:
            found.append((j, distance))
    return found


def verify_usc(records: Sequence[PointRecord], index: NeighbourIndex) -> Verdict:
    """Sampled upper semicontinuity of the dimension function.

    Fails iff some sampled point has neighbors within the radius and every
    one of them has strictly larger dimension: then the point's dimension
    is contradicted by all local evidence, the sampled witness of an
    upward jump in the limit.  ``index`` holds the records' points.
    """
    if not records:
        raise ValueError("verify_usc requires at least one record")
    for i, record in enumerate(records):
        neighbor_dims = [records[j].dim for j in index.neighbours(i)]
        if neighbor_dims and all(d > record.dim for d in neighbor_dims):
            return Verdict(
                "usc",
                False,
                f"point {format_point(record.point)} of dimension {record.dim} is "
                f"approximated only by higher-dimensional samples within radius "
                f"{index.radius}",
            )
    return Verdict("usc", True)


def verify_open(records: Sequence[PointRecord], index: NeighbourIndex) -> Verdict:
    """Sampled openness of the regular part.

    A regular point may abut singular samples only when those belong to a
    strictly higher-dimensional (thinner) stratum; a non-regular neighbor
    of dimension <= its own contradicts openness at sampling scale.
    ``index`` holds the records' points.
    """
    if not records:
        raise ValueError("verify_open requires at least one record")
    for i, record in enumerate(records):
        if record.label != "regular":
            continue
        for j in index.neighbours(i):
            other = records[j]
            if other.label != "regular" and other.dim <= record.dim:
                return Verdict(
                    "open",
                    False,
                    f"regular point {format_point(record.point)} has "
                    f"{other.label} neighbor {format_point(other.point)} of "
                    f"dimension {other.dim} within radius {index.radius}",
                )
    return Verdict("open", True)


def verify_dense(records: Sequence[PointRecord], index: NeighbourIndex) -> Verdict:
    """Sampled density of the regular part: every sampled point (itself
    included) has a regular-labeled sample within epsilon, the radius of
    ``index``, which holds the records' points."""
    if not records:
        raise ValueError("verify_dense requires at least one record")
    for i, record in enumerate(records):
        if record.label != "regular" and not any(
            records[j].label == "regular" for j in index.neighbours(i)
        ):
            return Verdict(
                "dense",
                False,
                f"no regular sample within {index.radius} of "
                f"{format_point(record.point)}",
            )
    return Verdict("dense", True)


def _radii(points: Sequence[Point], **radii: Fraction | None) -> list[Fraction]:
    """The given radii, by parameter name, with None replaced by the
    default adjacency radius, computed at most once.  A radius that is not
    an int or a Fraction, or is negative, is an input error naming it."""
    for name, r in radii.items():
        if r is not None and (isinstance(r, bool) or not isinstance(r, (int, Fraction))):
            raise SubcartError(f"{name} must be an int or a Fraction, got {r!r}")
        if r is not None and r < 0:
            raise SubcartError(f"{name} must be nonnegative, got {r}")
    default = default_adjacency_radius(points) if None in radii.values() else None
    return [default if r is None else r for r in radii.values()]


def classify(
    space: SpacePresentation, point: Sequence[Fraction], radius: Fraction | None = None
) -> PointRecord:
    """Record of any member point, labelled by ``label`` against the
    sample points within the radius (the default adjacency radius when
    None).  A sample at the point counts as evidence, as it does for its
    ``stratify`` record, so a sample's record is reproduced exactly.  The
    query is analysed once, also when it is one of the samples."""
    x = analyse(space, point)
    points = sample(space)
    (radius,) = _radii(points, radius=radius)
    neighbor_dims = [
        x.dim if points[j] == x.point else analyse_member(space, points[j]).dim
        for j in NeighbourIndex(points, radius).near(x.point)
    ]
    return PointRecord(x.point, x.dim, label(x.dim, neighbor_dims))


def stratify(
    space: SpacePresentation,
    radius: Fraction | None = None,
    epsilon: Fraction | None = None,
) -> StratificationReport:
    """Full pipeline: sample, analyse each point once, index the
    neighbours once per distinct radius, classify, build strata, and run
    the usc / open / dense verifiers."""
    points = sample(space)
    radius, epsilon = _radii(points, radius=radius, epsilon=epsilon)
    analyses = tuple(analyse_member(space, p) for p in points)
    dims = [a.dim for a in analyses]
    index = NeighbourIndex(points, radius)
    dense_index = index if epsilon == radius else NeighbourIndex(points, epsilon)
    # a sample is evidence for itself, so isolated samples are regular
    # rather than unknown
    records = tuple(
        PointRecord(
            p,
            dims[i],
            label(dims[i], [dims[i]] + [dims[j] for j in index.neighbours(i)]),
        )
        for i, p in enumerate(points)
    )

    strata = tuple(
        tuple(i for i, r in enumerate(records) if r.dim <= level)
        for level in range(space.ambient_dim + 1)
    )
    verdicts = (
        verify_usc(records, index),
        verify_open(records, index),
        verify_dense(records, dense_index),
    )
    caveats = repeated_factor_caveats(space)
    isolated = sum(1 for i in range(len(points)) if not index.neighbours(i))
    if len(points) > 1 and isolated:
        caveats.append(
            f"{isolated} of {len(points)} records have no other sample within "
            f"radius {radius}: their labels rest on no neighbour evidence"
        )
    return StratificationReport(
        space=space,
        records=records,
        analyses=analyses,
        index=index,
        radius=radius,
        epsilon=epsilon,
        strata=strata,
        verdicts=verdicts,
        caveats=tuple(caveats),
    )
