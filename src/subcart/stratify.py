"""Structural dimension, regular/singular classification, and sampled
verification of the stratification theorems.

The structural dimension at a member point equals the dimension of the
tangent space there, so it is computed exactly as
ambient_dim - rank(Jacobian); ``stratify`` analyses each sample point
once, on integers and without testing membership again (the space
validated them), from the integer form (a, D) the space stores for it
(``SpacePresentation.cleared_samples``).  Its record and its analysis
hold that form and build the point a / D only when it is read (for JSON
records, failure messages and frame output).  Kernel dimension is upper
semicontinuous: approaching a point, dimensions can only stay or rise at
the limit point, never persistently exceed it nearby.  Regularity (local
constancy of the dimension) is therefore decided from sampled evidence
asymmetrically, by the one rule ``label`` that ``stratify``,
``classify`` and the frame anchor check all apply:

* a sampled neighbor of strictly LOWER dimension certifies that the
  dimension is not locally constant at x, so x is singular;
* sampled neighbors of HIGHER dimension are points of thinner singular
  strata poking into the neighborhood at finite sampling scale (the cone
  apex sits within any reasonable radius of nearby smooth samples) and
  certify nothing about x;
* no sampled neighbor at all is no evidence, so x is unknown.

Every adjacency question (labels, usc, open, dense, the triviality
targets, and classification of points that are not samples) is answered
by one ``NeighbourIndex`` per distinct radius, built from the forms
before any sample is analysed.  The index owns its integer table (the
forms over the lcm of the D's and of the radius's denominator, refused
past ``MAX_TABLE_BITS``) and hashes its points into cells (``near``
needs only those; the samples' neighbour lists are found on the first
``neighbours`` call, refused past ``MAX_NEIGHBOUR_PAIRS`` candidate
pairs, each pair of points in adjacent cells compared once and only up
to its first coordinate beyond the radius), so every comparison is
between integers and exact: a pair at exactly the radius is a neighbour
for the ``<=`` questions (labels, usc, open, and dense with epsilon) and
not for the strict ``<`` of the triviality targets, which keeps the
coordinate cross's branches apart.  Default radius and epsilon are the
maximum nearest-neighbor gap of the sample set, which the index computes
on its own table, so the defaults scale with sampling density instead of
being assumed.  A negative radius or epsilon, which would leave every
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
from itertools import product, repeat
from operator import add, sub
from typing import Literal, Sequence

from .errors import SubcartError
from .poly import Cleared, Point, divided, format_point, rational_text
from .space import SpacePresentation, repeated_factor_caveats, sample_forms
from .tangent import PointAnalysis, analyse, analyse_member

Label = Literal["regular", "singular", "unknown"]
IntegerTable = tuple[int, list[tuple[int, ...]]]  # (scale, each point times it)

MAX_TABLE_BITS = 100_000_000  # points times the bits of their table's scale
MAX_NEIGHBOUR_PAIRS = 1_000_000  # candidate pairs that one index may compare


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
    form: Cleared  # the point's least integer form (a, D)
    dim: int
    label: Label

    @cached_property
    def point(self) -> Point:  # a / D, built on its first read
        return divided(*self.form)

    def to_json(self) -> dict:
        return {
            "point": [rational_text(c) for c in self.point],
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
    records: tuple[PointRecord, ...]  # their dims give the strata sizes of ``to_json``
    analyses: tuple[PointAnalysis, ...]  # analyses[i] is the point of records[i]
    index: NeighbourIndex = field(repr=False, compare=False)  # records' points, radius
    radius: Fraction  # of the labels and the usc and open verdicts
    epsilon: Fraction  # of the dense verdict
    verdicts: tuple[Verdict, ...]  # usc, open, dense
    caveats: tuple[str, ...] = ()

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
        """The full view: every record, the strata sizes and the verdicts.
        Stratum i holds the records of dimension at most i."""
        dims = [r.dim for r in self.records]
        return {
            "space": self.space.name,
            "records": [r.to_json() for r in self.records],
            "strata": {
                str(i): sum(d <= i for d in dims) for i in range(self.space.ambient_dim + 1)
            },
            "verdicts": {v.name: v.to_json() for v in self.verdicts},
            "params": dict(radius=rational_text(self.radius), epsilon=rational_text(self.epsilon)),
            "caveats": list(self.caveats),
        }

    def summary_json(self) -> dict:
        """The summary view: the verdicts and the label counts, no records."""
        return {
            "space": self.space.name,
            "verdicts": {v.name: v.to_json() for v in self.verdicts},
            "params": dict(radius=rational_text(self.radius), epsilon=rational_text(self.epsilon)),
            "counts": self.counts(),
            "caveats": list(self.caveats),
        }


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


def default_adjacency_radius(table: IntegerTable) -> Fraction:
    """Maximum over the points of an integer table (scale, each point
    times it), as ``NeighbourIndex`` builds it, of the distance to the
    nearest other point; 0 when fewer than two points exist.

    Computed exactly on the table's integer coordinates by a sweep along
    the axis with the most distinct values; a point's search stops as soon
    as it cannot raise the maximum found so far."""
    scale, points = table
    if len(points) < 2:
        return Fraction(0)
    axis = _axes(points)[0]
    order = sorted(points, key=lambda p: p[axis])
    worst = 0
    for k in range(len(order)):
        worst = max(worst, _nearest_gap(order, axis, k, worst))
    return Fraction(worst, scale)


class NeighbourIndex:
    """Exact fixed-radius sup-norm neighbours of a point set.

    The points come as least integer forms (a, D) and are put on one
    integer table: its scale is the lcm of the D's and of the radius's
    denominator, each point a * (scale / D), so distances are compared as
    integers.  A table of more than ``MAX_TABLE_BITS`` (the points times
    the bits of the scale) is refused before any point is scaled.  With
    no radius, the radius is ``default_adjacency_radius`` of that table.
    Points are hashed into cells of side max(scaled radius, 1) along at
    most three axes (Bentley, Stanat & Williams 1977): two points within
    the radius lie in the same or adjacent cells, so only those pairs are
    compared.  ``near`` reads only the cells.  The first ``neighbours``
    call stores each point's neighbours as ascending indices, once within
    the closed ball (``<=`` radius) and once within the open ball (``<``).
    """

    def __init__(self, forms: Sequence[Cleared], radius: Fraction | None = None):
        scale = 1 if radius is None else radius.denominator
        for d in dict.fromkeys(d for _, d in forms):
            scale = math.lcm(scale, d)
            if len(forms) * scale.bit_length() > MAX_TABLE_BITS:
                message = f"{len(forms)} samples over a {scale.bit_length()}-bit denominator"
                raise SubcartError(f"{message} pass {MAX_TABLE_BITS} bits")
        self._scale = scale
        self._points = [tuple(x * (scale // d) for x in a) for a, d in forms]
        if radius is None:
            radius = default_adjacency_radius((scale, self._points))
        self.radius = radius
        self._reach = radius.numerator * (scale // radius.denominator)
        self._side = max(self._reach, 1)
        self._axes = _axes(self._points)
        self._offsets = tuple(product((-1, 0, 1), repeat=len(self._axes)))
        self._cells: dict[tuple[int, ...], list[int]] = {}
        for i, p in enumerate(self._points):
            key = tuple(p[a] // self._side for a in self._axes)
            self._cells.setdefault(key, []).append(i)

    @cached_property
    def _lists(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """The closed and the open neighbour lists of every point.  Each
        cell's points are compared with its later points and with the
        points of the adjacent cells on one side (the offsets after the
        zero offset, whose negations are the ones before it), so each
        pair is compared once; past ``MAX_NEIGHBOUR_PAIRS`` pairs, none is."""
        forward = self._offsets[len(self._offsets) // 2 + 1 :]
        blocks = []
        for key, members in self._cells.items():
            adjacent = []
            for offset in forward:
                adjacent += self._cells.get(tuple(map(add, key, offset)), ())
            blocks.append((members, adjacent))
        pairs = sum(len(m) * (len(m) - 1) // 2 + len(m) * len(a) for m, a in blocks)
        if pairs > MAX_NEIGHBOUR_PAIRS:
            raise SubcartError(
                f"radius {rational_text(self.radius)} leaves {pairs} sample pairs to "
                f"compare, more than {MAX_NEIGHBOUR_PAIRS}; give a smaller --radius"
            )
        closed: list[list[int]] = [[] for _ in self._points]
        strict: list[list[int]] = [[] for _ in self._points]
        for members, adjacent in blocks:
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

    def neighbours(self, i: int, strict: bool = False) -> tuple[int, ...]:
        """Ascending indices j != i of the points within the radius of
        point i (closer than the radius when ``strict``)."""
        closed, open_ = self._lists
        return open_[i] if strict else closed[i]

    def near(self, form: Cleared) -> list[tuple[int, bool]]:
        """(j, inside) for each index j, ascending, of the points within the
        radius of any point of integer form (a, D), an indexed point equal
        to it included, ``inside`` telling whether j is closer than the
        radius; compared at the least multiple of the scale that D divides,
        in one scan."""
        numerators, denominator = form
        grow = denominator // math.gcd(self._scale, denominator)
        query = [x * (self._scale * grow // denominator) for x in numerators]
        key = [query[a] // (self._side * grow) for a in self._axes]
        candidates = []
        for offset in self._offsets:
            candidates += self._cells.get(tuple(map(add, key, offset)), ())
        points = {j: tuple(x * grow for x in self._points[j]) for j in candidates}
        reach = self._reach * grow
        found = _within(query, points, candidates, reach)
        return sorted((j, d < reach) for j, d in found)


def _within(
    p: Sequence[int],
    points: Sequence[tuple[int, ...]] | dict[int, tuple[int, ...]],
    candidates: Sequence[int],
    reach: int,
) -> list[tuple[int, int]]:
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
        raise SubcartError("verify_usc requires at least one record")
    for i, record in enumerate(records):
        neighbor_dims = [records[j].dim for j in index.neighbours(i)]
        if neighbor_dims and all(d > record.dim for d in neighbor_dims):
            return Verdict(
                "usc",
                False,
                f"point {format_point(record.point)} of dimension {record.dim} is "
                f"approximated only by higher-dimensional samples within radius "
                f"{rational_text(index.radius)}",
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
        raise SubcartError("verify_open requires at least one record")
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
                    f"dimension {other.dim} within radius {rational_text(index.radius)}",
                )
    return Verdict("open", True)


def verify_dense(records: Sequence[PointRecord], index: NeighbourIndex) -> Verdict:
    """Sampled density of the regular part: every sampled point (itself
    included) has a regular-labeled sample within epsilon, the radius of
    ``index``, which holds the records' points."""
    if not records:
        raise SubcartError("verify_dense requires at least one record")
    for i, record in enumerate(records):
        if record.label != "regular" and not any(
            records[j].label == "regular" for j in index.neighbours(i)
        ):
            return Verdict(
                "dense",
                False,
                f"no regular sample within {rational_text(index.radius)} of "
                f"{format_point(record.point)}",
            )
    return Verdict("dense", True)


def _radii(points: int, **radii: Fraction | None) -> None:
    """Refuse, by parameter name, a given radius that is not an int or a
    Fraction, or is negative, and an adjacency radius 0 over more than one
    point, which leaves every point alone (over one it is the default)."""
    for name, r in radii.items():
        if r is not None and (isinstance(r, bool) or not isinstance(r, (int, Fraction))):
            raise SubcartError(f"{name} must be an int or a Fraction, got {r!r}")
        if r is not None and r < 0:
            raise SubcartError(f"{name} must be nonnegative, got {rational_text(r)}")
    if radii.get("radius") == 0 and points > 1:
        raise SubcartError("radius must be positive, got 0")


def classify(
    space: SpacePresentation, point: Sequence[Fraction], radius: Fraction | None = None
) -> PointRecord:
    """Record of any member point, labelled by ``label`` against the
    sample points within the radius (the default adjacency radius when
    None).  A sample at the point counts as evidence, as it does for its
    ``stratify`` record, so a sample's record is reproduced exactly.  The
    query is analysed once, also when it is one of the samples."""
    x = analyse(space, point)
    forms = sample_forms(space)
    _radii(len(forms), radius=radius)
    neighbor_dims = [
        x.dim if forms[j] == x.form else analyse_member(space, forms[j]).dim
        for j, _ in NeighbourIndex(forms, radius).near(x.form)
    ]
    return PointRecord(x.form, x.dim, label(x.dim, neighbor_dims))


def stratify(
    space: SpacePresentation,
    radius: Fraction | None = None,
    epsilon: Fraction | None = None,
) -> StratificationReport:
    """Full pipeline: index the samples once per distinct radius, analyse
    each sample's integer form once, classify, and run the usc / open /
    dense verifiers."""
    forms = sample_forms(space)
    _radii(len(forms), radius=radius, epsilon=epsilon)
    index = NeighbourIndex(forms, radius)
    shared = epsilon == index.radius or epsilon is None and radius is None
    dense_index = index if shared else NeighbourIndex(forms, epsilon)
    radius, epsilon = index.radius, dense_index.radius
    analyses = tuple(map(analyse_member, repeat(space), forms))
    dims = [a.dim for a in analyses]
    # a sample is evidence for itself, so isolated samples are regular
    # rather than unknown
    records = tuple(
        PointRecord(
            form,
            dims[i],
            label(dims[i], [dims[i]] + [dims[j] for j in index.neighbours(i)]),
        )
        for i, form in enumerate(forms)
    )
    verdicts = (
        verify_usc(records, index),
        verify_open(records, index),
        verify_dense(records, dense_index),
    )
    caveats = repeated_factor_caveats(space)
    isolated = sum(1 for i in range(len(forms)) if not index.neighbours(i))
    if len(forms) > 1 and isolated:
        caveats.append(
            f"{isolated} of {len(forms)} records have no other sample within "
            f"radius {rational_text(radius)}: their labels rest on no neighbour evidence"
        )
    return StratificationReport(
        space=space,
        records=records,
        analyses=analyses,
        index=index,
        radius=radius,
        epsilon=epsilon,
        verdicts=verdicts,
        caveats=tuple(caveats),
    )
