"""Smooth local frames on rank-constant neighborhoods and the local
triviality verifier.

A frame anchored at a regular point freezes the leftmost pivot columns
of the Jacobian there, which ``linalg.bareiss`` finds on its integer rows
(the pivots of its reduced row echelon form); its free columns are the
others.  Its vectors at another member point are the kernel basis of the
same pivot subsystem, whose free-column submatrix is the identity:
composing the free coordinate differentials with the frame sections
gives exactly the Kronecker delta pattern.  A
rank change or pivot-pattern breakdown during evaluation is an error,
never a silent re-pivot: re-pivoting would destroy smoothness of the
sections and mask the rank boundary that local triviality is local with
respect to.

The frozen pivots are valid at a point iff they are one of its charts
(``tangent.PointAnalysis``), and the frame's vectors there are the kernel
the analysis keeps for that chart.  ``FrameSection.evaluate``,
``pivot_valid_at`` and ``anchored_frame`` all read it from one analysis.
``anchored_frame`` (the ``frame`` command) walks one anchor's targets:
its strict (``<`` radius) neighbours in the report's ``NeighbourIndex``,
so that at the default radius the cross-branch pairs of the coordinate
cross, exactly at the radius, are excluded.  It reads each target's basis
at the anchor's pivots and asks ``shares_chart`` only where that is None.
``verify_local_triviality`` asks the same questions target by target,
grouping each target's anchors by their pivots: one kernel read and one
integer check per group, ``shares_chart`` only where neither point's
pivots are a chart of the other, and of several failures the one that
the anchor-by-anchor walk meets first.  Both read the report's space.
``verify`` is ``stratify`` with the local-triviality verdict appended.

The bump function is the single non-rational evaluation in the package
(the standard exp(-1/t) smooth step on the sup-norm radial variable) and
is quarantined here; gluing multiplies by the exact dyadic value of the
computed float, so glued sections remain exact rationals, equal to the
raw frame on the inner plateau and identically zero outside the outer
radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Sequence

from .errors import DimensionMismatchError, FrameEvaluationError, SubcartError
from .linalg import Kernel
from .poly import Point, format_point
from .space import Sampler, SpacePresentation
from .stratify import StratificationReport, Verdict, label, stratify, sup_distance
from .tangent import Basis, PointAnalysis, analyse


@dataclass(frozen=True)
class FrameSection:
    """Pivot-normalized kernel frame anchored at a regular member point."""

    space: SpacePresentation
    anchor: Point
    pivot_columns: tuple[int, ...]  # 0-based, ascending

    @cached_property
    def free_columns(self) -> tuple[int, ...]:
        """The columns off the pivots, 0-based and ascending."""
        return tuple(
            c for c in range(self.space.ambient_dim) if c not in self.pivot_columns
        )

    @property
    def dimension(self) -> int:
        return len(self.free_columns)

    def pivot_valid_at(self, point: Sequence[Fraction]) -> bool:
        """True iff the frozen pivot pattern is one of the point's charts:
        rank is unchanged and the pivot submatrix has full rank.  One
        elimination decides it."""
        return analyse(self.space, point).kernel(self.pivot_columns) is not None

    def evaluate(self, point: Sequence[Fraction]) -> Basis:
        """Exact frame vectors at a member point, identity on free columns:
        the point's analysis's basis for the frozen pivots.

        Raises FrameEvaluationError when the rank or the frozen pivot
        pattern differs from the anchor: the point lies outside the
        rank-constant neighborhood this frame trivializes.
        """
        basis = analyse(self.space, point).basis(self.pivot_columns)
        if basis is None:
            raise FrameEvaluationError(
                f"rank or pivot pattern at {format_point(point)} differs from the "
                f"anchor {format_point(self.anchor)} (pivot columns "
                f"{[c + 1 for c in self.pivot_columns]})"
            )
        return basis

    def to_json(self, evaluations: Sequence[tuple[Point, Basis]]) -> dict:
        """The ``frame`` report: this frame and its (point, basis) evaluations."""
        return {
            "anchor": [str(c) for c in self.anchor],
            "pivots": [c + 1 for c in self.pivot_columns],
            "free": [c + 1 for c in self.free_columns],
            "evaluations": [
                {
                    "point": [str(c) for c in point],
                    "basis": [[str(c) for c in v] for v in basis],
                }
                for point, basis in evaluations
            ],
        }


def frame_at(space: SpacePresentation, point: Sequence[Fraction]) -> FrameSection:
    """Build the frame at a member point (caller asserts regularity).

    Pivot columns are the leftmost pivots that ``linalg.bareiss`` finds on
    the Jacobian's integer rows, those of its reduced row echelon form, so
    the construction is deterministic.
    """
    a = analyse(space, point)
    return FrameSection(space, a.point, a.pivots)


def common_pivot_exists(
    space: SpacePresentation, a: Sequence[Fraction], b: Sequence[Fraction]
) -> bool:
    """True iff some single pivot-column set is valid at both points.

    This is the pairwise sampled form of local triviality: the kernels at
    two nearby equal-rank points admit a shared normalization exactly when
    one frame chart covers both.  Across the branches of the coordinate
    cross no shared chart exists; across the pivot-chart boundary of the
    cone one always does.
    """
    return analyse(space, a).shares_chart(analyse(space, b))


# -- bump functions -----------------------------------------------------------


@dataclass(frozen=True)
class BumpFunction:
    """Smooth cutoff: 1 on the closed inner sup-norm ball, 0 outside the
    open outer ball, strictly between on the shell."""

    center: Point
    r_inner: Fraction
    r_outer: Fraction

    def __post_init__(self):
        if not self.r_inner < self.r_outer:
            raise ValueError("bump radii must satisfy r_inner < r_outer")
        if self.r_inner < 0:
            raise ValueError("bump radii must be nonnegative")


def _distance(b: BumpFunction, point: Sequence[Fraction]) -> Fraction:
    """Sup-norm distance of a point of the center's length from the center."""
    if len(point) != len(b.center):
        raise DimensionMismatchError(
            f"point has length {len(point)}, expected {len(b.center)}"
        )
    return sup_distance(point, b.center)


def _smooth_step(t: float) -> float:
    # s(t) = phi(t) / (phi(t) + phi(1-t)) with phi(t) = exp(-1/t) for t > 0
    def phi(u: float) -> float:
        return math.exp(-1.0 / u) if u > 0.0 else 0.0

    return phi(t) / (phi(t) + phi(1.0 - t))


def bump(b: BumpFunction, point: Sequence[Fraction]) -> float:
    """Approximate real bump value; every other operation stays exact.

    Exactly 1.0 on the plateau and exactly 0.0 at or beyond the outer
    radius, since those branches never touch the transcendental step.
    """
    distance = _distance(b, point)
    if distance <= b.r_inner:
        return 1.0
    if distance >= b.r_outer:
        return 0.0
    t = (distance - b.r_inner) / (b.r_outer - b.r_inner)
    return _smooth_step(1.0 - float(t))


def glued_section(
    frame: FrameSection, b: BumpFunction, point: Sequence[Fraction]
) -> Basis:
    """Frame vectors cut off by the bump: exact zero vectors at or beyond
    the outer radius, the raw frame exactly on the plateau, and the frame
    scaled by the exact dyadic value of the bump on the shell.

    An evaluation failure strictly inside the outer radius propagates: it
    means the bump radii cross the frame's rank boundary.  A point not of
    the center's length raises DimensionMismatchError, as in ``bump``.
    """
    n = frame.space.ambient_dim
    if _distance(b, point) >= b.r_outer:
        zero = tuple(Fraction(0) for _ in range(n))
        return tuple(zero for _ in range(frame.dimension))
    vectors = frame.evaluate(point)
    factor = Fraction(bump(b, point))  # floats are dyadic: exact conversion
    return tuple(tuple(c * factor for c in v) for v in vectors)


# -- smoothness ----------------------------------------------------------------


def frame_smoothness_check(
    frame: FrameSection, sampler: Sampler, params: Sequence[Fraction], step: Fraction
) -> Verdict:
    """Certify smoothness of the frame components along every sampler
    parameter direction by finite-difference convergence order.

    For each component, the symmetric second difference at steps h and h/2
    must either vanish exactly at both (polynomial of degree <= 1 along
    the probe: exactly smooth) or contract by a factor in [7/2, 9/2],
    the signature of order-h^2 convergence of a smooth non-linear
    function.  All probe evaluations are exact rationals, the unshifted
    midpoint's once per call; only the final ratio meets the window.  A
    zero step, whose differences all vanish, is refused with ValueError.
    """
    if step == 0:
        raise ValueError("the smoothness step must be nonzero")
    params = tuple(Fraction(x) for x in params)
    if len(params) != sampler.param_dim:
        raise DimensionMismatchError(
            f"expected {sampler.param_dim} parameters, got {len(params)}"
        )
    lo, hi = Fraction(7, 2), Fraction(9, 2)

    def components_at(shift: Sequence[Fraction]) -> list[Fraction]:
        point = sampler.image([p + s for p, s in zip(params, shift)])
        return [c for vector in frame.evaluate(point) for c in vector]

    mid = components_at([Fraction(0)] * sampler.param_dim)
    for direction in range(sampler.param_dim):
        def second_difference(h: Fraction) -> list[Fraction]:
            offset = [Fraction(0)] * sampler.param_dim
            offset[direction] = h
            plus = components_at(offset)
            minus = components_at([-x for x in offset])
            return [a - 2 * m + b for a, m, b in zip(plus, mid, minus)]

        coarse = second_difference(Fraction(step))
        fine = second_difference(Fraction(step) / 2)
        for index, (a, b) in enumerate(zip(coarse, fine)):
            if a == 0 and b == 0:
                continue
            if b == 0 or not lo <= abs(a / b) <= hi:
                ratio = "undefined" if b == 0 else str(abs(a / b))
                return Verdict(
                    "smoothness",
                    False,
                    f"component {index} along parameter {direction + 1}: "
                    f"second-difference ratio {ratio} outside [{lo}, {hi}]",
                )
    return Verdict("smoothness", True)


# -- local triviality ----------------------------------------------------------


def anchored_frame(
    report: StratificationReport, point: Sequence[Fraction]
) -> tuple[FrameSection, list[tuple[Point, Basis]]]:
    """The frame anchored at a member point, sample point or not, and its
    exact bases at its targets (the regular records of its dimension
    strictly within the report's radius, its own sample excluded) where
    its frozen pivots are a chart, as (point, basis) pairs.

    Only at a target with no such basis are the chart sets compared.
    Raises SubcartError when the point is labelled singular against the
    report's samples, by the same rule that labels the records (a sample
    at the point counts as evidence, as it does for the record), and
    FrameEvaluationError at the first target that shares no chart with
    the anchor: no single trivialization covers the pair.
    """
    anchor = analyse(report.space, point)
    near = report.index.near(anchor.point)
    if label(anchor.dim, [report.analyses[j].dim for j in near]) == "singular":
        raise SubcartError(
            f"cannot anchor a frame at the singular point {format_point(anchor.point)}"
        )
    evaluations = []
    for j in report.index.near(anchor.point, strict=True):
        target, other = report.records[j], report.analyses[j]
        if target.point == anchor.point or target.label != "regular" or target.dim != anchor.dim:
            continue
        basis = other.basis(anchor.pivots)
        if basis is not None:
            evaluations.append((target.point, basis))
        elif not anchor.shares_chart(other):
            raise FrameEvaluationError(_no_common_chart(anchor, other))
    return FrameSection(report.space, anchor.point, anchor.pivots), evaluations


def verify_local_triviality(report: StratificationReport) -> Verdict:
    """Sampled local triviality of the tangent bundle over the regular part.

    For every regular record: every same-stratum neighbor must share at
    least one pivot chart with it, the pairwise witness that one
    trivialization covers both points; and wherever the anchored frame's
    frozen pivots are a chart of the neighbor, the exact evaluation must
    return dimension-many vectors that annihilate the neighbor's Jacobian
    with the identity pattern on free columns (checked, not assumed).  The
    coordinate-cross branches fail the chart check when sampled across the
    removed origin.

    The walk goes by target j: its anchors (its regular strict neighbours
    of its dimension) are grouped by pivots, and j's kernel for a group's
    chart is checked once and counts once per anchor.  Where it is None,
    an anchor whose kernel at j's pivots (read anyway, with the anchor as
    target) is None too is asked for a shared chart.  Of several failures
    the least by (anchor, phase, target) is reported, phase 0 a missing
    shared chart and phase 1 a failed check, owned by the group's least
    anchor: the failure an anchor-by-anchor walk meets first.  The checks
    run on the integer form (W, d) of the basis W / d: each w annihilates
    the integer Jacobian rows and is d at its own free column and 0 at
    the others, d positive.
    """
    analyses = report.analyses
    charts = [
        a.pivots if r.label == "regular" else None
        for r, a in zip(report.records, analyses)
    ]
    checked = 0
    failure = (len(charts), 0, 0, "")  # the least (anchor, phase, target, detail)
    for j, own in enumerate(charts):
        if own is None:
            continue
        other = analyses[j]
        near = report.index.neighbours(j, strict=True)
        read = list(map(charts.__getitem__, near))
        for chart in dict.fromkeys(read):  # by least anchor, ascending
            first = near[read.index(chart)]
            if first > failure[0]:
                break
            if chart is None or len(chart) != len(own):
                continue
            kernel = other.kernel(chart)
            if kernel is not None:
                checked += read.count(chart)
                detail = _kernel_failure(analyses[first], other, chart, kernel)
                if detail:
                    failure = min(failure, (first, 1, j, detail))
                continue
            for i, c in zip(near, read):
                anchor = analyses[i]  # its kernel at j's pivots is read anyway, i as target
                if c == chart and anchor.kernel(own) is None and not anchor.shares_chart(other):
                    failure = min(failure, (i, 0, j, _no_common_chart(anchor, other)))
                    break
    if failure[3]:
        return Verdict("local_triviality", False, failure[3])
    return Verdict("local_triviality", True, f"{checked} frame evaluations verified exactly")


def _kernel_failure(
    anchor: PointAnalysis, other: PointAnalysis, chart: tuple[int, ...], kernel: Kernel
) -> str | None:
    """Why the kernel of ``other`` for the anchor's chart is no frame
    evaluation there, or None when it is one."""
    vectors, d = kernel
    if len(vectors) != anchor.dim:
        return (
            f"frame anchored at {format_point(anchor.point)} returned "
            f"{len(vectors)} vectors at {format_point(other.point)}, "
            f"expected {anchor.dim}"
        )
    if d > 0:  # else W / d is no basis
        for w in vectors:
            for row in other.jacobian:
                if sum(map(mul, row, w)):
                    v = tuple(Fraction(x, d) for x in w)
                    return f"frame vector {v} fails annihilation at {format_point(other.point)}"
        free = [c for c in range(len(other.point)) if c not in chart]
        for l, w in enumerate(vectors):
            if [w[f] for f in free] != [d * (k == l) for k in range(len(free))]:
                break
        else:
            return None
    return f"free-column submatrix is not the identity at {format_point(other.point)}"


def _no_common_chart(anchor: PointAnalysis, other: PointAnalysis) -> str:
    return (
        f"no common pivot chart covers {format_point(anchor.point)} and "
        f"{format_point(other.point)}: the bundle is not trivializable over this neighborhood"
    )


def verify(
    space: SpacePresentation, radius: Fraction | None = None, epsilon: Fraction | None = None
) -> StratificationReport:
    """``stratify`` with the local-triviality verdict appended."""
    report = stratify(space, radius, epsilon)
    return replace(report, verdicts=report.verdicts + (verify_local_triviality(report),))
