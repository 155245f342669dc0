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

The frozen pivots are valid at a point iff they are one of its charts,
and the frame's vectors there are the kernel that the point's
``tangent.PointAnalysis`` keeps for that chart.  By Cramer's rule each
frame component is a rational function whose denominator is the frozen
pivots' chart minor, so the frame is smooth exactly where
``FrameSection.pivot_valid_at`` holds; ``FrameSection.evaluate`` reads the
basis there.  Both take the point's analysis, so no point is analysed
twice.  ``common_pivot_exists`` is the one shared-chart test of two
analysed points: a Cauchy-Binet probe, then the chart sets.
``frame_at`` (the ``frame`` command) walks one anchor's targets: its
strict (``<`` radius) neighbours in the report's ``NeighbourIndex``, read
off the one ``near`` scan whose closed neighbours label the anchor, so
that at the default radius the cross-branch pairs of the coordinate
cross, exactly at the radius, are excluded.  It evaluates the frame at
each target where its pivots are valid and asks ``common_pivot_exists``
only where they are not.  ``verify_local_triviality`` walks every
regular record as an anchor in the same way, asking
``common_pivot_exists`` only where neither point's pivots are a chart of
the other, and checks each (target, chart) kernel once on integers.
Both read the report's space and analyses.
``verify`` is ``stratify`` with the local-triviality verdict appended.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Sequence

from .errors import FrameEvaluationError, SubcartError
from .linalg import Kernel, bareiss
from .poly import Point, divided, format_point, rational_text
from .space import SpacePresentation
from .stratify import StratificationReport, Verdict, label, stratify
from .tangent import PointAnalysis, analyse

Basis = tuple[tuple[Fraction, ...], ...]


@dataclass(frozen=True)
class FrameSection:
    """Pivot-normalized kernel frame anchored at a regular member point."""

    anchor: Point
    pivot_columns: tuple[int, ...]  # 0-based, ascending

    @cached_property
    def free_columns(self) -> tuple[int, ...]:
        """The columns off the pivots, 0-based and ascending."""
        return tuple(c for c in range(len(self.anchor)) if c not in self.pivot_columns)

    def pivot_valid_at(self, analysis: PointAnalysis) -> bool:
        """True iff the frozen pivot pattern is one of the analysed point's
        charts: rank is unchanged and the pivot submatrix has full rank."""
        return analysis.kernel(self.pivot_columns) is not None

    def evaluate(self, analysis: PointAnalysis) -> Basis:
        """Exact frame vectors at the analysed member point, identity on
        free columns: W / d of the analysis's kernel for the frozen pivots.

        Raises FrameEvaluationError when the rank or the frozen pivot
        pattern differs from the anchor: the point lies outside the
        rank-constant neighborhood this frame trivializes.
        """
        kernel = analysis.kernel(self.pivot_columns)
        if kernel is None:
            raise FrameEvaluationError(
                f"rank or pivot pattern at {format_point(analysis.point)} differs "
                f"from the anchor {format_point(self.anchor)} (pivot columns "
                f"{[c + 1 for c in self.pivot_columns]})"
            )
        vectors, d = kernel
        return tuple(divided(w, d) for w in vectors)

    def to_json(self, evaluations: Sequence[tuple[Point, Basis]]) -> dict:
        """The ``frame`` report: this frame and its (point, basis) evaluations."""
        return {
            "anchor": [rational_text(c) for c in self.anchor],
            "pivots": [c + 1 for c in self.pivot_columns],
            "free": [c + 1 for c in self.free_columns],
            "evaluations": [
                {
                    "point": [rational_text(c) for c in point],
                    "basis": [[rational_text(c) for c in v] for v in basis],
                }
                for point, basis in evaluations
            ],
        }


def common_pivot_exists(a: PointAnalysis, b: PointAnalysis) -> bool:
    """True iff some single pivot-column set is a chart of both analysed
    points.

    This is the pairwise sampled form of local triviality: the kernels at
    two nearby equal-rank points admit a shared normalization exactly when
    one frame chart covers both.  Across the branches of the coordinate
    cross no shared chart exists; across the pivot-chart boundary of the
    cone one always does.  By Cauchy-Binet det(A X B^T), for pivot rows A
    and B and X = diag(c + 2), is the sum of det(A_S) det(B_S)
    prod(c + 2 for c in S) over column sets S: if it is nonzero a chart is
    shared, else the chart sets are compared.
    """
    if a.rank != b.rank:
        return False
    weighted = [[(c + 2) * x for c, x in enumerate(row)] for row in a.pivot_rows]
    product = [[sum(map(mul, w, r)) for r in b.pivot_rows] for w in weighted]
    return len(bareiss(product)[1]) == a.rank or not a.charts.isdisjoint(b.charts)


# -- local triviality ----------------------------------------------------------


def frame_at(
    report: StratificationReport, point: Sequence[Fraction]
) -> tuple[FrameSection, list[tuple[Point, Basis]]]:
    """The frame anchored at a member point, sample point or not, and its
    exact bases at its targets (the regular records of its dimension
    strictly within the report's radius, its own sample excluded) where
    its frozen pivots are valid, as (point, basis) pairs.

    Pivot columns are the leftmost pivots that ``linalg.bareiss`` finds on
    the Jacobian's integer rows, those of its reduced row echelon form, so
    the construction is deterministic.  Only at a target where they are
    not valid are the points asked for a common chart.  Raises
    SubcartError when the point is labelled singular against the report's
    samples, by the same rule that labels the records (a sample at the
    point counts as evidence, as it does for the record), and
    FrameEvaluationError at the first target that shares no chart with
    the anchor: no single trivialization covers the pair.
    """
    anchor = analyse(report.space, point)
    near = report.index.near(anchor.form)
    if label(anchor.dim, [report.analyses[j].dim for j, _ in near]) == "singular":
        raise SubcartError(
            f"cannot anchor a frame at the singular point {format_point(anchor.point)}"
        )
    frame = FrameSection(anchor.point, anchor.pivots)
    evaluations = []
    for j, inside in near:
        target, other = report.records[j], report.analyses[j]
        if (
            not inside
            or target.form == anchor.form
            or target.label != "regular"
            or target.dim != anchor.dim
        ):
            continue
        if frame.pivot_valid_at(other):
            evaluations.append((target.point, frame.evaluate(other)))
        elif not common_pivot_exists(anchor, other):
            raise FrameEvaluationError(_no_common_chart(anchor, other))
    return frame, evaluations


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

    The walk takes each regular record as the anchor, in ascending order,
    and reads its targets (its regular strict neighbours of its dimension)
    in ascending order.  Each must share a chart with it: the anchor's
    pivots, the target's, or else one that ``common_pivot_exists`` finds.
    Then each target whose kernel at the anchor's pivots exists counts
    once, and is checked at its first read through that chart; the first
    failure is reported.  The checks run on the integer form (W, d) of the
    basis W / d: each w annihilates the integer Jacobian rows and is d at
    its own free column and 0 at the others, d positive.
    """
    records, analyses = report.records, report.analyses
    charts = [a.pivots if r.label == "regular" else None for r, a in zip(records, analyses)]
    checked, verified = 0, {}  # each chart's checked targets
    for i, chart in enumerate(charts):
        if chart is None:
            continue
        anchor, read = analyses[i], []
        for j in report.index.neighbours(i, strict=True):
            pivots = charts[j]
            if pivots is None or len(pivots) != len(chart):  # singular, or of another dimension
                continue
            if pivots == chart or analyses[j].kernel(chart) is not None:
                read.append(j)
            elif anchor.kernel(pivots) is None and not common_pivot_exists(anchor, analyses[j]):
                return Verdict("local_triviality", False, _no_common_chart(anchor, analyses[j]))
        checked += len(read)
        seen = verified.setdefault(chart, set())
        for j in read:
            if j not in seen:
                seen.add(j)
                other = analyses[j]
                detail = _kernel_failure(anchor, other, chart, other.kernel(chart))
                if detail:
                    return Verdict("local_triviality", False, detail)
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
                    v = format_point(divided(w, d))
                    return f"frame vector {v} fails annihilation at {format_point(other.point)}"
        free = [c for c in range(other.ambient_dim) if c not in chart]
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
