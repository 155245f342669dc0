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
One walk (``_walk``) answers for an anchor, and both the ``frame``
command and the verdict take it.  Its targets are the regular records of
the anchor's dimension among its strict (``<`` radius) neighbours in the
report's ``NeighbourIndex``, so that at the default radius the
cross-branch pairs of the coordinate cross, exactly at the radius, are
excluded.  Each target must share a chart with the anchor, and
``common_pivot_exists`` is asked only where neither point's pivots are a
chart of the other.  The walk reads the targets where the anchor's
pivots are valid and checks their kernels on integers.  ``frame_at``
walks one anchor, whose neighbours it reads off the one ``near`` scan
that labels it, and evaluates the frame at the targets it read, so every
basis it returns is checked.  ``verify_local_triviality`` walks every
regular record as an anchor, and checks each (target, chart) kernel once.
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
        free columns: W / d of the analysis's kernel for the frozen pivots,
        read once ``pivot_valid_at`` holds; ``frame_at`` checks it first.

        Raises FrameEvaluationError when the rank or the frozen pivot
        pattern differs from the anchor: the point lies outside the
        rank-constant neighborhood this frame trivializes.
        """
        if not self.pivot_valid_at(analysis):
            raise FrameEvaluationError(
                f"rank or pivot pattern at {format_point(analysis.point)} differs "
                f"from the anchor {format_point(self.anchor)} (pivot columns "
                f"{[c + 1 for c in self.pivot_columns]})"
            )
        vectors, d = analysis.kernel(self.pivot_columns)
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
    exact bases at the targets that its frozen pivots read, as (point,
    basis) pairs: the targets among the regular records strictly within
    the report's radius, its own sample excluded, by the walk that local
    triviality takes, so each basis is checked before it is returned.

    Pivot columns are the leftmost pivots that ``linalg.bareiss`` finds on
    the Jacobian's integer rows, those of its reduced row echelon form, so
    the construction is deterministic.  Raises SubcartError when the point
    is labelled singular against the report's samples, by the same rule
    that labels the records (a sample at the point counts as evidence, as
    it does for the record), and FrameEvaluationError with the detail
    that the verdict would report: at the first target that shares no
    chart with the anchor (no single trivialization covers the pair), or
    else at the first basis that fails its check.
    """
    anchor = analyse(report.space, point)
    near = report.index.near(anchor.form)
    if label(anchor.dim, [report.analyses[j].dim for j, _ in near]) == "singular":
        raise SubcartError(
            f"cannot anchor a frame at the singular point {format_point(anchor.point)}"
        )
    frame = FrameSection(anchor.point, anchor.pivots)
    candidates = [j for j, inside in near if inside and report.records[j].form != anchor.form]
    targets = _walk(report.analyses, _charts(report), anchor, candidates, set())
    return frame, [(report.records[j].point, frame.evaluate(report.analyses[j])) for j in targets]


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

    Each regular record is the anchor of one walk, in ascending order, on
    its strict neighbours, which ``frame_at`` takes too.  Each target
    whose kernel at the anchor's pivots exists counts once per read, and
    is checked at its first read through that chart: one set of checked
    targets is kept per chart.  The first failure is reported.
    """
    analyses, charts = report.analyses, _charts(report)
    checked, verified = 0, {}  # each chart's checked targets
    try:
        for i, chart in enumerate(charts):
            if chart is not None:
                neighbours = report.index.neighbours(i, strict=True)
                seen = verified.setdefault(chart, set())
                checked += len(_walk(analyses, charts, analyses[i], neighbours, seen))
    except FrameEvaluationError as exc:
        return Verdict("local_triviality", False, str(exc))
    return Verdict("local_triviality", True, f"{checked} frame evaluations verified exactly")


def _charts(report: StratificationReport) -> list[tuple[int, ...] | None]:
    """Each record's pivots if it is regular, else None: the list a walk
    reads its targets' charts from."""
    records, analyses = report.records, report.analyses
    return [a.pivots if r.label == "regular" else None for r, a in zip(records, analyses)]


def _walk(
    analyses: Sequence[PointAnalysis],
    charts: Sequence[tuple[int, ...] | None],
    anchor: PointAnalysis,
    candidates: Sequence[int],
    seen: set[int],
) -> list[int]:
    """The targets among ``candidates`` (the regular records of the
    anchor's dimension) where the anchor's pivots are valid, in order.

    Every target must share a chart with the anchor: the anchor's pivots,
    the target's, or else one that ``common_pivot_exists`` finds.  Then
    each target read and not yet in ``seen`` joins it and is checked on
    the integer form (W, d) of its basis W / d: each w annihilates the
    integer Jacobian rows and is d at its own free column and 0 at the
    others, d positive.  Raises FrameEvaluationError at the first target
    that shares no chart, else at the first check that fails.
    """
    chart, read = anchor.pivots, []
    for j in candidates:
        pivots, other = charts[j], analyses[j]
        if pivots is None or len(pivots) != len(chart):  # singular, or of another dimension
            continue
        if pivots == chart or other.kernel(chart) is not None:
            read.append(j)
        elif anchor.kernel(pivots) is None and not common_pivot_exists(anchor, other):
            raise FrameEvaluationError(
                f"no common pivot chart covers {format_point(anchor.point)} and "
                f"{format_point(other.point)}: the bundle is not trivializable over "
                "this neighborhood"
            )
    for j in read:
        if j not in seen:
            seen.add(j)
            detail = _kernel_failure(anchor, analyses[j], chart, analyses[j].kernel(chart))
            if detail:
                raise FrameEvaluationError(detail)
    return read


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


def verify(
    space: SpacePresentation, radius: Fraction | None = None, epsilon: Fraction | None = None
) -> StratificationReport:
    """``stratify`` with the local-triviality verdict appended."""
    report = stratify(space, radius, epsilon)
    return replace(report, verdicts=report.verdicts + (verify_local_triviality(report),))
