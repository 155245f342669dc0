"""Tangent spaces as derivation kernels, and the per-point analysis.

A derivation at a member point x is identified with its component vector
(v1..vn); it descends to the presented function ring exactly when it
annihilates every generator, i.e. when J(x) v = 0 for the generator
Jacobian J.  Only generator rows enter J: for any combination
h = sum(a_i g_i), dh at a member point equals sum(a_i(x) dg_i) because the
g_i vanish there, so the generator kernel already is the presented-ideal
kernel.

Kernel bases are pivot-normalized (leftmost pivots, deterministic), which
makes results canonical and feeds the frame construction directly.

``jacobian`` is the one Jacobian evaluator: the integer rows at a member
point's least integer form (a, D), row j being the gradient of equation j
times one positive integer (from ``SpacePresentation.cleared_gradients``,
compiled once per space).  It trusts its form and tests no membership.
Positive row scales keep the rank, the pivots, the charts, the
normalized bases and which vectors annihilate the rows.  ``analyse``
puts the point over its least common denominator D once
(``poly.clear_denominators``), tests membership on that integer form and
analyses the point from it (``analyse_member``, which ``stratify`` and
``classify`` call directly on the validated samples with the forms
that the space stores, ``SpacePresentation.cleared_samples``, so no
sample is cleared again); ``is_tangent`` tests membership the same way.
Rank, leftmost pivots and pivot rows come from one fraction-free
``linalg.bareiss`` elimination of the ``jacobian`` rows.
``PointAnalysis.kernel`` keeps each chart's pivot-normalized kernel on
integers (W, d, with W / d the basis), None for a column set that is no
chart.  It reads the own pivots' kernel off the pivot rows: Bareiss meets
only zeros at and below the current row in a non-pivot column, so
``linalg.solve_with_pivots``, which moves the chart's columns to the
front and decides and solves any other chart in one elimination, would
make the same row operations and return the same W and d.  The charts,
the column sets whose Jacobian submatrix has full rank, are decided by
the integer rank of each submatrix only on a read of ``charts``, which
``frames.common_pivot_exists`` makes when its Cauchy-Binet probe cannot
prove a shared chart.  An analysis holds the form (a, D) and builds its
``point`` a / D on the first read.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from . import linalg
from .errors import DimensionMismatchError, NonMemberError
from .poly import Cleared, Point, clear_denominators, divided, format_point
from .space import SpacePresentation, is_member_cleared

IntegerMatrix = tuple[tuple[int, ...], ...]


def jacobian(space: SpacePresentation, form: Cleared) -> IntegerMatrix:
    """The integer Jacobian rows at a member point of least integer form
    ``form`` (a, D), which it trusts: row j is the gradient of equation j
    at a / D times the positive integer S * D^d of its compiled row."""
    numerators, denominator = form
    return tuple(
        tuple(row.evaluate(numerators, denominator)) for row in space.cleared_gradients
    )


def _member(space: SpacePresentation, point: Sequence[Fraction]) -> Cleared:
    """The point's integer form, which decided its membership;
    NonMemberError when it is not on the space."""
    point = tuple(Fraction(x) for x in point)
    form = clear_denominators(point)
    if not is_member_cleared(space, *form):
        raise NonMemberError(
            f"point {format_point(point)} is not a member of {space.name!r}"
        )
    return form


@dataclass(frozen=True)
class PointAnalysis:
    """The linear algebra of one member point of least integer form (a, D):
    integer Jacobian rows, each the gradient times a positive integer,
    their leftmost pivots, and the pivot rows of their Bareiss elimination."""

    form: Cleared
    jacobian: IntegerMatrix
    pivots: tuple[int, ...]  # 0-based, ascending
    pivot_rows: IntegerMatrix = field(compare=False, repr=False)

    @cached_property
    def point(self) -> Point:  # a / D, built on its first read
        return divided(*self.form)

    @cached_property
    def charts(self) -> frozenset[tuple[int, ...]]:
        """Column sets of size ``rank`` whose Jacobian submatrix has full
        rank, ascending; decided by integer elimination, with no solve."""
        r = self.rank
        return frozenset(
            columns
            for columns in itertools.combinations(range(self.ambient_dim), r)
            if len(linalg.bareiss(linalg.submatrix_columns(self.jacobian, columns))[1]) == r
        )

    @cached_property
    def _kernels(self) -> dict[tuple[int, ...], linalg.Kernel | None]:
        """The solver's answers so far, by column set."""
        return {}

    def kernel(self, columns: tuple[int, ...]) -> linalg.Kernel | None:
        """The integer kernel (W, d) normalized to the identity off the
        chart ``columns``, W / d being the basis, derived on its first read
        and kept; None when ``columns`` is not a chart.  The own pivots'
        kernel is read off the pivot rows; other charts are solved."""
        if columns not in self._kernels:
            self._kernels[columns] = (
                linalg.reduced_kernel(self.pivot_rows, range(self.ambient_dim), columns)
                if columns == self.pivots
                else linalg.solve_with_pivots(self.jacobian, self.ambient_dim, columns)
            )
        return self._kernels[columns]

    @property
    def ambient_dim(self) -> int:
        return len(self.form[0])

    @property
    def rank(self) -> int:
        return len(self.pivots)

    @property
    def dim(self) -> int:
        """Structural dimension: ambient_dim - rank of the Jacobian."""
        return self.ambient_dim - self.rank


def analyse(space: SpacePresentation, point: Sequence[Fraction]) -> PointAnalysis:
    """The analysis of a point, after testing that it is a member."""
    return analyse_member(space, _member(space, point))


def analyse_member(space: SpacePresentation, cleared: Cleared) -> PointAnalysis:
    """The integer Jacobian rows at a point known to be a member (such as
    a validated sample), given by its least integer form ``cleared`` (the
    ``clear_denominators`` of the point), and their Bareiss pivots."""
    J = jacobian(space, cleared)
    reduced, pivots = linalg.bareiss(J)
    rows = tuple(map(tuple, reduced[: len(pivots)]))
    return PointAnalysis(cleared, J, tuple(pivots), rows)


def is_tangent(
    space: SpacePresentation, point: Sequence[Fraction], components: Sequence[Fraction]
) -> bool:
    """True iff the component vector annihilates every generator at the
    point, which must be a member."""
    J = jacobian(space, _member(space, point))
    if len(components) != space.ambient_dim:
        raise DimensionMismatchError(
            f"components have length {len(components)}, expected {space.ambient_dim}"
        )
    return all(x == 0 for x in linalg.matrix_vector(J, components))
