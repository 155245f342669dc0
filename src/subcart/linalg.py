"""Exact rational linear algebra: reduced row echelon form and the one
chart solver, for pivot-normalized null-space bases.

Matrices are sequences of equal-length rows of Fractions.  Everything here
is deterministic: pivots are chosen by the leftmost-column rule, breaking
ties by taking the topmost nonzero row, so identical inputs always produce
identical outputs.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Matrix = Sequence[Sequence[Fraction]]
Vector = tuple[Fraction, ...]


def rref(matrix: Matrix) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form via exact Gauss-Jordan elimination.

    Returns the reduced matrix and the list of pivot column indices
    (0-based, ascending).
    """
    rows = [list(map(Fraction, row)) for row in matrix]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots: list[int] = []
    row_at = 0
    for col in range(ncols):
        pivot_row = None
        for r in range(row_at, len(rows)):
            if rows[r][col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        rows[row_at], rows[pivot_row] = rows[pivot_row], rows[row_at]
        pivot = rows[row_at][col]
        rows[row_at] = [x / pivot for x in rows[row_at]]
        for r in range(len(rows)):
            if r != row_at and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[row_at])]
        pivots.append(col)
        row_at += 1
    return rows, pivots


def submatrix_columns(matrix: Matrix, columns: Sequence[int]) -> list[list[Fraction]]:
    return [[row[c] for c in columns] for row in matrix]


def solve_with_pivots(
    matrix: Matrix, ncols: int, pivot_columns: Sequence[int]
) -> list[Vector] | None:
    """Kernel basis normalized to the identity on the complement of a
    prescribed pivot-column set.

    Returns None when the pattern is not a chart of this matrix: a column
    set whose submatrix has full column rank equal to the matrix's rank.
    Exactly then the leftmost-pivot RREF with those columns moved to the
    front pivots on them, so one elimination both decides and solves.
    """
    free = [c for c in range(ncols) if c not in pivot_columns]
    reduced, pivots = rref(submatrix_columns(matrix, [*pivot_columns, *free]))
    if pivots != list(range(len(pivot_columns))):
        return None
    basis = []
    for k, f in enumerate(free):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for p, row in zip(pivot_columns, reduced):
            v[p] = -row[len(pivot_columns) + k]
        basis.append(tuple(v))
    return basis


def matrix_vector(matrix: Matrix, vector: Sequence[Fraction]) -> Vector:
    return tuple(
        sum((a * b for a, b in zip(row, vector)), Fraction(0)) for row in matrix
    )

