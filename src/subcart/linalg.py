"""Exact linear algebra: fraction-free elimination, the one chart solver
for pivot-normalized null-space bases, and the rational reduced row
echelon form.

``bareiss`` eliminates an integer matrix without fractions (Bareiss 1968,
*Math. Comp.* 22): each division is exact, so the entries stay integers.
It gives the rank and the pivots of a point's integer Jacobian rows and
decides its charts.  ``solve_with_pivots`` takes integer rows, such as
a point's integer Jacobian rows, and makes one ``bareiss`` elimination
with the chart's columns in front.  That elimination decides whether the
columns are a chart, and ``reduced_kernel`` reads the chart's kernel off
it on integers: vectors W and one positive integer d, W / d being the
pivot-normalized basis, because every pivot row of the reduced matrix
carries the same last pivot; it makes no Fraction.  It reads a point's
own leftmost pivots' kernel off the point's first elimination just as
well.  ``rref`` is the rational Gauss-Jordan form.

Matrices are sequences of equal-length rows.  Everything here is
deterministic: pivots are chosen by the leftmost-column rule, breaking
ties by taking the topmost nonzero row, so identical inputs always produce
identical outputs.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Matrix = Sequence[Sequence[Fraction | int]]
Kernel = tuple[tuple[tuple[int, ...], ...], int]  # (W, d): the basis W / d


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


def bareiss(matrix: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan elimination of an integer matrix, and
    its pivot columns (0-based, ascending; chosen as in ``rref``).

    After k pivots the pivot rows hold k-by-k minors of the input and the
    other rows (k+1)-by-(k+1) minors (Sylvester's identity), so each
    division by the previous pivot is exact.  At the end every pivot row
    holds the last pivot d at its own pivot column and 0 at the others: it
    is d times the matching RREF row.
    """
    rows = [list(row) for row in matrix]
    pivots: list[int] = []
    previous = 1
    for col in range(len(rows[0]) if rows else 0):
        top = len(pivots)
        for r in range(top, len(rows)):
            if rows[r][col]:
                break
        else:
            continue
        rows[top], rows[r] = rows[r], rows[top]
        pivot_line = rows[top]
        pivot = pivot_line[col]
        for r, row in enumerate(rows):
            if r != top:
                factor = row[col]
                rows[r] = [
                    (pivot * a - factor * b) // previous for a, b in zip(row, pivot_line)
                ]
        previous = pivot
        pivots.append(col)
        if len(pivots) == len(rows):
            break
    return rows, pivots


def submatrix_columns(
    matrix: Matrix, columns: Sequence[int]
) -> list[list[Fraction | int]]:
    return [[row[c] for c in columns] for row in matrix]


def solve_with_pivots(
    matrix: Sequence[Sequence[int]], ncols: int, pivot_columns: Sequence[int]
) -> Kernel | None:
    """Integer kernel basis of an integer matrix, normalized to the
    identity on the complement of a prescribed pivot-column set: vectors
    W and a positive integer d such that W / d is the basis, each w being
    d at its own free column and 0 at the other free columns.

    Returns None when the pattern is not a chart of this matrix: a column
    set whose submatrix has full column rank equal to the matrix's rank.
    Exactly then the leftmost-pivot elimination with those columns moved
    to the front pivots on them, so one elimination both decides and
    solves.
    """
    free = [c for c in range(ncols) if c not in pivot_columns]
    columns = [*pivot_columns, *free]
    reduced, pivots = bareiss(submatrix_columns(matrix, columns))
    if pivots != list(range(len(pivot_columns))):
        return None
    return reduced_kernel(reduced, columns, pivot_columns)


def reduced_kernel(
    reduced: Sequence[Sequence[int]], columns: Sequence[int], pivot_columns: Sequence[int]
) -> Kernel:
    """The kernel (W, d) normalized to the identity off ``pivot_columns``,
    read from ``bareiss`` rows that pivot on them in order: position k of
    a row holds column ``columns[k]`` of the matrix.  Pivot row i is d
    times the RREF row of pivot i, d the last pivot."""
    position = {c: k for k, c in enumerate(columns)}
    rank = len(pivot_columns)
    d = reduced[rank - 1][position[pivot_columns[-1]]] if rank else 1
    sign = -1 if d < 0 else 1  # negating W and d keeps W / d
    basis = []
    for f in range(len(columns)):
        if f in pivot_columns:
            continue
        w = [0] * len(columns)
        w[f] = sign * d
        for p, row in zip(pivot_columns, reduced):
            w[p] = -sign * row[position[f]]
        basis.append(tuple(w))
    return tuple(basis), sign * d


def matrix_vector(
    matrix: Matrix, vector: Sequence[Fraction | int]
) -> tuple[Fraction | int, ...]:
    return tuple(sum(a * b for a, b in zip(row, vector)) for row in matrix)

