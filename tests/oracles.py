"""Independent oracles used to cross-check the package.

Deliberately written against plain data structures with naive algorithms
(Laplace determinants, exhaustive minor enumeration, rational
Gauss-Jordan elimination, dict-based term bookkeeping, all-pairs
distances) so they share no code path with the implementations they
check.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, product


def laplace_det(m) -> Fraction:
    """Determinant by first-row Laplace expansion."""
    size = len(m)
    if size == 1:
        return Fraction(m[0][0])
    total = Fraction(0)
    for j in range(size):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * Fraction(m[0][j]) * laplace_det(minor)
    return total


def minor_rank(m) -> int:
    """Rank by exhaustive enumeration of square minors."""
    m = [list(row) for row in m]
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    for size in range(min(nrows, ncols), 0, -1):
        for rows in combinations(range(nrows), size):
            for cols in combinations(range(ncols), size):
                if laplace_det([[m[r][c] for c in cols] for r in rows]) != 0:
                    return size
    return 0


def gauss_jordan(matrix) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form by rational Gauss-Jordan elimination, and
    its pivot columns (0-based, ascending): each pivot row is divided by
    its pivot and the pivot's column cleared in every other row."""
    rows = [list(map(Fraction, row)) for row in matrix]
    pivots: list[int] = []
    for col in range(len(rows[0]) if rows else 0):
        top = len(pivots)
        below = [r for r in range(top, len(rows)) if rows[r][col] != 0]
        if not below:
            continue
        rows[top], rows[below[0]] = rows[below[0]], rows[top]
        pivot = rows[top][col]
        rows[top] = [x / pivot for x in rows[top]]
        for r in range(len(rows)):
            if r != top and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[top])]
        pivots.append(col)
    return rows, pivots


def divided(vectors, d) -> tuple:
    """The Fraction vectors W / d of integer vectors W and a divisor d."""
    return tuple(tuple(Fraction(x, d) for x in w) for w in vectors)


# naive polynomials: dict from exponent tuple to Fraction, zeros kept out


def as_fractions(a: dict) -> dict:
    """The term map with every coefficient a Fraction, zeros dropped."""
    return {e: Fraction(c) for e, c in a.items() if c != 0}


def naive_scale(a: dict, factor) -> dict:
    return {e: c * Fraction(factor) for e, c in a.items() if c * factor != 0}


def naive_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + c
    return {e: c for e, c in out.items() if c != 0}


def naive_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, Fraction(0)) + ca * cb
    return {e: c for e, c in out.items() if c != 0}


def naive_pow(a: dict, n: int, dim: int) -> dict:
    out = {(0,) * dim: Fraction(1)}
    for _ in range(n):
        out = naive_mul(out, a)
    return out


def naive_eval(a: dict, point) -> Fraction:
    total = Fraction(0)
    for e, c in a.items():
        term = Fraction(c)
        for exp, value in zip(e, point):
            term *= Fraction(value) ** exp
        total += term
    return total


def naive_image(sampler, params) -> tuple:
    """A sampler's image at the parameter point: each numerator over the
    denominator, each evaluated by ``naive_eval`` on its term map."""
    den = naive_eval(sampler.denominator.terms, params)
    return tuple(naive_eval(n.terms, params) / den for n in sampler.numerators)


def naive_violations(space) -> list:
    """The samples of ``space`` (each cleared form a, D read as the
    Fractions a / D) at which an equation, by ``naive_eval`` on its term
    map, is nonzero, or an inequality's value is negative, or zero where
    it is strict."""

    def holds(point) -> bool:
        if any(naive_eval(g.terms, point) != 0 for g in space.equations):
            return False
        values = [(naive_eval(h.terms, point), strict) for h, strict in space.inequalities]
        return all(value > 0 or value == 0 and not strict for value, strict in values)

    points = (tuple(Fraction(x, d) for x in a) for a, d in space.cleared_samples)
    return [point for point in points if not holds(point)]


def naive_partial(a: dict, index0: int) -> dict:
    out: dict = {}
    for e, c in a.items():
        if e[index0] == 0:
            continue
        lowered = e[:index0] + (e[index0] - 1,) + e[index0 + 1 :]
        out[lowered] = out.get(lowered, Fraction(0)) + c * e[index0]
    return {e: c for e, c in out.items() if c != 0}


def naive_jacobian(space, point) -> list[list[Fraction]]:
    """The rational generator Jacobian at a point: row j holds the partials
    of equation j, each differentiated and evaluated term by term."""
    return [
        [naive_eval(naive_partial(g.terms, i), point) for i in range(space.ambient_dim)]
        for g in space.equations
    ]


def naive_compose_cleared(equation: dict, numerators, denominator: dict, dim: int) -> dict:
    """den^d * g(nums / den) expanded term by term: each term c * x^e of g
    (of total degree d) becomes c * prod(num_i^e_i) * den^(d - |e|)."""
    d = max((sum(e) for e in equation), default=0)
    out: dict = {}
    for e, c in equation.items():
        term = {(0,) * dim: Fraction(c)}
        for num, k in zip(numerators, e):
            term = naive_mul(term, naive_pow(num, k, dim))
        out = naive_add(out, naive_mul(term, naive_pow(denominator, d - sum(e), dim)))
    return out


def grid_values(lo: Fraction, hi: Fraction, resolution: int) -> list[Fraction]:
    if resolution == 1:
        return [Fraction(lo)]
    step = (Fraction(hi) - Fraction(lo)) / (resolution - 1)
    return [Fraction(lo) + step * k for k in range(resolution)]


def grid_points(box, resolution: int):
    axes = [grid_values(lo, hi, resolution) for lo, hi in box]
    return [tuple(p) for p in product(*axes)]


# naive neighbours: every pair compared in exact rationals


def integer_points(points, *extra) -> tuple[int, list[tuple[int, ...]]]:
    """The lcm of the denominators of the points and of ``extra``, and the
    points multiplied by it: integer tuples whose sup-norm distances are
    the rational ones times that scale."""
    scale = math.lcm(
        *(c.denominator for p in points for c in p), *(f.denominator for f in extra)
    )
    return scale, [
        tuple(c.numerator * (scale // c.denominator) for c in p) for p in points
    ]



def naive_sup(p, q) -> Fraction:
    return max(abs(Fraction(a) - Fraction(b)) for a, b in zip(p, q))


def naive_neighbours(points, radius, strict=False) -> list[list[int]]:
    """For each point, the ascending indices of the other points within
    the radius (closer than it when strict)."""
    out = []
    for i, p in enumerate(points):
        near = []
        for j, q in enumerate(points):
            d = naive_sup(p, q)
            if j != i and (d < radius if strict else d <= radius):
                near.append(j)
        out.append(near)
    return out


def naive_max_nearest_gap(points) -> Fraction:
    if len(points) < 2:
        return Fraction(0)
    return max(
        min(naive_sup(p, q) for j, q in enumerate(points) if j != i)
        for i, p in enumerate(points)
    )


# the local-triviality verdict of an anchor-by-anchor walk


def per_anchor_triviality(report):
    """The local-triviality ``Verdict`` of a walk that takes each regular
    record in turn as the anchor and reads its regular strict neighbours
    of its dimension in ascending order: the whole neighbourhood must
    share a chart with the anchor before any kernel at the anchor's
    pivots is checked, and each (target, chart) kernel is checked at its
    first read only.  Kernels and shared charts come from the report's
    analyses, so a corrupted stored kernel reaches this walk too."""
    from subcart.frames import common_pivot_exists
    from subcart.poly import format_point
    from subcart.stratify import Verdict

    def failed(detail):
        return Verdict("local_triviality", False, detail)

    records, analyses = report.records, report.analyses
    checked, verified = 0, set()
    for i, (record, anchor) in enumerate(zip(records, analyses)):
        if record.label != "regular":
            continue
        chart = anchor.pivots
        read = []
        for j in report.index.neighbours(i, strict=True):
            if records[j].label != "regular" or records[j].dim != record.dim:
                continue
            other = analyses[j]
            kernel = other.kernel(chart)
            if kernel is not None:
                read.append((j, kernel))
            elif not common_pivot_exists(anchor, other):
                return failed(
                    f"no common pivot chart covers {format_point(anchor.point)} "
                    f"and {format_point(other.point)}: the bundle is not "
                    f"trivializable over this neighborhood"
                )
        free = [c for c in range(len(record.point)) if c not in chart]
        for j, (vectors, d) in read:
            checked += 1
            if (j, chart) in verified:
                continue
            verified.add((j, chart))
            other = analyses[j]
            at = format_point(other.point)
            if len(vectors) != record.dim:
                return failed(
                    f"frame anchored at {format_point(record.point)} returned "
                    f"{len(vectors)} vectors at {at}, expected {record.dim}"
                )
            not_identity = failed(f"free-column submatrix is not the identity at {at}")
            if d <= 0:
                return not_identity
            for w in vectors:
                if any(sum(a * b for a, b in zip(row, w)) for row in other.jacobian):
                    v = format_point(tuple(Fraction(x, d) for x in w))
                    return failed(f"frame vector {v} fails annihilation at {at}")
            for k, f in enumerate(free):
                for l, w in enumerate(vectors):
                    if w[f] != (d if k == l else 0):
                        return not_identity
    return Verdict("local_triviality", True, f"{checked} frame evaluations verified exactly")
