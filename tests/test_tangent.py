import random
from fractions import Fraction as F
from itertools import combinations
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from subcart import linalg
from subcart.errors import NonMemberError
from subcart.frames import FrameSection
from subcart.poly import clear_denominators, parse
from subcart.fixtures import NAMES, fixture_path
from subcart.space import SpacePresentation, load_space, sample
from subcart.tangent import analyse, is_tangent, jacobian

from oracles import divided, gauss_jordan, minor_rank, naive_jacobian


@pytest.fixture
def plane():
    return SpacePresentation(name="plane", ambient_dim=2)


# -- jacobian -------------------------------------------------------------------


def test_jacobian_vanishes_at_cone_apex(cone):
    assert jacobian(cone, clear_denominators((F(0), F(0), F(0)))) == ((0, 0, 0),)


def test_jacobian_at_smooth_cone_point(cone):
    assert jacobian(cone, clear_denominators((F(1), F(0), F(1)))) == ((2, 0, -2),)


def test_jacobian_on_cross(cross):
    assert jacobian(cross, clear_denominators((F(1), F(0)))) == ((0, 1),)


@pytest.fixture
def parabola():
    # rows of other coefficient denominators and degrees, at a point over 8
    return SpacePresentation(
        name="parabola",
        ambient_dim=2,
        equations=(parse("1/2*x1^2 - 1/3*x2", 2), parse("x2 - 3/2*x1^2", 2)),
        sample_points=((F(1, 2), F(3, 8)),),
    )


@pytest.mark.parametrize("name", [*NAMES, "parabola"])
def test_jacobian_rows_are_positive_multiples_of_the_gradient(name, parabola):
    # at every sample: each integer row is the oracle's rational gradient
    # row times one positive number
    space = parabola if name == "parabola" else load_space(fixture_path(name))
    for point in sample(space):
        rows = jacobian(space, clear_denominators(point))
        gradients = naive_jacobian(space, point)
        assert len(rows) == len(gradients)
        for row, gradient in zip(rows, gradients):
            assert all(type(x) is int for x in row)
            assert [x == 0 for x in row] == [y == 0 for y in gradient]
            ratios = {F(x) / y for x, y in zip(row, gradient) if y}
            assert len(ratios) <= 1 and all(r > 0 for r in ratios)


def test_is_tangent_rejects_non_member(cone):
    with pytest.raises(NonMemberError):
        is_tangent(cone, (F(1), F(1), F(1)), (F(0), F(0), F(0)))


@pytest.mark.parametrize(
    "point, column_sets", [((F(1), F(0), F(1)), 3), ((F(0), F(0), F(0)), 1)]
)
def test_analyse_eliminates_once_and_solves_charts_on_first_read(
    cone, monkeypatch, point, column_sets
):
    calls = {"rref": 0, "bareiss": 0, "solve_with_pivots": 0}
    for name in calls:
        original = getattr(linalg, name)

        def counting(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(linalg, name, counting)
    a = analyse(cone, point)
    assert calls == {"rref": 0, "bareiss": 1, "solve_with_pivots": 0}
    # one integer elimination per column set of size rank (3 choose rank
    # on the cone) decides the charts, and nothing is solved
    charts = a.charts
    assert calls == {"rref": 0, "bareiss": 1 + column_sets, "solve_with_pivots": 0}
    assert a.charts is charts
    assert charts == ({(0,), (2,)} if a.rank else {()})
    # the own pivots' kernel is read off the analysis's elimination, with
    # no solve and no elimination; any other chart's first read solves it
    # once, with one elimination; a second read or its Fraction basis
    # solves nothing
    for chart in sorted(charts):
        before = dict(calls)
        kernel = a.kernel(chart)
        solved = int(chart != a.pivots)
        assert calls == {
            "rref": 0,
            "bareiss": before["bareiss"] + solved,
            "solve_with_pivots": before["solve_with_pivots"] + solved,
        }
        before = dict(calls)
        assert a.kernel(chart) is kernel
        assert FrameSection(a.point, chart).evaluate(a) == divided(*kernel)
        assert calls == before


def test_analyse_tests_membership(cone):
    with pytest.raises(NonMemberError):
        analyse(cone, (F(1), F(1), F(1)))


def _rref_basis(matrix, ncols, chart):
    """The kernel basis normalized to the identity off ``chart``, read from
    the rational RREF with the chart's columns moved to the front."""
    free = [c for c in range(ncols) if c not in chart]
    reduced, pivots = gauss_jordan(linalg.submatrix_columns(matrix, [*chart, *free]))
    assert pivots == list(range(len(chart)))
    basis = []
    for k, f in enumerate(free):
        v = [F(0)] * ncols
        v[f] = F(1)
        for p, row in zip(chart, reduced):
            v[p] = -row[len(chart) + k]
        basis.append(tuple(v))
    return tuple(basis)


@pytest.mark.parametrize("name", NAMES)
def test_integer_analysis_matches_rational_elimination(name):
    # at every sample of every fixture: rank, pivots, charts and bases of
    # the integer analysis against rational elimination of the oracle's
    # Fraction Jacobian
    space = load_space(fixture_path(name))
    n = space.ambient_dim
    for point in sample(space):
        a = analyse(space, point)
        J = naive_jacobian(space, point)
        for scaled, row in zip(a.jacobian, J):  # row j times one positive integer
            assert all(type(x) is int for x in scaled)
            ratios = {F(x) / y for x, y in zip(scaled, row) if y}
            assert len(ratios) <= 1 and all(r > 0 and r.denominator == 1 for r in ratios)
            assert [x == 0 for x in scaled] == [y == 0 for y in row]
        _, pivots = gauss_jordan(J)
        assert a.pivots == tuple(pivots) and a.dim == n - len(pivots)
        charts = {
            cols
            for cols in combinations(range(n), len(pivots))
            if len(gauss_jordan(linalg.submatrix_columns(J, cols))[1]) == len(pivots)
        }
        assert a.charts == charts
        for chart in charts:
            assert divided(*a.kernel(chart)) == _rref_basis(J, n, chart)
            # the chart solver on the integer rows gives the same kernel
            assert a.kernel(chart) == linalg.solve_with_pivots(a.jacobian, n, chart)
        for cols in set(combinations(range(n), len(pivots))) - charts:
            assert a.kernel(cols) is None
            assert linalg.solve_with_pivots(a.jacobian, n, cols) is None


@pytest.mark.parametrize("name", NAMES)
def test_own_chart_kernel_equals_the_solved_kernel(name):
    # read off the analysis's elimination, (W, d) itself, not only W / d,
    # is what the chart solver returns
    space = load_space(fixture_path(name))
    for point in sample(space):
        a = analyse(space, point)
        n = len(a.point)
        assert a.kernel(a.pivots) == linalg.solve_with_pivots(a.jacobian, n, a.pivots)


# (column count, small integer matrix with that many columns and 0-4 rows)
integer_matrices = st.integers(0, 4).flatmap(
    lambda ncols: st.tuples(
        st.just(ncols),
        st.lists(st.lists(st.integers(-4, 4), min_size=ncols, max_size=ncols), max_size=4),
    )
)


@settings(deadline=None, max_examples=300)
@given(integer_matrices)
def test_bareiss_is_a_scaled_rref(sized):
    _, matrix = sized
    reduced, pivots = linalg.bareiss(matrix)
    rational, rational_pivots = gauss_jordan(matrix)
    assert pivots == rational_pivots
    assert all(type(x) is int for row in reduced for x in row)
    # every pivot row is the last pivot times its RREF row; the rest vanish
    last = reduced[len(pivots) - 1][pivots[-1]] if pivots else 1
    for k, (row, rational_row) in enumerate(zip(reduced, rational)):
        expected = [last * x for x in rational_row] if k < len(pivots) else [0] * len(row)
        assert row == expected


# (column count, small rational matrix with that many columns and 0-4 rows)
rational_matrices = st.integers(0, 4).flatmap(
    lambda ncols: st.tuples(
        st.just(ncols),
        st.lists(
            st.lists(
                st.fractions(F(-4), F(4), max_denominator=6), min_size=ncols, max_size=ncols
            ),
            max_size=4,
        ),
    )
)


@settings(deadline=None, max_examples=300, derandomize=True)
@given(rational_matrices)
def test_rref_is_the_gauss_jordan_form(sized):
    # ``linalg.rref`` reads the form off one ``bareiss`` elimination of the
    # rows over their common denominators
    _, matrix = sized
    reduced, pivots = linalg.rref(matrix)
    assert (reduced, pivots) == gauss_jordan(matrix)
    assert all(type(x) is F for row in reduced for x in row)


@settings(deadline=None, max_examples=300)
@given(integer_matrices)
def test_integer_chart_solver_decides_and_solves_each_column_set(sized):
    ncols, matrix = sized
    rank = minor_rank(matrix)
    for cols in combinations(range(ncols), rank):
        kernel = linalg.solve_with_pivots(matrix, ncols, cols)
        if minor_rank(linalg.submatrix_columns(matrix, cols)) < rank:
            assert kernel is None
            continue
        vectors, d = kernel
        assert type(d) is int and d > 0
        assert all(type(x) is int for w in vectors for x in w)
        assert all(x == 0 for w in vectors for x in linalg.matrix_vector(matrix, w))
        assert divided(vectors, d) == _rref_basis(matrix, ncols, cols)


@settings(deadline=None, max_examples=300)
@given(integer_matrices)
def test_reduced_kernel_of_the_leftmost_pivots_is_the_solved_kernel(sized):
    ncols, matrix = sized
    reduced, pivots = linalg.bareiss(matrix)
    kernel = linalg.reduced_kernel(reduced, range(ncols), pivots)
    assert kernel == linalg.solve_with_pivots(matrix, ncols, pivots)


# -- tangent spaces ----------------------------------------------------------------


def test_full_kernel_at_cone_apex(cone):
    a = analyse(cone, (F(0), F(0), F(0)))
    basis = divided(*a.kernel(a.pivots))
    assert len(basis) == 3
    assert basis == (
        (F(1), F(0), F(0)),
        (F(0), F(1), F(0)),
        (F(0), F(0), F(1)),
    )


def test_smooth_cone_point_kernel(cone):
    a = analyse(cone, (F(1), F(0), F(1)))
    assert divided(*a.kernel(a.pivots)) == ((F(0), F(1), F(0)), (F(1), F(0), F(1)))


def test_tangent_space_solves_one_chart(cone, monkeypatch):
    # the one chart it reads, the RREF pivots, is read off the analysis's
    # one elimination: nothing is solved and nothing eliminated again
    calls = []
    for name in ("bareiss", "solve_with_pivots"):
        original = getattr(linalg, name)

        def counting(*args, name=name, original=original):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(linalg, name, counting)
    a = analyse(cone, (F(1), F(0), F(1)))
    basis = divided(*a.kernel(a.pivots))
    assert calls == ["bareiss"]
    assert basis == ((F(0), F(1), F(0)), (F(1), F(0), F(1)))


def test_unconstrained_plane_kernel(plane):
    a = analyse(plane, (F(5), F(-2)))
    assert divided(*a.kernel(a.pivots)) == ((F(1), F(0)), (F(0), F(1)))


def test_is_tangent(cone):
    assert is_tangent(cone, (F(1), F(0), F(1)), (F(0), F(1), F(0)))
    assert not is_tangent(cone, (F(1), F(0), F(1)), (F(1), F(0), F(0)))
    assert is_tangent(cone, (F(0), F(0), F(0)), (F(9), F(-7), F(1, 3)))


def test_is_tangent_matches_kernel_span(cone, sphere, cross):
    # a vector annihilates the integer Jacobian rows iff it lies in the
    # span of the own-chart kernel
    rng = random.Random(7)
    for space in (cone, sphere, cross):
        for point in sample(space)[::5]:
            a = analyse(space, point)
            vectors, _ = a.kernel(a.pivots)
            for _ in range(5):
                v = tuple(
                    F(rng.randint(-6, 6), rng.randint(1, 4))
                    for _ in range(space.ambient_dim)
                )
                annihilated = all(sum(map(mul, row, v)) == 0 for row in a.jacobian)
                assert annihilated == (
                    minor_rank([*vectors, v]) == len(vectors)
                )


def test_tangent_linear_combinations_stay_tangent(cone):
    base = (F(1), F(0), F(1))
    a = analyse(cone, base)
    basis = divided(*a.kernel(a.pivots))
    rng = random.Random(3)
    for _ in range(20):
        coeffs = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in basis]
        v = tuple(
            sum((c * vec[i] for c, vec in zip(coeffs, basis)), F(0))
            for i in range(3)
        )
        assert is_tangent(cone, base, v)


def test_dimension_equals_minor_rank_complement(cone, sphere, cross, umbrella):
    for space in (cone, sphere, cross, umbrella):
        for point in sample(space):
            J = naive_jacobian(space, point)
            a = analyse(space, point)
            vectors, _ = a.kernel(a.pivots)
            assert len(vectors) == space.ambient_dim - minor_rank(J)


def test_annihilation_of_all_generators(cone, sphere, cross, umbrella):
    # every own-chart kernel vector annihilates each generator's integer
    # row, its gradient times a positive integer
    for space in (cone, sphere, cross, umbrella):
        for point in sample(space)[::4]:
            a = analyse(space, point)
            vectors, _ = a.kernel(a.pivots)
            for w in vectors:
                for row in a.jacobian:
                    assert sum(map(mul, row, w)) == 0
