import random
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from subcart import linalg, poly
from subcart.errors import DimensionMismatchError, NonMemberError
from subcart.fixtures import NAMES, fixture_path
from subcart.space import IdealWitness, RingElement, SpacePresentation, load_space, sample
from subcart.tangent import (
    BundlePoint,
    TangentVector,
    analyse,
    apply_derivation,
    bundle_member,
    eval_bundle_function,
    is_tangent,
    jacobian,
    tangent_space,
)

from oracles import divided, minor_rank


@pytest.fixture
def plane():
    return SpacePresentation(name="plane", ambient_dim=2)


# -- jacobian -------------------------------------------------------------------


def test_jacobian_vanishes_at_cone_apex(cone):
    assert jacobian(cone, (F(0), F(0), F(0))) == ((F(0), F(0), F(0)),)


def test_jacobian_at_smooth_cone_point(cone):
    assert jacobian(cone, (F(1), F(0), F(1))) == ((F(2), F(0), F(-2)),)


def test_jacobian_on_cross(cross):
    assert jacobian(cross, (F(1), F(0))) == ((F(0), F(1)),)


def test_jacobian_rejects_non_member(cone):
    with pytest.raises(NonMemberError):
        jacobian(cone, (F(1), F(1), F(1)))


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
        assert a.basis(chart) == divided(*kernel)
        assert calls == before


def test_analyse_tests_membership(cone):
    with pytest.raises(NonMemberError):
        analyse(cone, (F(1), F(1), F(1)))


def _rref_basis(matrix, ncols, chart):
    """The kernel basis normalized to the identity off ``chart``, read from
    the rational RREF with the chart's columns moved to the front."""
    free = [c for c in range(ncols) if c not in chart]
    reduced, pivots = linalg.rref(linalg.submatrix_columns(matrix, [*chart, *free]))
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
    # the integer analysis against rational elimination of the Fraction
    # Jacobian
    space = load_space(fixture_path(name))
    n = space.ambient_dim
    for point in sample(space):
        a = analyse(space, point)
        J = jacobian(space, point)
        for scaled, row in zip(a.jacobian, J):  # row j times one positive integer
            assert all(type(x) is int for x in scaled)
            ratios = {F(x) / y for x, y in zip(scaled, row) if y}
            assert len(ratios) <= 1 and all(r > 0 and r.denominator == 1 for r in ratios)
            assert [x == 0 for x in scaled] == [y == 0 for y in row]
        _, pivots = linalg.rref(J)
        assert a.pivots == tuple(pivots) and a.dim == n - len(pivots)
        charts = {
            cols
            for cols in combinations(range(n), len(pivots))
            if len(linalg.rref(linalg.submatrix_columns(J, cols))[1]) == len(pivots)
        }
        assert a.charts == charts
        for chart in charts:
            assert a.basis(chart) == _rref_basis(J, n, chart)
            # the chart solver on the integer rows gives the same basis as W / d
            assert a.basis(chart) == divided(*linalg.solve_with_pivots(a.jacobian, n, chart))
        for cols in set(combinations(range(n), len(pivots))) - charts:
            assert a.basis(cols) is None
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
    rational, rational_pivots = linalg.rref(matrix)
    assert pivots == rational_pivots
    assert all(type(x) is int for row in reduced for x in row)
    # every pivot row is the last pivot times its RREF row; the rest vanish
    last = reduced[len(pivots) - 1][pivots[-1]] if pivots else 1
    for k, (row, rational_row) in enumerate(zip(reduced, rational)):
        expected = [last * x for x in rational_row] if k < len(pivots) else [0] * len(row)
        assert row == expected


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
    basis = tangent_space(cone, (F(0), F(0), F(0)))
    assert basis.dimension == 3
    assert basis.basis == (
        (F(1), F(0), F(0)),
        (F(0), F(1), F(0)),
        (F(0), F(0), F(1)),
    )


def test_smooth_cone_point_kernel(cone):
    basis = tangent_space(cone, (F(1), F(0), F(1)))
    assert basis.basis == ((F(0), F(1), F(0)), (F(1), F(0), F(1)))


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
    basis = tangent_space(cone, (F(1), F(0), F(1)))
    assert calls == ["bareiss"]
    assert basis.basis == ((F(0), F(1), F(0)), (F(1), F(0), F(1)))


def test_unconstrained_plane_kernel(plane):
    basis = tangent_space(plane, (F(5), F(-2)))
    assert basis.basis == ((F(1), F(0)), (F(0), F(1)))


def test_is_tangent(cone):
    assert is_tangent(cone, (F(1), F(0), F(1)), (F(0), F(1), F(0)))
    assert not is_tangent(cone, (F(1), F(0), F(1)), (F(1), F(0), F(0)))
    assert is_tangent(cone, (F(0), F(0), F(0)), (F(9), F(-7), F(1, 3)))


def test_is_tangent_matches_kernel_span(cone, sphere, cross):
    rng = random.Random(7)
    for space in (cone, sphere, cross):
        for point in sample(space)[::5]:
            basis = tangent_space(space, point).basis
            for _ in range(5):
                v = tuple(
                    F(rng.randint(-6, 6), rng.randint(1, 4))
                    for _ in range(space.ambient_dim)
                )
                assert is_tangent(space, point, v) == (
                    minor_rank([*basis, v]) == len(basis)
                )


def test_tangent_linear_combinations_stay_tangent(cone):
    base = (F(1), F(0), F(1))
    basis = tangent_space(cone, base).basis
    rng = random.Random(3)
    for _ in range(20):
        coeffs = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in basis]
        v = tuple(
            sum((c * vec[i] for c, vec in zip(coeffs, basis)), F(0))
            for i in range(3)
        )
        assert is_tangent(cone, base, v)


def test_tangent_vector_validates_annihilation(cone):
    with pytest.raises(ValueError):
        TangentVector(cone, (F(1), F(0), F(1)), (F(1), F(0), F(0)))


def test_dimension_equals_minor_rank_complement(cone, sphere, cross, umbrella):
    for space in (cone, sphere, cross, umbrella):
        for point in sample(space):
            J = jacobian(space, point)
            assert tangent_space(space, point).dimension == (
                space.ambient_dim - minor_rank(J)
            )


# -- derivations --------------------------------------------------------------------


def test_apply_derivation_kills_generator(cone):
    v = TangentVector(cone, (F(1), F(0), F(1)), (F(1), F(0), F(1)))
    f = RingElement(cone, poly.parse("x1^2 + x2^2 - x3^2", 3))
    assert apply_derivation(v, f) == 0


def test_derivations_kill_constants(cone):
    v = TangentVector(cone, (F(3), F(4), F(5)), (F(0), F(1), F(4, 5)))
    assert apply_derivation(v, RingElement(cone, poly.constant(F(17, 3), 3))) == 0


def test_apply_derivation_reads_coordinates(cone):
    v = TangentVector(cone, (F(1), F(0), F(1)), (F(1), F(0), F(1)))
    assert apply_derivation(v, RingElement(cone, poly.parse("x3", 3))) == 1


def test_annihilation_of_all_generators(cone, sphere, cross, umbrella):
    for space in (cone, sphere, cross, umbrella):
        for point in sample(space)[::4]:
            for v in tangent_space(space, point).vectors():
                for g in space.equations:
                    assert apply_derivation(v, RingElement(space, g)) == 0


def test_leibniz_rule_exactly(cone):
    point = (F(3), F(4), F(5))
    v = TangentVector(cone, point, (F(4), F(-3), F(0)))
    F1 = RingElement(cone, poly.parse("x1*x3 - 2", 3))
    F2 = RingElement(cone, poly.parse("x2^2 + 1/2*x1", 3))
    product = RingElement(cone, F1.representative * F2.representative)
    assert apply_derivation(v, product) == (
        apply_derivation(v, F1) * F2.representative.evaluate(point)
        + apply_derivation(v, F2) * F1.representative.evaluate(point)
    )


def test_representative_independence(cone):
    f = RingElement(cone, poly.parse("x3^2", 3))
    g = RingElement(cone, poly.parse("x1^2 + x2^2", 3))
    witness = IdealWitness((poly.parse("-1", 3),))
    from subcart.space import representatives_agree

    assert representatives_agree(f, g, witness)
    for point in sample(cone)[::4]:
        for v in tangent_space(cone, point).vectors():
            assert apply_derivation(v, f) == apply_derivation(v, g)


def test_space_mismatch_rejected(cone, plane):
    v = TangentVector(cone, (F(0), F(0), F(0)), (F(1), F(0), F(0)))
    with pytest.raises(DimensionMismatchError):
        apply_derivation(v, RingElement(plane, poly.parse("x1", 2)))


# -- tangent bundle ------------------------------------------------------------------


def test_bundle_membership(cone):
    assert bundle_member(cone, (F(1), F(0), F(1)), (F(0), F(1), F(0)))
    assert not bundle_member(cone, (F(1), F(1), F(1)), (F(0), F(0), F(0)))
    assert bundle_member(cone, (F(3), F(4), F(5)), (F(0), F(0), F(0)))


def test_bundle_membership_dimension_checks(cone):
    with pytest.raises(DimensionMismatchError):
        bundle_member(cone, (F(1), F(0)), (F(0), F(1), F(0)))


def test_eval_bundle_function_reads_coordinates(cone):
    p = BundlePoint((F(1), F(0), F(1)), (F(0), F(1), F(0)))
    assert eval_bundle_function(cone, poly.variable(4, 6), p) == 0  # first fiber slot
    assert eval_bundle_function(cone, poly.variable(1, 6), p) == 1
    assert (
        eval_bundle_function(
            cone, poly.variable(1, 6) * poly.variable(5, 6), p
        )
        == 1
    )


def test_base_only_bundle_functions_factor_through_projection(cone):
    # H depending on the first n variables agrees with the base function
    H = poly.parse("x1^2 - 1/3*x3 + x2", 6)
    base_poly = poly.parse("x1^2 - 1/3*x3 + x2", 3)
    for point in sample(cone)[::6]:
        for v in tangent_space(cone, point).vectors():
            p = BundlePoint(point, v.components)
            assert eval_bundle_function(cone, H, p) == base_poly.evaluate(point)


def test_bundle_queries_test_membership_once(cone, member_calls):
    base, fiber = (F(1), F(0), F(1)), (F(0), F(1), F(0))
    assert bundle_member(cone, base, fiber)
    assert len(member_calls) == 1
    assert not bundle_member(cone, (F(1), F(1), F(1)), fiber)  # not on the cone
    assert len(member_calls) == 2
    assert eval_bundle_function(cone, poly.variable(1, 6), BundlePoint(base, fiber)) == 1
    assert len(member_calls) == 3


def test_eval_bundle_function_rejects_non_bundle_points(cone):
    with pytest.raises(NonMemberError):
        eval_bundle_function(
            cone,
            poly.variable(1, 6),
            BundlePoint((F(1), F(0), F(1)), (F(1), F(0), F(0))),
        )
    with pytest.raises(DimensionMismatchError):
        eval_bundle_function(
            cone,
            poly.variable(1, 3),
            BundlePoint((F(1), F(0), F(1)), (F(0), F(1), F(0))),
        )
