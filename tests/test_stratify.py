import importlib
import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from subcart import frames, linalg, poly, tangent
from subcart.errors import FrameEvaluationError, NonMemberError, SubcartError
from subcart.fixtures import NAMES, fixture_path
from subcart.space import (
    Sampler,
    SpacePresentation,
    load_space,
    sample,
    space_from_dict,
)
from subcart.stratify import (
    NeighbourIndex,
    PointRecord,
    classify,
    default_adjacency_radius,
    label,
    stratify,
    structural_dim,
    sup_distance,
    verify_dense,
    verify_open,
    verify_usc,
)
from subcart.tangent import tangent_space

from oracles import naive_max_nearest_gap, naive_neighbours, naive_sup


def record(point, dim, label="regular"):
    return PointRecord(tuple(F(c) for c in point), dim, label)


def index_of(records, radius):
    return NeighbourIndex([r.point for r in records], radius)


def label_against(space, point, neighbors):
    """The label of a point against neighbour evidence the caller picks."""
    dims = [structural_dim(space, y) for y in neighbors]
    return label(structural_dim(space, point), dims)


# -- structural dimension -------------------------------------------------------


def test_structural_dim_examples(cone, sphere):
    assert structural_dim(cone, (F(0), F(0), F(0))) == 3
    assert structural_dim(cone, (F(1), F(0), F(1))) == 2
    assert structural_dim(sphere, (F(1), F(0), F(0))) == 2


def test_structural_dim_requires_membership(cone):
    with pytest.raises(NonMemberError):
        structural_dim(cone, (F(1), F(0), F(0)))


def test_dim_is_ambient_for_unconstrained_spaces():
    line = SpacePresentation(
        name="line", ambient_dim=1, sample_points=tuple((F(k),) for k in range(-2, 3))
    )
    for point in sample(line):
        assert structural_dim(line, point) == 1


def test_dim_matches_tangent_basis_count(cone, cross, umbrella):
    for space in (cone, cross, umbrella):
        for point in sample(space):
            assert structural_dim(space, point) == tangent_space(space, point).dimension


# -- classification -----------------------------------------------------------------


def test_classify_cone_apex_singular(cone):
    neighbors = [(F(1), F(0), F(1)), (F(-1), F(0), F(1)), (F(1), F(0), F(-1))]
    assert label_against(cone, (F(0), F(0), F(0)), neighbors) == "singular"


def test_classify_smooth_cone_point_regular(cone):
    neighbors = [(F(-1), F(0), F(1)), (F(0), F(1), F(1)), (F(3), F(4), F(5))]
    assert label_against(cone, (F(1), F(0), F(1)), neighbors) == "regular"


def test_classify_empty_neighbors_is_unknown(cone):
    assert label_against(cone, (F(1), F(0), F(1)), []) == "unknown"
    assert label_against(cone, (F(0), F(0), F(0)), []) == "unknown"


def _frame_refused(space, report, point):
    try:
        frames.anchored_frame(report, point)
    except FrameEvaluationError:
        return False  # no shared chart with a target: not a refusal
    except SubcartError:
        return True
    return False


@pytest.mark.parametrize("name", NAMES)
def test_stratify_classify_and_frame_agree_on_every_record(name):
    space = load_space(fixture_path(name))
    for radius in (None, F(1, 2)):
        report = stratify(space, radius=radius)
        for r in report.records:
            assert classify(space, r.point, radius) == r
            assert _frame_refused(space, report, r.point) == (r.label == "singular")


@pytest.mark.parametrize(
    "query, neighbours", [((F(1), F(0), F(1)), 16), ((F(0), F(0), F(0)), 13)]
)
def test_classify_point_analyses_each_point_once(cone, monkeypatch, query, neighbours):
    points = sample(cone)
    near = NeighbourIndex(points, default_adjacency_radius(points)).near(query)
    assert len(near) == neighbours and query in [points[j] for j in near]
    calls = []
    analyse_member = tangent.analyse_member
    eliminations = []
    bareiss = linalg.bareiss

    def counting(space, point):
        calls.append(point)
        return analyse_member(space, point)

    def counting_bareiss(matrix):
        eliminations.append(matrix)
        return bareiss(matrix)

    # the query is analysed through ``tangent.analyse``, the samples by
    # ``stratify`` itself: count both bindings
    for module in (tangent, importlib.import_module("subcart.stratify")):
        monkeypatch.setattr(module, "analyse_member", counting)
    monkeypatch.setattr(linalg, "bareiss", counting_bareiss)
    classify(cone, query, None)
    # the query once, and each other sample within the radius once
    assert len(calls) == neighbours == len(set(calls))
    # one rank elimination per analysed point, and no chart is solved
    assert len(eliminations) == neighbours


def test_negative_radius_or_epsilon_is_rejected(cone):
    for kwargs in ({"radius": F(-1)}, {"epsilon": F(-1, 3)}):
        with pytest.raises(SubcartError, match="nonnegative"):
            stratify(cone, **kwargs)
    with pytest.raises(SubcartError, match="nonnegative"):
        classify(cone, (F(0), F(0), F(0)), F(-1))


@pytest.mark.parametrize("bad", [0.5, "1/2", True])
def test_radius_and_epsilon_must_be_ints_or_fractions(cone, bad):
    # a float radius failed with AttributeError and a string one with
    # TypeError, deep inside the neighbour index
    origin = (F(0), F(0), F(0))
    for call, name in (
        (lambda: stratify(cone, bad), "radius"),
        (lambda: stratify(cone, epsilon=bad), "epsilon"),
        (lambda: classify(cone, origin, bad), "radius"),
        (lambda: frames.verify(cone, bad), "radius"),
        (lambda: frames.verify(cone, epsilon=bad), "epsilon"),
    ):
        with pytest.raises(SubcartError, match=f"^{name} must be an int or a Fraction, got "):
            call()
    assert stratify(cone, 1) == stratify(cone, F(1))


def test_higher_dimensional_neighbors_do_not_make_a_point_singular(cone):
    # the apex lies within sampling radius of nearby smooth points; they
    # stay regular because no lower-dimensional evidence exists
    neighbors = [(F(0), F(0), F(0)), (F(-1), F(0), F(1))]
    assert label_against(cone, (F(1), F(0), F(1)), neighbors) == "regular"


# -- defaults -----------------------------------------------------------------------


def test_default_radius_is_max_nearest_neighbor_gap(cone):
    points = sample(cone)
    radius = default_adjacency_radius(points)
    assert radius == 2
    # every point then has at least one neighbor within the radius
    for i, p in enumerate(points):
        assert any(
            sup_distance(p, q) <= radius for j, q in enumerate(points) if j != i
        )


def test_default_radius_degenerates_to_zero():
    assert default_adjacency_radius([(F(0),)]) == 0
    assert default_adjacency_radius([]) == 0


# -- neighbour index ---------------------------------------------------------------

# small fractions, and huge ones like the sphere's (whose samples share a
# denominator lcm of about 2*10^23)
RATIONALS = st.one_of(
    st.fractions(min_value=-4, max_value=4, max_denominator=12),
    st.builds(F, st.integers(-(10**24), 10**24), st.integers(1, 3 * 10**23)),
)


@st.composite
def point_sets(draw):
    """(dimension, points, radius, query point).  Coordinates come from a
    small pool, so values repeat and points coincide; the radius is 0, a
    random value or exactly the distance of two of the points."""
    dim = draw(st.integers(1, 3))
    pool = draw(st.lists(RATIONALS, min_size=1, max_size=5))
    coordinate = st.sampled_from(pool)
    points = draw(st.lists(st.tuples(*[coordinate] * dim), max_size=12))
    query = draw(st.tuples(*[st.one_of(coordinate, RATIONALS)] * dim))
    radii = [F(0), abs(draw(RATIONALS))]
    radii += [naive_sup(p, q) for p in points[:3] for q in points[:3]]
    return dim, points, draw(st.sampled_from(radii)), query


def neighbour_lists(index, count, strict):
    return [list(index.neighbours(i, strict)) for i in range(count)]


@given(point_sets())
@settings(max_examples=200, deadline=None)
def test_neighbour_index_matches_all_pairs_oracle(case):
    _, points, radius, query = case
    index = NeighbourIndex(points, radius)
    for strict in (False, True):
        assert neighbour_lists(index, len(points), strict) == naive_neighbours(
            points, radius, strict
        )
        for q in [query, *points]:
            assert index.near(q, strict) == [
                j
                for j, p in enumerate(points)
                if (naive_sup(q, p) < radius if strict else naive_sup(q, p) <= radius)
            ]
    assert default_adjacency_radius(points) == naive_max_nearest_gap(points)


@given(point_sets(), RATIONALS.filter(bool), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_neighbour_lists_survive_scaling_and_coordinate_permutation(case, c, rng):
    dim, points, radius, _ = case
    index = NeighbourIndex(points, radius)
    scaled = [tuple(c * x for x in p) for p in points]
    order = list(range(dim))
    rng.shuffle(order)
    permuted = [tuple(p[k] for k in order) for p in points]
    for strict in (False, True):
        expected = neighbour_lists(index, len(points), strict)
        scaled_index = NeighbourIndex(scaled, abs(c) * radius)
        assert neighbour_lists(scaled_index, len(points), strict) == expected
        permuted_index = NeighbourIndex(permuted, radius)
        assert neighbour_lists(permuted_index, len(points), strict) == expected
    gap = default_adjacency_radius(points)
    assert default_adjacency_radius(scaled) == abs(c) * gap
    assert default_adjacency_radius(permuted) == gap


def test_neighbour_index_compares_points_only_when_asked(monkeypatch):
    # the Whitney umbrella at resolution 15 (218 samples over many cells)
    data = json.loads(fixture_path("whitney_umbrella").read_text(encoding="utf-8"))
    for sampler in data["samplers"]:
        sampler["resolution"] = 15
    points = sample(space_from_dict(data))
    radius = default_adjacency_radius(points)
    compared = []
    # the module, not the ``subcart.stratify`` function the package exports
    module = importlib.import_module("subcart.stratify")
    within = module._within

    def counting(p, scaled, candidates, reach):
        # one call per point compares it with each candidate
        compared.extend((p, scaled[j]) for j in candidates)
        return within(p, scaled, candidates, reach)

    monkeypatch.setattr(module, "_within", counting)
    index = NeighbourIndex(points, radius)
    assert compared == []
    # a query is compared with the points of its own and the adjacent
    # cells only: every point within the radius, none two radii away
    for q in points[:: len(points) // 4]:
        compared.clear()
        found = index.near(q)
        close = [p for p in points if naive_sup(q, p) < 2 * radius]
        assert len(found) <= len(compared) <= len(close) < len(points)
    compared.clear()
    index.neighbours(0)
    pairs = [(p, q) for k, p in enumerate(points) for q in points[k + 1 :]]
    within = [1 for p, q in pairs if naive_sup(p, q) <= radius]
    close = [1 for p, q in pairs if naive_sup(p, q) < 2 * radius]
    assert len(within) <= len(compared) <= len(close) < len(pairs)
    compared.clear()
    index.neighbours(len(points) - 1, strict=True)
    assert compared == []


# -- full pipeline ----------------------------------------------------------------


def test_stratify_cone(cone):
    report = stratify(cone)
    assert len(report.records) == 41
    assert report.radius == 2 and report.epsilon == 2
    singular = [r for r in report.records if r.label == "singular"]
    assert [r.point for r in singular] == [(F(0), F(0), F(0))]
    assert all(r.dim == 2 for r in report.records if r.label == "regular")
    assert singular[0].dim == 3
    assert report.all_pass()


def test_stratify_unconstrained_line():
    line = SpacePresentation(
        name="line", ambient_dim=1, sample_points=tuple((F(k),) for k in range(-2, 3))
    )
    report = stratify(line)
    assert all(r.dim == 1 and r.label == "regular" for r in report.records)
    assert report.all_pass()


def test_strata_are_nested_and_consistent(cone, cross, umbrella, single_point):
    for space in (cone, cross, umbrella, single_point):
        report = stratify(space)
        for i in range(len(report.strata) - 1):
            assert set(report.strata[i]) <= set(report.strata[i + 1])
        for idx, r in enumerate(report.records):
            assert r.dim <= space.ambient_dim
            for level, members in enumerate(report.strata):
                assert (idx in members) == (r.dim <= level)


def test_single_point_space_is_regular(single_point):
    report = stratify(single_point)
    assert [r.label for r in report.records] == ["regular"]
    assert report.records[0].dim == 0
    assert report.verdict("dense").passed
    assert report.all_pass()


def test_umbrella_singular_set_is_the_pinch_axis(umbrella):
    report = stratify(umbrella)
    singular = {r.point for r in report.records if r.label == "singular"}
    axis = {r.point for r in report.records if r.point[0] == 0 and r.point[1] == 0}
    assert singular == axis and len(axis) == 3
    assert all(r.dim == 3 for r in report.records if r.point in axis)
    assert report.all_pass()


def test_non_reduced_generator_sets_caveat():
    doubled = SpacePresentation(
        name="doubled",
        ambient_dim=1,
        equations=(poly.parse("x1^2", 1),),
        sample_points=((F(0),),),
    )
    report = stratify(doubled)
    assert report.caveats and "equations[0]" in report.caveats[0]


# -- verifiers ------------------------------------------------------------------------


def test_usc_passes_on_cone_and_sphere(cone, sphere):
    assert stratify(cone).verdict("usc").passed
    assert stratify(sphere).verdict("usc").passed


def test_usc_fails_on_isolated_low_dimensional_point():
    # a dim-1 point whose only neighbor within the radius has dim 2
    records = [record((1, 0), 1), record((0, 0), 2)]
    verdict = verify_usc(records, index_of(records, F(1)))
    assert not verdict.passed
    assert "(1, 0)" in verdict.detail


def test_usc_vacuous_for_isolated_points():
    records = [record((0, 0), 1), record((10, 0), 2)]
    assert verify_usc(records, index_of(records, F(1))).passed


def test_open_passes_on_cone_and_sphere(cone, sphere):
    assert stratify(cone).verdict("open").passed
    assert stratify(sphere).verdict("open").passed


def test_open_fails_on_regular_point_with_singular_peer():
    # hand-built labels: a regular point whose only neighbor is singular
    # at the same dimension
    records = [record((0,), 1, "regular"), record((1,), 1, "singular")]
    verdict = verify_open(records, index_of(records, F(1)))
    assert not verdict.passed


def test_open_allows_higher_dimensional_singular_boundary():
    records = [
        record((1, 0), 1, "regular"),
        record((0, 0), 2, "singular"),
        record((2, 0), 1, "regular"),
    ]
    assert verify_open(records, index_of(records, F(1))).passed


def test_dense_examples(cone, cross):
    cone_report = stratify(cone)
    assert verify_dense(
        cone_report.records, index_of(cone_report.records, F(1, 4))
    ).passed
    cross_report = stratify(cross, epsilon=F(1, 4))
    assert cross_report.verdict("dense").passed


def test_dense_with_coarse_cross_and_unit_epsilon():
    cross3 = SpacePresentation(
        name="cross3",
        ambient_dim=2,
        equations=(poly.parse("x1*x2", 2),),
        samplers=(
            Sampler(
                param_dim=1,
                numerators=(poly.parse("x1", 1), poly.parse("0", 1)),
                denominator=poly.parse("1", 1),
                param_box=((F(-1), F(1)),),
                param_resolution=3,
            ),
            Sampler(
                param_dim=1,
                numerators=(poly.parse("0", 1), poly.parse("x1", 1)),
                denominator=poly.parse("1", 1),
                param_box=((F(-1), F(1)),),
                param_resolution=3,
            ),
        ),
    )
    report = stratify(cross3, epsilon=F(1))
    assert report.verdict("dense").passed


def test_dense_fails_without_nearby_regular_points():
    records = [record((0,), 2, "singular"), record((5,), 1, "regular")]
    assert not verify_dense(records, index_of(records, F(1))).passed


def test_verifiers_reject_empty_records():
    for verifier in (verify_usc, verify_open, verify_dense):
        with pytest.raises(ValueError):
            verifier([], index_of([], F(1)))


# -- report serialization ----------------------------------------------------------


def test_report_json_shape(cone):
    data = stratify(cone).to_json()
    assert set(data) == {"space", "records", "strata", "verdicts", "params", "caveats"}
    assert data["space"] == "cone"
    assert data["strata"] == {"0": 0, "1": 0, "2": 40, "3": 41}
    assert data["params"] == {"radius": "2", "epsilon": "2"}
    assert all(v["pass"] for v in data["verdicts"].values())
    first = data["records"][0]
    assert set(first) == {"point", "dim", "label"}
    assert all(isinstance(c, str) for c in first["point"])


def test_report_is_deterministic(cone):
    assert json.dumps(stratify(cone).to_json(), indent=2) == json.dumps(
        stratify(cone).to_json(), indent=2
    )
