import importlib
import json
import re
import time
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from subcart import cli, poly, space as space_module, stratify, verify
from subcart.errors import (
    DimensionMismatchError,
    NoSampleSourceError,
    SpaceFormatError,
    SubcartError,
)
from subcart.space import (
    MAX_AMBIENT_DIM,
    Sampler,
    SpacePresentation,
    compose_cleared,
    is_member,
    load_space,
    repeated_factor_caveats,
    sample,
    space_from_dict,
)
from subcart.fixtures import NAMES, fixture_path
from subcart.poly import Polynomial
from subcart.stratify import MAX_NEIGHBOUR_PAIRS, MAX_TABLE_BITS, NeighbourIndex

from oracles import (
    grid_points,
    naive_add,
    naive_compose_cleared,
    naive_eval,
    naive_image,
    naive_violations,
)


def line_sampler(numerators, lo, hi, resolution):
    return Sampler(
        param_dim=1,
        numerators=tuple(poly.parse(t, 1) for t in numerators),
        denominator=poly.parse("1", 1),
        param_box=((F(lo), F(hi)),),
        param_resolution=resolution,
    )


@pytest.fixture
def plane():
    return SpacePresentation(name="plane", ambient_dim=2)


# -- membership ---------------------------------------------------------------


def test_cone_membership(cone):
    assert is_member(cone, (F(3), F(4), F(5)))
    assert not is_member(cone, (F(1), F(1), F(1)))


def test_unconstrained_space_accepts_everything(plane):
    assert is_member(plane, (F(12, 7), F(-3)))


def test_membership_dimension_mismatch(cone):
    with pytest.raises(DimensionMismatchError):
        is_member(cone, (F(1), F(2)))


def test_inequality_membership(half_line):
    assert is_member(half_line, (F(0),))
    assert is_member(half_line, (F(5),))
    assert not is_member(half_line, (F(-1, 4),))


def test_strict_inequality():
    open_ray = SpacePresentation(
        name="open_ray",
        ambient_dim=1,
        inequalities=((poly.parse("x1", 1), True),),
        sample_points=((F(1),),),
    )
    assert not is_member(open_ray, (F(0),))
    assert is_member(open_ray, (F(1, 100),))


# -- sampling ------------------------------------------------------------------


def test_cone_resolution_5_sampling():
    # oracle: evaluate the parameterization on the 5x5 grid independently
    # and deduplicate; antipodal parameters collide, leaving 13 points
    images = []
    for u, v in grid_points([(F(-2), F(2)), (F(-2), F(2))], 5):
        p = (u * u - v * v, 2 * u * v, u * u + v * v)
        if p not in images:
            images.append(p)
    assert len(images) == 13
    assert (F(0), F(0), F(0)) in images

    cone5 = SpacePresentation(
        name="cone5",
        ambient_dim=3,
        equations=(poly.parse("x1^2 + x2^2 - x3^2", 3),),
        samplers=(
            Sampler(
                param_dim=2,
                numerators=(
                    poly.parse("x1^2 - x2^2", 2),
                    poly.parse("2*x1*x2", 2),
                    poly.parse("x1^2 + x2^2", 2),
                ),
                denominator=poly.parse("1", 2),
                param_box=((F(-2), F(2)), (F(-2), F(2))),
                param_resolution=5,
            ),
        ),
    )
    points = sample(cone5)
    assert points == images
    assert all(is_member(cone5, p) for p in points)


def test_explicit_points_pass_through():
    space = SpacePresentation(
        name="dot", ambient_dim=2, sample_points=((F(1), F(0)),)
    )
    assert sample(space) == [(F(1), F(0))]


def test_cross_sampler_dedups_origin():
    space = SpacePresentation(
        name="cross3",
        ambient_dim=2,
        equations=(poly.parse("x1*x2", 2),),
        samplers=(
            line_sampler(["x1", "0"], -1, 1, 3),
            line_sampler(["0", "x1"], -1, 1, 3),
        ),
    )
    points = sample(space)
    assert set(points) == {
        (F(-1), F(0)),
        (F(0), F(0)),
        (F(1), F(0)),
        (F(0), F(-1)),
        (F(0), F(1)),
    }
    assert len(points) == 5
    # deterministic order: first sampler grid, then second, first occurrence kept
    assert points[0] == (F(-1), F(0))
    assert points[1] == (F(0), F(0))


def test_samples_are_deduplicated_in_least_integer_form():
    # the sampler's integer images share a factor (numerators 2*x1 and 0
    # over 2), and the explicit points repeat its images with unreduced
    # literals: integer-form deduplication must match Fraction deduplication
    data = {
        "name": "axis",
        "ambient_dim": 2,
        "equations": ["x2"],
        "samplers": [
            {
                "param_dim": 1,
                "numerators": ["2*x1", "0"],
                "denominator": "2",
                "box": [["-1", "1"]],
                "resolution": 5,
            }
        ],
        "sample_points": [["2/4", "0"], ["6/2", "0/7"], ["-4/4", "-0"], ["3", "0"]],
    }
    space = space_from_dict(data)
    images = [(t, F(0)) for (t,) in grid_points([(F(-1), F(1))], 5)]
    explicit = [tuple(F(c) for c in p) for p in data["sample_points"]]
    expected = list(dict.fromkeys(images + explicit))
    assert sample(space) == expected
    assert len(expected) == 6  # (3, 0) is new, once
    for loaded in [space] + [load_space(fixture_path(n)) for n in NAMES]:
        points = sample(loaded)
        assert len(loaded.cleared_samples) == len(points)
        for form, point in zip(loaded.cleared_samples, points):
            assert form == poly.clear_denominators(point)


@st.composite
def fractional_boxes(draw):
    """A box in R^1 or R^2 whose ends have different denominators, an
    axis with lo == hi allowed, and a resolution."""
    ends = st.fractions(min_value=-3, max_value=3, max_denominator=12)
    box = []
    for _ in range(draw(st.integers(1, 2))):
        lo = draw(ends)
        hi = draw(st.one_of(st.just(lo), ends.filter(lambda end: end >= lo)))
        box.append((lo, hi))
    return tuple(box), draw(st.integers(1, 6))


@settings(deadline=None, max_examples=200)
@given(fractional_boxes())
def test_an_identity_sampler_samples_its_rational_grid(case):
    box, resolution = case
    n = len(box)
    sampler = Sampler(
        param_dim=n,
        numerators=tuple(poly.variable(i + 1, n) for i in range(n)),
        denominator=poly.constant(1, n),
        param_box=box,
        param_resolution=resolution,
    )
    space = SpacePresentation(name="box", ambient_dim=n, samplers=(sampler,))
    assert sample(space) == list(dict.fromkeys(grid_points(box, resolution)))


def test_sample_requires_a_source(plane):
    for run in (sample, stratify, verify):
        with pytest.raises(NoSampleSourceError):
            run(plane)


def test_sampled_points_are_members(cone, sphere, cross, umbrella, half_line):
    for space in (cone, sphere, cross, umbrella, half_line):
        for point in sample(space):
            assert is_member(space, point)


def test_loaded_space_samples_without_validating_again(monkeypatch):
    loaded = load_space(fixture_path("cone"))
    calls = []
    for name in ("compose_cleared", "is_member"):
        monkeypatch.setattr(space_module, name, lambda *args: calls.append(args))
    points = sample(loaded)
    assert calls == []
    monkeypatch.undo()
    expected = sample(replace(loaded))  # validated again when the copy is built
    assert points == expected
    points.clear()
    assert sample(loaded) == expected


def test_sampler_inequality_violation_raises():
    with pytest.raises(SpaceFormatError, match=r"^samplers\[0\]: grid image at parameters "):
        SpacePresentation(
            name="bad_half_line",
            ambient_dim=1,
            inequalities=((poly.parse("x1", 1), False),),
            samplers=(line_sampler(["x1"], -1, 1, 3),),
        )


# the benchmark's scaled inputs: (fixture, resolution of every sampler)
SCALED = [("whitney_umbrella", 15), ("sphere", 11)]


@pytest.mark.parametrize("name, resolution", SCALED)
def test_loading_a_sampled_space_tests_no_grid_image_for_membership(
    name, resolution, tmp_path, member_calls
):
    # the composition identity puts every grid image on the equations,
    # and these spaces have no inequality, so no image is evaluated again
    space = load_space(_fixture_file(tmp_path, name, resolution))
    assert len(space.cleared_samples) > resolution
    assert member_calls == []


@pytest.mark.parametrize("name", ["discontinuous_section", "openness_violation", "cone"])
def test_loading_tests_each_explicit_point_once(name, member_calls):
    data = json.loads(fixture_path(name).read_text(encoding="utf-8"))
    if name == "cone":  # a grid of 81 images, then points, one on the grid
        data["sample_points"] = [["3", "4", "5"], ["0", "0", "0"], ["6", "8", "-10"]]
    space = space_from_dict(data)
    assert len(space.sample_points) > 1
    forms = [poly.clear_denominators(point) for point in space.sample_points]
    assert [tuple(args[1:]) for args in member_calls] == forms


def test_an_off_variety_sampler_is_refused_before_any_grid_image(monkeypatch, member_calls):
    # every grid image is evaluated in a block of columns, so no block may
    # be evaluated before the composition check refuses the sampler
    blocks = []
    evaluate_columns = poly.ClearedRow.evaluate_columns

    def counting(self, *args):
        blocks.append(args)
        return evaluate_columns(self, *args)

    monkeypatch.setattr(poly.ClearedRow, "evaluate_columns", counting)
    data = json.loads(fixture_path("half_line").read_text(encoding="utf-8"))
    space_from_dict(data)
    assert blocks, "the counter must see the grid of a valid sampler"
    blocks.clear()
    data["equations"] = ["x1 - 1"]
    message = r"^samplers\[0\]: composition with equations\[0\] is not identically zero$"
    with pytest.raises(SpaceFormatError, match=message):
        space_from_dict(data)
    assert blocks == [] and member_calls == []


def test_block_boundaries_do_not_change_the_samples(monkeypatch, tmp_path):
    # blocks of 7 grid points split every grid at a point that no
    # resolution puts at a row's end
    paths = [
        _fixture_file(tmp_path, "whitney_umbrella", 15),
        _fixture_file(tmp_path, "sphere", 11),
        *(fixture_path(name) for name in NAMES if load_space(fixture_path(name)).samplers),
    ]
    expected = [load_space(path).cleared_samples for path in paths]
    blocks = []
    evaluate_columns = poly.ClearedRow.evaluate_columns

    def counting(self, numerators, denominators):
        blocks.append(len(denominators))
        return evaluate_columns(self, numerators, denominators)

    monkeypatch.setattr(poly.ClearedRow, "evaluate_columns", counting)
    monkeypatch.setattr(space_module, "GRID_BLOCK_POINTS", 7)
    assert [load_space(path).cleared_samples for path in paths] == expected
    assert max(blocks) == 7 and 225 // 7 < blocks.count(7)


def _line_space(numerator, denominator, inequalities=()):
    """A space in R^1 sampled at the integers 0..20 by numerator/denominator."""
    return {
        "name": "line",
        "ambient_dim": 1,
        "inequalities": [{"poly": h, "strict": strict} for h, strict in inequalities],
        "samplers": [
            {
                "param_dim": 1,
                "numerators": [numerator],
                "denominator": denominator,
                "box": [["0", "20"]],
                "resolution": 21,
            }
        ],
    }


def _refusal(data):
    with pytest.raises(SpaceFormatError) as caught:
        space_from_dict(data)
    return str(caught.value)


VANISHES = "samplers[0].denominator: vanishes at grid parameters ({})"
VIOLATES = "samplers[0]: grid image at parameters ({}) violates the constraints"


@pytest.mark.parametrize(
    "numerator, denominator, inequalities, expected",
    [
        # a vanishing denominator at the end of the first block of 7, at the
        # start of the second and in the third
        ("1", "x1 - 6", (), VANISHES.format(6)),
        ("1", "x1 - 7", (), VANISHES.format(7)),
        ("1", "x1 - 17", (), VANISHES.format(17)),
        # x1 = (t - 9) / (t - 11): zero, so strictly violated, before its
        # denominator vanishes in the same block; then the reverse
        ("x1 - 9", "x1 - 11", [("x1^2", True)], VIOLATES.format(9)),
        ("x1 - 11", "x1 - 9", [("x1^2", True)], VANISHES.format(9)),
        # x1 = 1 / (t - 11) and 2 * x1 + 1 >= 0: zero at 9, which holds, and
        # negative at 10, before the denominator vanishes at 11; then with
        # x1 = 1 / (9 - t), the denominator vanishes at 9 before 2 * x1 + 1
        # is negative at 10
        ("1", "x1 - 11", [("2*x1 + 1", False)], VIOLATES.format(10)),
        ("1", "9 - x1", [("2*x1 + 1", False)], VANISHES.format(9)),
    ],
)
def test_the_first_failure_in_grid_order_is_refused_at_any_block_size(
    monkeypatch, numerator, denominator, inequalities, expected
):
    data = _line_space(numerator, denominator, inequalities)
    whole = _refusal(data)
    monkeypatch.setattr(space_module, "GRID_BLOCK_POINTS", 7)
    assert _refusal(data) == whole == expected


@pytest.mark.parametrize(
    "name, resolution",
    [(name, None) for name in NAMES] + SCALED,
    ids=[*NAMES, *(f"{name}-{resolution}" for name, resolution in SCALED)],
)
def test_every_sample_holds_every_constraint_by_the_oracle(name, resolution, tmp_path):
    # the grid images skip the equations at load: the Fraction oracle
    # checks every equation and inequality at every sample instead
    path = fixture_path(name) if resolution is None else _fixture_file(
        tmp_path, name, resolution
    )
    space = load_space(path)
    assert space.cleared_samples
    assert naive_violations(space) == []


# -- sampler validation -----------------------------------------------------------


def sampled_by(space, sampler):
    """``sample`` of a presentation built from the space's equations and
    inequalities and the one sampler, which validates it when it is built."""
    return sample(replace(space, samplers=(sampler,), sample_points=()))


def test_validate_cone_sampler(cone):
    assert sampled_by(cone, cone.samplers[0]) == sample(cone)


def test_validate_stereographic_sphere_sampler(sphere):
    assert sampled_by(sphere, sphere.samplers[0]) == sample(sphere)


def test_validate_rejects_off_variety_sampler(cone):
    bad = Sampler(
        param_dim=2,
        numerators=(
            poly.parse("x1", 2),
            poly.parse("x2", 2),
            poly.parse("0", 2),
        ),
        denominator=poly.parse("1", 2),
        param_box=((F(-1), F(1)), (F(-1), F(1))),
        param_resolution=3,
    )
    with pytest.raises(SpaceFormatError, match=r"^samplers\[0\]: .* not identically zero"):
        replace(cone, samplers=(bad,))


def test_validate_rejects_sampler_violating_inequalities():
    half_line = SpacePresentation(
        name="half_line",
        ambient_dim=1,
        inequalities=((poly.parse("x1", 1), False),),
    )
    with pytest.raises(SpaceFormatError, match=r"^samplers\[0\]: .* violates the constraints"):
        replace(half_line, samplers=(line_sampler(["x1"], -1, 1, 3),))
    assert sampled_by(half_line, line_sampler(["x1"], 0, 1, 3)) == [
        (F(0),), (F(1, 2),), (F(1),)
    ]


def test_compose_cleared_matches_direct_substitution(sphere):
    # den^deg(g) * g(nums/den) must agree with direct evaluation at params
    s = sphere.samplers[0]
    g = sphere.equations[0]
    cleared = compose_cleared(g, s.numerators, s.denominator)
    assert cleared.is_zero()
    h = poly.parse("x1 + x3", 3)  # not an equation of the sphere
    cleared_h = compose_cleared(h, s.numerators, s.denominator)
    params = (F(1, 3), F(-2, 5))
    den = s.denominator.evaluate(params)
    assert cleared_h.evaluate(params) == den ** h.total_degree() * h.evaluate(
        naive_image(s, params)
    )


small_coefficients = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def small_terms(dim, max_terms, max_exponent):
    exponents = st.tuples(*[st.integers(0, max_exponent)] * dim)
    return st.dictionaries(exponents, small_coefficients, max_size=max_terms).map(
        lambda terms: {e: c for e, c in terms.items() if c != 0}
    )


@st.composite
def compositions(draw):
    ambient_dim, param_dim = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    equation = draw(small_terms(ambient_dim, 5, 3))
    numerators = [draw(small_terms(param_dim, 3, 2)) for _ in range(ambient_dim)]
    denominator = draw(small_terms(param_dim, 3, 2).filter(bool))
    return ambient_dim, param_dim, equation, numerators, denominator


@settings(deadline=None, max_examples=100)
@given(compositions())
def test_compose_cleared_matches_term_by_term_expansion(case):
    ambient_dim, param_dim, equation, numerators, denominator = case
    composed = compose_cleared(
        Polynomial(ambient_dim, equation),
        [Polynomial(param_dim, n) for n in numerators],
        Polynomial(param_dim, denominator),
    )
    assert composed.terms == naive_compose_cleared(
        equation, numerators, denominator, param_dim
    )


@st.composite
def constrained_points(draw):
    dim = draw(st.integers(1, 3))
    point = draw(st.tuples(*[small_coefficients] * dim))

    def constraint():
        terms = draw(small_terms(dim, 4, draw(st.integers(0, 3))))
        if draw(st.booleans()):  # shifted to vanish at the point
            terms = naive_add(terms, {(0,) * dim: -naive_eval(terms, point)})
        return terms

    equations = [constraint() for _ in range(draw(st.integers(0, 2)))]
    inequalities = [
        (constraint(), draw(st.booleans())) for _ in range(draw(st.integers(0, 2)))
    ]
    return dim, equations, inequalities, point


@settings(deadline=None, max_examples=300)
@given(constrained_points())
def test_membership_matches_rational_evaluation(case):
    # equations and inequalities of unequal degrees share one integer scale;
    # the oracle reads each sign in Fractions, zero and negative coordinates
    # and points on a strict boundary included
    dim, equations, inequalities, point = case
    space = SpacePresentation(
        name="drawn",
        ambient_dim=dim,
        equations=tuple(Polynomial(dim, g) for g in equations),
        inequalities=tuple((Polynomial(dim, h), strict) for h, strict in inequalities),
    )
    values = [(naive_eval(h, point), strict) for h, strict in inequalities]
    expected = all(naive_eval(g, point) == 0 for g in equations) and all(
        v > 0 or v == 0 and not strict for v, strict in values
    )
    assert is_member(space, point) == expected


def test_high_degree_composition_fails_load_fast(tmp_path):
    # 286 terms of degree up to 10 over a rational sampler whose image is
    # off the equation's zero set
    path = tmp_path / "composed.json"
    path.write_text(
        json.dumps(
            {
                "name": "composed",
                "ambient_dim": 3,
                "equations": ["(x1+x2+x3+1)^10"],
                "samplers": [
                    {
                        "param_dim": 2,
                        "numerators": ["1+x1+2*x2", "3+x1-x2", "x1+x2+5"],
                        "denominator": "1+x1+x2",
                        "box": [["0", "1"], ["0", "1"]],
                        "resolution": 3,
                    }
                ],
            }
        ),
        encoding="utf-8",
    )
    start = time.perf_counter()
    with pytest.raises(SpaceFormatError, match=r"samplers\[0\]: composition"):
        load_space(path)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize(
    "equation, numerator",
    [("x1^2 - x2^2", "(x1+x2+x3+1)^20"), ("x1^8 - x2^8", "(x1+x2+x3+1)^4")],
)
def test_composition_products_are_bounded_before_they_are_expanded(
    equation, numerator, tmp_path
):
    # valid files (both numerators agree) that took 51.7 s and 6.1 s to
    # load while every product of the composition was expanded unchecked
    data = {
        "name": "composed",
        "ambient_dim": 2,
        "equations": [equation],
        "samplers": [
            {
                "param_dim": 3,
                "numerators": [numerator, numerator],
                "denominator": "1",
                "box": [["0", "1"]] * 3,
                "resolution": 1,
            }
        ],
    }
    path = tmp_path / "composed.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    start = time.perf_counter()
    with pytest.raises(
        SpaceFormatError,
        match=r"^samplers\[0\]: composition with equations\[0\]: more than 2000 terms$",
    ):
        load_space(path)
    assert time.perf_counter() - start < 5


def _cone_with_equations(count):
    # each equation vanishes on the cone and has 934 terms of degree 16
    data = json.loads(fixture_path("cone").read_text(encoding="utf-8"))
    data["equations"] = [
        f"(x1^2+x2^2-x3^2)*(x1+x2+x3+{j})^14" for j in range(1, count + 1)
    ]
    return data


def test_constraint_terms_are_capped_before_composition(monkeypatch):
    calls = []
    compose = space_module.compose_cleared

    def counting(*args):
        calls.append(args)
        return compose(*args)

    monkeypatch.setattr(space_module, "compose_cleared", counting)
    start = time.perf_counter()
    with pytest.raises(
        SpaceFormatError,
        match=r"^equations: the equations and inequalities have more than 2000 terms",
    ):
        space_from_dict(_cone_with_equations(4))
    assert time.perf_counter() - start < 1
    assert calls == []
    (one,) = space_from_dict(_cone_with_equations(1)).equations  # still loads
    assert len(one.terms) == 934 and len(calls) == 1
    # inequalities count towards the same cap
    data = _cone_with_equations(2)
    data["equations"].pop()
    data["inequalities"] = [{"poly": data["equations"][0].replace("^14", "^15")}]
    with pytest.raises(SpaceFormatError, match=r"^equations: "):
        space_from_dict(data)
    assert len(calls) == 1


_FEEDS = {
    "equation": "equations",
    "inequality": "inequalities",
    "sampler": "samplers",
    "point": "sample_points",
}


@pytest.mark.parametrize("extended", [False, True])
@pytest.mark.parametrize("name, points", [
    ("cone", [["0", "0", "0"], ["3", "4", "5"]]),
    ("whitney_umbrella", [["0", "0", "0"], ["2", "1", "4"]]),
])
def test_loading_feeds_each_source_to_the_rules_once(name, points, extended, monkeypatch):
    data = json.loads(fixture_path(name).read_text(encoding="utf-8"))
    if extended:  # a source of every kind
        data["inequalities"] = [{"poly": "x3^2 + 1", "strict": True}]
        data["sample_points"] = points
    fed = []
    for method in _FEEDS:
        feed = getattr(space_module._Rules, method)

        def counting(rules, i, source, feed=feed, method=method):
            fed.append((method, i))
            return feed(rules, i, source)

        monkeypatch.setattr(space_module._Rules, method, counting)
    loaded = space_from_dict(data)
    assert fed == [
        (method, i)
        for method, field in _FEEDS.items()
        for i in range(len(getattr(loaded, field)))
    ]
    assert len(fed) == (5 if extended else 2)


def test_a_build_draws_no_source_past_the_one_refused():
    # each equation has 1,000 terms, so the third passes the 2,000-term cap,
    # and the rules see it before the fourth is drawn
    drawn = []

    def equations():
        for k in range(1, 7):
            drawn.append(k)
            monomials = (f"x1^{e // 100}*x2^{e // 10 % 10}*x3^{e % 10}" for e in range(1000))
            yield poly.parse(" + ".join(f"{k}*{m}" for m in monomials), 3)

    with pytest.raises(SpaceFormatError, match=r"^equations: .* more than 2000 terms together$"):
        SpacePresentation(name="many", ambient_dim=3, equations=equations())
    assert drawn == [1, 2, 3]


def test_a_build_from_any_iterables_is_kept_as_tuples():
    data = json.loads(fixture_path("cone").read_text(encoding="utf-8"))
    data["inequalities"] = [{"poly": "x3^2 + 1", "strict": True}]
    data["sample_points"] = [["0", "0", "0"], ["3", "4", "5"]]
    loaded = space_from_dict(data)
    parts = {"name": loaded.name, "ambient_dim": loaded.ambient_dim}
    fields = {field: getattr(loaded, field) for field in _FEEDS.values()}
    built = SpacePresentation(**parts, **fields)
    from_lists = SpacePresentation(**parts, **{k: list(v) for k, v in fields.items()})
    from_generators = SpacePresentation(**parts, **{k: (x for x in v) for k, v in fields.items()})
    for other in (loaded, from_lists, from_generators):
        assert all(type(getattr(other, field)) is tuple for field in fields)
        assert other == built
        assert hash(other) == hash(built)
        assert other.cleared_samples == built.cleared_samples


# -- caveat heuristic ---------------------------------------------------------------


def test_repeated_factor_caveat():
    doubled = SpacePresentation(
        name="doubled_line",
        ambient_dim=2,
        equations=(poly.parse("x1^2", 2),),
    )
    caveats = repeated_factor_caveats(doubled)
    assert len(caveats) == 1 and "equations[0]" in caveats[0]


def test_reduced_generators_get_no_caveat(cone, umbrella):
    assert repeated_factor_caveats(cone) == []
    assert repeated_factor_caveats(umbrella) == []


def test_a_zero_equation_loads_and_verifies_at_full_dimension(tmp_path, capsys):
    # x1 - x1 parses to zero: it constrains nothing and gets no caveat, so
    # the diagonal (t, t) on [0, 1] is 3 regular records of dimension 2
    data = {
        "name": "zero",
        "ambient_dim": 2,
        "equations": ["x1 - x1"],
        "samplers": [
            {
                "param_dim": 1,
                "numerators": ["x1", "x1"],
                "denominator": "1",
                "box": [["0", "1"]],
                "resolution": 3,
            }
        ],
    }
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    space = load_space(path)
    assert space.equations[0].is_zero()
    assert repeated_factor_caveats(space) == []
    report = verify(space)
    assert [(r.label, r.dim) for r in report.records] == [("regular", 2)] * 3
    assert report.caveats == ()
    assert cli.main(["verify", str(path), "--out", str(tmp_path / "out.json")]) == 0
    capsys.readouterr()


# -- space file format ----------------------------------------------------------------


def test_load_shipped_fixture_round_trip(cone):
    assert cone.name == "cone"
    assert len(cone.equations) == 1
    assert len(cone.samplers) == 1


def test_out_of_range_variable_names_field(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps({"name": "bad", "ambient_dim": 3, "equations": ["x4"]}),
        encoding="utf-8",
    )
    with pytest.raises(SpaceFormatError, match=r"equations\[0\]"):
        load_space(bad)


def test_failing_sampler_identity_names_sampler_and_equation(tmp_path):
    bad = tmp_path / "bad_sampler.json"
    bad.write_text(
        json.dumps(
            {
                "name": "bad",
                "ambient_dim": 3,
                "equations": ["x1^2 + x2^2 - x3^2"],
                "samplers": [
                    {
                        "param_dim": 2,
                        "numerators": ["x1", "x2", "0"],
                        "denominator": "1",
                        "box": [["-1", "1"], ["-1", "1"]],
                        "resolution": 3,
                    }
                ],
            }
        ),
        encoding="utf-8",
    )
    with pytest.raises(SpaceFormatError, match=r"samplers\[0\].*equations\[0\]"):
        load_space(bad)


def test_non_member_sample_point_rejected_at_load():
    with pytest.raises(SpaceFormatError, match=r"sample_points\[0\]"):
        space_from_dict(
            {
                "name": "bad",
                "ambient_dim": 2,
                "equations": ["x1*x2"],
                "sample_points": [["1", "1"]],
            }
        )


def test_missing_fields_and_bad_rationals():
    with pytest.raises(SpaceFormatError, match=r"\$\.name"):
        space_from_dict({"ambient_dim": 2})
    with pytest.raises(SpaceFormatError, match=r"\$\.ambient_dim"):
        space_from_dict({"name": "x", "ambient_dim": "huge"})
    with pytest.raises(SpaceFormatError, match=r"sample_points\[0\]\[0\]"):
        space_from_dict(
            {
                "name": "x",
                "ambient_dim": 1,
                "sample_points": [["one"]],
            }
        )


@pytest.mark.parametrize(
    "field, value, where",
    [
        ("equations", ["(x1+x2+x3+1)^40"], r"equations\[0\]: more than 2000 terms"),
        ("equations", ["(x1+1)^400000"], r"equations\[0\]: degree 400000 is above 64"),
        ("equations", ["1" * 5000 + "*x1"], r"equations\[0\]: integer has more than"),
        ("sample_points", [["1e5000", "0", "0"]], r"sample_points\[0\]\[0\]: expected"),
    ],
)
def test_oversized_input_fails_fast_naming_its_field(tmp_path, field, value, where):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"name": "big", "ambient_dim": 3, field: value}))
    start = time.perf_counter()
    with pytest.raises(SpaceFormatError, match=where) as info:
        load_space(path)
    assert time.perf_counter() - start < 1
    assert len(str(info.value)) < 200  # the offending text is quoted in part


@pytest.mark.parametrize(
    "field, value",
    [
        ("equations", 5),
        ("equations", "x1"),
        ("inequalities", {"poly": "x1"}),
        ("samplers", 3),
        ("sample_points", "1"),
        ("numerators", "x1"),
    ],
)
def test_list_fields_must_be_arrays(tmp_path, field, value):
    data = {"name": "bad", "ambient_dim": 1}
    name = f"$.{field}"
    if field == "numerators":
        data["samplers"] = [
            {"param_dim": 1, "numerators": value, "box": [["0", "1"]], "resolution": 2}
        ]
        name = "samplers[0].numerators"
    else:
        data[field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(SpaceFormatError, match=rf"^{re.escape(name)}: expected list"):
        load_space(path)


def _half_line_data():
    return {
        "name": "half",
        "ambient_dim": 1,
        "inequalities": [{"poly": "x1", "strict": True}],
        "samplers": [
            {"param_dim": 1, "numerators": ["x1"], "box": [["1", "2"]], "resolution": 5}
        ],
    }


@pytest.mark.parametrize(
    "where, key, name",
    [
        (lambda d: d, "inequality", "$.inequality"),
        (lambda d: d, "Name", "$.Name"),
        (lambda d: d["samplers"][0], "denominators", "samplers[0].denominators"),
        (lambda d: d["samplers"][0], "resolutions", "samplers[0].resolutions"),
        (lambda d: d["inequalities"][0], "strictly", "inequalities[0].strictly"),
    ],
    ids=["$.inequality", "$.Name", "denominators", "resolutions", "strictly"],
)
def test_unknown_fields_are_refused_by_name(where, key, name):
    # a misspelt optional field was dropped: "inequality" for
    # "inequalities" left the half line unconstrained on [-2, 2]
    data = _half_line_data()
    space_from_dict(data)  # every field known
    where(data)[key] = []
    with pytest.raises(SpaceFormatError, match=rf"^{re.escape(name)}: unknown field$"):
        space_from_dict(data)


def test_unreadable_file_reports_input_error(tmp_path):
    with pytest.raises(SpaceFormatError):
        load_space(tmp_path / "missing.json")
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json", encoding="utf-8")
    with pytest.raises(SpaceFormatError, match="invalid JSON"):
        load_space(garbled)


def _fixture_file(tmp_path, name, resolution):
    """The fixture's space file with every sampler at ``resolution``."""
    data = json.loads(fixture_path(name).read_text(encoding="utf-8"))
    for sampler in data["samplers"]:
        sampler["resolution"] = resolution
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def test_ambient_dim_is_capped_at_load(tmp_path):
    def wide(n):
        data = {"name": "wide", "ambient_dim": n, "equations": ["x1"]}
        data["sample_points"] = [["0"] * n]
        path = tmp_path / f"wide{n}.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        return path

    assert load_space(wide(MAX_AMBIENT_DIM)).ambient_dim == MAX_AMBIENT_DIM
    with pytest.raises(SpaceFormatError, match=r"^\$\.ambient_dim: must be at most"):
        load_space(wide(MAX_AMBIENT_DIM + 1))


@pytest.mark.parametrize("param_dim", [3_000_000, 0, -1])
def test_param_dim_is_capped_before_any_parse(tmp_path, param_dim):
    sampler = {"param_dim": param_dim, "numerators": ["x1"], "box": [["0", "1"]],
               "resolution": 2}
    data = {"name": "wide", "ambient_dim": 1, "samplers": [sampler]}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    start = time.perf_counter()
    with pytest.raises(SpaceFormatError, match=r"^samplers\[0\]\.param_dim: must be"):
        load_space(path)
    assert time.perf_counter() - start < 1


def test_grid_size_is_capped_per_file(tmp_path):
    data = json.loads(fixture_path("cone").read_text(encoding="utf-8"))
    # 316^2 = 99,856 grid points each: under the cap alone, over it together
    data["samplers"] = [{**data["samplers"][0], "resolution": 316}] * 4
    path = tmp_path / "cones.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    start = time.perf_counter()
    with pytest.raises(SpaceFormatError, match=r"^samplers\[1\]\.resolution"):
        load_space(path)
    assert time.perf_counter() - start < 1


def test_grid_size_is_capped_at_load(tmp_path):
    _, grid = load_space(_fixture_file(tmp_path, "cone", 49)).samplers[0]._integer_grid()
    assert sum(1 for _ in grid) == 2401
    path = _fixture_file(tmp_path, "cone", 317)  # 317^2 = 100,489 grid points
    start = time.perf_counter()
    with pytest.raises(SpaceFormatError, match=r"samplers\[0\]\.resolution"):
        load_space(path)
    assert time.perf_counter() - start < 1


def test_explicit_points_count_toward_the_grid_cap():
    # 99,990 grid points and 11 explicit ones: the 11th passes the cap
    data = {
        "name": "line",
        "ambient_dim": 1,
        "samplers": [
            {"param_dim": 1, "numerators": ["x1"], "box": [["0", "1"]], "resolution": 99_990}
        ],
        "sample_points": [[str(k)] for k in range(2, 13)],
    }
    start = time.perf_counter()
    with pytest.raises(SpaceFormatError, match=r"^sample_points\[10\]: the samplers' grids"):
        space_from_dict(data)
    assert time.perf_counter() - start < 1
    data["sample_points"].pop()
    assert space_from_dict(data).sample_points[-1] == (F(11),)


def test_the_integer_sample_table_is_bounded_before_any_point_is_scaled():
    # 400 points 1/(10^999 + i): their common denominator grows by 1,000
    # digits a point, so a table over it grows quadratically (400 points
    # took about 12 s and 85 MB to verify before the table was bounded).
    # The file loads; the neighbour index owns the table and refuses it
    # from the count of points and the lcm, before it scales any point
    big = 10**999
    data = {"name": "line", "ambient_dim": 1,
            "sample_points": [[f"1/{big + i}"] for i in range(400)]}
    start = time.perf_counter()
    forms = space_from_dict(data).cleared_samples
    assert len(forms) == 400
    # k samples over about 3,322 k bits pass MAX_TABLE_BITS = 10^8 at k = 174
    with pytest.raises(SubcartError) as info:
        NeighbourIndex(forms[:174])
    assert str(info.value) == "174 samples over a 576501-bit denominator pass 100000000 bits"
    assert time.perf_counter() - start < 1
    index = NeighbourIndex(forms[:173])
    assert 173 * index._scale.bit_length() <= MAX_TABLE_BITS


# the bits of each fixture's table scale, and the candidate pairs of its
# default radius, at resolution 99
AT_RESOLUTION_99 = {
    "sphere": (6_034, 676_548),
    "whitney_umbrella": (12, 96_260),
    "cone": (12, 71_403),
}


@pytest.mark.parametrize("name", ["sphere", "whitney_umbrella", "cone"])
def test_fixtures_at_resolution_99_load_under_the_table_bound(name, monkeypatch):
    # the sphere's common denominator has 1,817 digits (6,034 bits) at
    # resolution 99, against at most 5 digits for each sample's, and its
    # default radius leaves the most candidate pairs
    data = json.loads(fixture_path(name).read_text(encoding="utf-8"))
    for sampler in data["samplers"]:
        sampler["resolution"] = 99
    forms = space_from_dict(data).cleared_samples
    index = NeighbourIndex(forms)
    bits, pairs = AT_RESOLUTION_99[name]
    assert index._scale.bit_length() == bits
    assert len(forms) * bits <= MAX_TABLE_BITS
    # with no pair allowed, the refusal names the count before comparing
    monkeypatch.setattr(importlib.import_module("subcart.stratify"), "MAX_NEIGHBOUR_PAIRS", 0)
    with pytest.raises(SubcartError, match=f" leaves {pairs} sample pairs to compare, "):
        index.neighbours(0)
    assert pairs <= MAX_NEIGHBOUR_PAIRS
