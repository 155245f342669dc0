import json
import re
import time
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from subcart import poly, space as space_module, stratify, verify
from subcart.errors import (
    DimensionMismatchError,
    NoSampleSourceError,
    SamplerInvariantError,
    SpaceFormatError,
)
from subcart.space import (
    MAX_AMBIENT_DIM,
    IdealWitness,
    RingElement,
    Sampler,
    SpacePresentation,
    compose_cleared,
    is_member,
    load_space,
    repeated_factor_caveats,
    representatives_agree,
    sample,
    space_from_dict,
    validate_sampler,
)
from subcart.fixtures import fixture_path
from subcart.poly import Polynomial

from oracles import grid_points, naive_add, naive_compose_cleared, naive_eval


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
    expected = sample(replace(loaded))  # built directly, so validated here
    assert points == expected
    points.clear()
    assert sample(loaded) == expected


def test_sampler_inequality_violation_raises():
    space = SpacePresentation(
        name="bad_half_line",
        ambient_dim=1,
        inequalities=((poly.parse("x1", 1), False),),
        samplers=(line_sampler(["x1"], -1, 1, 3),),
    )
    with pytest.raises(SamplerInvariantError):
        sample(space)


# -- sampler validation -----------------------------------------------------------


def test_validate_cone_sampler(cone):
    assert validate_sampler(cone, cone.samplers[0])


def test_validate_stereographic_sphere_sampler(sphere):
    assert validate_sampler(sphere, sphere.samplers[0])


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
    assert not validate_sampler(cone, bad)


def test_validate_rejects_sampler_violating_inequalities():
    half_line = SpacePresentation(
        name="half_line",
        ambient_dim=1,
        inequalities=((poly.parse("x1", 1), False),),
    )
    assert not validate_sampler(half_line, line_sampler(["x1"], -1, 1, 3))
    assert validate_sampler(half_line, line_sampler(["x1"], 0, 1, 3))


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
        s.image(params)
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


# -- representative equality -----------------------------------------------------


def test_cone_representatives_agree(cone):
    f = RingElement(cone, poly.parse("x3^2", 3))
    g = RingElement(cone, poly.parse("x1^2 + x2^2", 3))
    witness = IdealWitness((poly.parse("-1", 3),))
    assert representatives_agree(f, g, witness)
    # restriction to S is then well-defined on every sampled point
    for point in sample(cone):
        assert f.representative.evaluate(point) == g.representative.evaluate(point)


def test_identical_representatives_with_zero_witness(cone):
    f = RingElement(cone, poly.parse("x1*x2 - 1/3", 3))
    witness = IdealWitness((poly.parse("0", 3),))
    assert representatives_agree(f, f, witness)


def test_disagreeing_representatives(cone):
    f = RingElement(cone, poly.parse("x1", 3))
    g = RingElement(cone, poly.parse("x2", 3))
    witness = IdealWitness((poly.parse("0", 3),))
    assert not representatives_agree(f, g, witness)


def test_witness_length_mismatch(cone):
    f = RingElement(cone, poly.parse("x1", 3))
    with pytest.raises(DimensionMismatchError):
        representatives_agree(f, f, IdealWitness(()))


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


def test_unreadable_file_reports_input_error(tmp_path):
    with pytest.raises(SpaceFormatError):
        load_space(tmp_path / "missing.json")
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json", encoding="utf-8")
    with pytest.raises(SpaceFormatError, match="invalid JSON"):
        load_space(garbled)


def _cone_file(tmp_path, resolution):
    data = json.loads(fixture_path("cone").read_text(encoding="utf-8"))
    data["samplers"][0]["resolution"] = resolution
    path = tmp_path / "cone.json"
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


def test_sampler_image_checks_the_parameter_count(cone):
    for params in ((1,), (1, 2, 3)):
        with pytest.raises(DimensionMismatchError, match="point has length"):
            cone.samplers[0].image(params)


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
    _, grid = load_space(_cone_file(tmp_path, 49)).samplers[0]._integer_grid()
    assert sum(1 for _ in grid) == 2401
    path = _cone_file(tmp_path, 317)  # 317^2 = 100,489 grid points
    start = time.perf_counter()
    with pytest.raises(SpaceFormatError, match=r"samplers\[0\]\.resolution"):
        load_space(path)
    assert time.perf_counter() - start < 1
