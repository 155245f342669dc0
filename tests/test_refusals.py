"""Every refusal of bad input, each pinned by the error it raises: the
loader's field checks as mutations of a shipped fixture (each a
``SpaceFormatError`` naming its field, and exit 2 through ``cli.main``),
each with the same field and message when the presentation is built
directly, as are drawn presentations near the caps; the neighbour
index's bounds on its integer table and on its candidate pairs (exit 2
too, from a file that loads), the checks of directly built presentations
(a sampler is checked as part of the presentation that holds it), the
polynomial constructor and parser, and the few checks of the CLI.
Every refusal is a ``SubcartError``, so a caller that catches the
package's errors catches each of them.
"""

import importlib
import json
import time
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from subcart import cli
from subcart.errors import (
    DimensionMismatchError,
    ParseError,
    SpaceFormatError,
    SubcartError,
)
from subcart.fixtures import NAMES, fixture_path
from subcart.poly import Polynomial, constant, parse, parse_rational, variable
from subcart.space import (
    MAX_GRID_POINTS,
    MAX_TERM_EVALUATIONS,
    Sampler,
    SpacePresentation,
    load_space,
    space_from_dict,
)
from subcart.stratify import MAX_NEIGHBOUR_PAIRS, NeighbourIndex
from subcart.tangent import is_tangent


def _set(path, value):
    """A mutation of the cone's space file: the file with the field at
    ``path`` (keys and indices) set to ``value``."""

    def mutate(data):
        *parents, last = path
        owner = data
        for key in parents:
            owner = owner[key]
        owner[last] = value
        return data

    return mutate


# (mutation of the cone's space file, the field its SpaceFormatError names)
LOADER_REFUSALS = {
    "not an object": (lambda data: [data], "$"),
    "ambient_dim 0": (_set(["ambient_dim"], 0), "$.ambient_dim"),
    "equation not a string": (_set(["equations"], [5]), "equations[0]"),
    "inequality not an object": (_set(["inequalities"], ["x1"]), "inequalities[0]"),
    "strict not a boolean": (
        _set(["inequalities"], [{"poly": "x3", "strict": "yes"}]), "inequalities[0].strict"
    ),
    "sampler not an object": (_set(["samplers"], [3]), "samplers[0]"),
    "two numerators": (
        _set(["samplers", 0, "numerators"], ["x1", "x2"]), "samplers[0].numerators"
    ),
    "one box entry": (_set(["samplers", 0, "box"], [["-2", "2"]]), "samplers[0].box"),
    "box entry not a pair": (_set(["samplers", 0, "box", 0], ["-2"]), "samplers[0].box[0]"),
    "box lo above hi": (_set(["samplers", 0, "box", 0], ["2", "-2"]), "samplers[0].box[0]"),
    "box end not a string": (
        _set(["samplers", 0, "box", 0], [-2, "2"]), "samplers[0].box[0][0]"
    ),
    "resolution 0": (_set(["samplers", 0, "resolution"], 0), "samplers[0].resolution"),
    # the cone's equation is homogeneous, so x1 passes the composition
    # and vanishes at the grid parameter x1 = 0
    "denominator vanishes": (
        _set(["samplers", 0, "denominator"], "x1"), "samplers[0].denominator"
    ),
    "short sample point": (_set(["sample_points"], [["0", "0"]]), "sample_points[0]"),
}


@pytest.mark.parametrize("mutate, field", LOADER_REFUSALS.values(), ids=list(LOADER_REFUSALS))
def test_each_loader_refusal_names_its_field_and_exits_2(mutate, field, tmp_path, capsys):
    data = mutate(json.loads(fixture_path("cone").read_text(encoding="utf-8")))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(SpaceFormatError) as info:
        load_space(path)
    assert info.value.field == field
    assert cli.main(["verify", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {info.value}\n" and err.startswith(f"error: {field}: ")


def _with_sampler(cone, **changes):
    return replace(cone, samplers=(replace(cone.samplers[0], **changes),))


# each semantic case of LOADER_REFUSALS, built directly from the loaded cone
DIRECT_BUILDS = {
    "ambient_dim 0": lambda cone: replace(cone, ambient_dim=0),
    "two numerators": lambda cone: _with_sampler(
        cone, numerators=(parse("x1", 2), parse("x2", 2))
    ),
    "one box entry": lambda cone: _with_sampler(cone, param_box=((F(-2), F(2)),)),
    "box lo above hi": lambda cone: _with_sampler(
        cone, param_box=((F(2), F(-2)), (F(-2), F(2)))
    ),
    "resolution 0": lambda cone: _with_sampler(cone, param_resolution=0),
    "denominator vanishes": lambda cone: _with_sampler(cone, denominator=parse("x1", 2)),
    "short sample point": lambda cone: replace(cone, sample_points=((F(0), F(0)),)),
}


@pytest.mark.parametrize("name", list(DIRECT_BUILDS))
def test_a_direct_build_gets_the_loaders_field_and_message(name, cone, tmp_path):
    mutate, field = LOADER_REFUSALS[name]
    data = mutate(json.loads(fixture_path("cone").read_text(encoding="utf-8")))
    with pytest.raises(SpaceFormatError) as loaded:
        load_space(_write(tmp_path, data))
    with pytest.raises(SpaceFormatError) as built:
        DIRECT_BUILDS[name](cone)
    assert built.value.field == loaded.value.field == field
    assert str(built.value) == str(loaded.value)


def test_a_shape_message_prints_no_point_and_no_polynomial(cone):
    # each raised a ValueError from str() of a 5,000-digit integer
    huge = 10**4999
    with pytest.raises(SpaceFormatError) as info:
        replace(cone, equations=(Polynomial(2, {(1, 0): huge}),))
    assert str(info.value) == "equations[0]: expected a polynomial in x1..x3, got one in x1..x2"
    with pytest.raises(SpaceFormatError) as info:
        replace(cone, sample_points=((F(huge), F(0)),))
    assert str(info.value) == "sample_points[0]: expected 3 entries, got 2"


def test_a_space_file_that_is_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"name": "caf\xff", "ambient_dim": 1}')
    with pytest.raises(SpaceFormatError) as info:
        load_space(path)
    assert info.value.field == "$"
    assert _exits_2_at_once(["verify", str(path)], capsys) == f"error: {info.value}\n"


def _write(tmp_path, data):
    path = tmp_path / f"{data['name']}.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def _exits_2_at_once(argv, capsys):
    """The one ``error:`` line of a CLI call that must exit 2 in under 1 s."""
    start = time.perf_counter()
    assert cli.main(argv) == 2
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and err.startswith("error: ")
    return err


def test_a_table_past_its_bits_loads_and_is_refused_by_the_index(tmp_path, capsys):
    # 400 points 1/(10^999 + i): the lcm of their denominators grows by
    # 1,000 digits a point; 400 samples pass MAX_TABLE_BITS = 10^8 at the
    # 76th new denominator, before any point is scaled
    big = 10**999
    data = {"name": "line", "ambient_dim": 1,
            "sample_points": [[f"1/{big + i}"] for i in range(400)]}
    path = _write(tmp_path, data)
    forms = load_space(path).cleared_samples
    assert len(forms) == 400
    message = "400 samples over a 251895-bit denominator pass 100000000 bits"
    with pytest.raises(SubcartError, match=f"^{message}$"):
        NeighbourIndex(forms)
    point = ["--point", f"1/{big}"]
    for argv in (["verify"], ["stratify"], ["classify", *point], ["frame", *point]):
        err = _exits_2_at_once([argv[0], str(path), *argv[1:]], capsys)
        assert err == f"error: {message}\n", argv[0]


def _wall(resolution):
    """x2 = 0 in R^2, sampled on [0, 1/1000], and two far points that set
    the default radius to 10: every sampled point is in one cell."""
    sampler = {"param_dim": 1, "numerators": ["x1", "0"], "box": [["0", "1/1000"]],
               "resolution": resolution}
    return {"name": "wall", "ambient_dim": 2, "equations": ["x2"], "samplers": [sampler],
            "sample_points": [["10", "0"], ["20", "0"]]}


def _cube():
    """R^12 with no equation, sampled at the 4,096 corners of the unit
    cube: all of them within the default radius 1 of each other."""
    sampler = {"param_dim": 12, "numerators": [f"x{i}" for i in range(1, 13)],
               "box": [["0", "1"]] * 12, "resolution": 2}
    return {"name": "cube", "ambient_dim": 12, "samplers": [sampler]}


@pytest.mark.parametrize(
    "data, radius, pairs",
    [(_wall(2_000), "10", 2_001_001), (_cube(), "1", 8_386_560)],
    ids=["wall", "cube"],
)
def test_too_many_neighbour_pairs_are_refused_before_any_is_compared(
    data, radius, pairs, tmp_path, capsys
):
    path = _write(tmp_path, data)
    expected = (
        f"error: radius {radius} leaves {pairs} sample pairs to compare, more than "
        f"{MAX_NEIGHBOUR_PAIRS}; give a smaller --radius\n"
    )
    for command in ("verify", "stratify"):
        assert _exits_2_at_once([command, str(path)], capsys) == expected


def test_the_wall_at_half_the_resolution_stays_under_the_pair_budget(monkeypatch):
    # with no pair allowed, the refusal names the count before comparing
    index = NeighbourIndex(space_from_dict(_wall(1_000)).cleared_samples)
    monkeypatch.setattr(importlib.import_module("subcart.stratify"), "MAX_NEIGHBOUR_PAIRS", 0)
    with pytest.raises(SubcartError, match="^radius 10 leaves 500501 sample pairs to compare, "):
        index.neighbours(0)
    assert 500_501 <= MAX_NEIGHBOUR_PAIRS


def _sampler(**changes):
    fields = {
        "param_dim": 1,
        "numerators": (parse("x1", 1),),
        "denominator": parse("x1", 1),
        "param_box": ((F(0), F(1)),),
        "param_resolution": 2,
    }
    return Sampler(**{**fields, **changes})


ONE = parse("1", 1)


def _space(**changes):
    return SpacePresentation(**{"name": "line", "ambient_dim": 1, **changes})


def _ray(strict, lo):
    """The line x2 = x1 over x1 >= 0 (> 0 if ``strict``), sampled on
    [1, 2] and then on [lo, 1]."""
    line = (parse("x1", 1), parse("x1", 1))
    return SpacePresentation(
        "ray", 2,
        equations=(parse("x2 - x1", 2),),
        inequalities=((parse("x1", 2), strict),),
        samplers=(
            _sampler(numerators=line, denominator=ONE, param_box=((F(1), F(2)),)),
            _sampler(numerators=line, denominator=ONE, param_box=((F(lo), F(1)),)),
        ),
    )


def _wide_sampler(param_dim):
    """The line sampled by the first of ``param_dim`` parameters."""
    return Sampler(
        param_dim=param_dim,
        numerators=(variable(1, param_dim),),
        denominator=constant(1, param_dim),
        param_box=((F(0), F(1)),) * param_dim,
        param_resolution=1,
    )


def _terms(count):
    """A polynomial in x1, x2 of ``count`` terms."""
    return Polynomial(2, {(k // 50, k % 50): 1 for k in range(count)})


def _cone_at(resolution):
    """The shipped cone by ``dataclasses.replace``, its sampler at
    ``resolution``: built with no size check of the loader's."""
    cone = load_space(fixture_path("cone"))
    (sampler,) = cone.samplers
    return replace(cone, samplers=(replace(sampler, param_resolution=resolution),))


GRID_CAP = (
    f"the samplers' grids and sample points have more than {MAX_GRID_POINTS} points together"
)


# (build, the error it raises, a part of its message)
CONSTRUCTION_REFUSALS = {
    # a sampler is checked as part of its presentation; each shape defect
    # of a direct build is refused with the loader's field
    "box of two entries": (
        lambda: _space(samplers=(_sampler(param_box=((F(0), F(1)),) * 2),)),
        SpaceFormatError, "samplers[0].box: expected 1 entries, got 2",
    ),
    "numerator off the parameter ring": (
        lambda: _space(samplers=(_sampler(numerators=(parse("x1", 2),)),)),
        SpaceFormatError,
        "samplers[0].numerators[0]: expected a polynomial in x1..x1, got one in x1..x2",
    ),
    "resolution 0": (
        lambda: _space(samplers=(_sampler(param_resolution=0),)),
        SpaceFormatError, "samplers[0].resolution: must be >= 1",
    ),
    "equation of another dimension": (
        lambda: _space(equations=(parse("x2", 2),)),
        SpaceFormatError, "equations[0]: expected a polynomial in x1..x1, got one in x1..x2",
    ),
    "inequality of another dimension": (
        lambda: _space(inequalities=((parse("x2", 2), True),)),
        SpaceFormatError,
        "inequalities[0].poly: expected a polynomial in x1..x1, got one in x1..x2",
    ),
    "sampler of two numerators": (
        lambda: _space(samplers=(_sampler(numerators=(parse("x1", 1),) * 2),)),
        SpaceFormatError, "samplers[0].numerators: expected 1 entries, got 2",
    ),
    "sample point of length 2": (
        lambda: _space(sample_points=((F(0), F(0)),)),
        SpaceFormatError, "sample_points[0]: expected 1 entries, got 2",
    ),
    # a presentation validates its sample sources when it is built, with
    # the loader's messages
    "off-variety sampler": (
        lambda: _space(equations=(parse("x1 - 1", 1),), samplers=(_sampler(denominator=ONE),)),
        SpaceFormatError, "samplers[0]: composition with equations[0] is not identically zero",
    ),
    "grid image violating an inequality": (
        lambda: _space(
            inequalities=((parse("x1", 1), True),), samplers=(_sampler(denominator=ONE),)
        ),
        SpaceFormatError, "samplers[0]: grid image at parameters (0) violates the constraints",
    ),
    # on the line x2 = x1 every image passes the equation by the
    # composition identity, so only the inequality refuses samplers[1]
    "grid image at zero of a strict inequality": (
        lambda: _ray(True, 0), SpaceFormatError,
        "samplers[1]: grid image at parameters (0) violates the constraints",
    ),
    "grid image below an inequality": (
        lambda: _ray(False, -1), SpaceFormatError,
        "samplers[1]: grid image at parameters (-1) violates the constraints",
    ),
    "sampler denominator vanishing": (
        lambda: _space(samplers=(_sampler(),)),
        SpaceFormatError, "samplers[0].denominator: vanishes at grid parameters (0)",
    ),
    "sample point off the space": (
        lambda: _space(equations=(parse("x1", 1),), sample_points=((F(1),),)),
        SpaceFormatError, "sample_points[0]: point is not a member",
    ),
    "replace with a bad sampler": (
        lambda: replace(
            _space(samplers=(_sampler(denominator=ONE),)),
            samplers=(_sampler(denominator=ONE), _sampler()),
        ),
        SpaceFormatError, "samplers[1].denominator: vanishes at grid parameters (0)",
    ),
    # a presentation holds the loader's size caps, with its messages, and
    # checks them before any composition or grid image
    "ambient_dim 0": (lambda: _space(ambient_dim=0), SpaceFormatError,
                      "$.ambient_dim: must be a positive integer"),
    "ambient_dim 13": (lambda: _space(ambient_dim=13), SpaceFormatError,
                       "$.ambient_dim: must be at most 12"),
    "param_dim 13": (
        lambda: _space(samplers=(_wide_sampler(1), _wide_sampler(13))),
        SpaceFormatError, "samplers[1].param_dim: must be in 1..12",
    ),
    "grid past the cap": (
        lambda: _space(samplers=(_sampler(denominator=ONE, param_resolution=100_001),)),
        SpaceFormatError, f"samplers[0].resolution: {GRID_CAP}",
    ),
    "explicit point past the cap": (
        lambda: _space(
            samplers=(_sampler(denominator=ONE, param_resolution=99_999),),
            sample_points=((F(2),), (F(3),), (F(4),)),
        ),
        SpaceFormatError, f"sample_points[1]: {GRID_CAP}",
    ),
    "terms past the cap": (
        lambda: SpacePresentation(
            "plane", 2, equations=(_terms(1_500),), inequalities=((_terms(501), False),)
        ),
        SpaceFormatError,
        "equations: the equations and inequalities have more than 2000 terms together",
    ),
    "replace at resolution 330": (
        lambda: _cone_at(330), SpaceFormatError, f"samplers[0].resolution: {GRID_CAP}",
    ),
    "no variables": (
        lambda: Polynomial(0, {}), DimensionMismatchError, "ambient_dim must be >= 1"
    ),
    "exponent of another length": (
        lambda: Polynomial(2, {(1,): 1}),
        DimensionMismatchError, "exponent vector (1,) has length 1, expected 2",
    ),
    "negative exponent": (
        lambda: Polynomial(1, {(-1,): 1}), SubcartError, "negative exponent in (-1,)"
    ),
    "variable out of range": (
        lambda: variable(3, 2), DimensionMismatchError, "variable index 3 out of range 1..2"
    ),
    "x without an index": (
        lambda: parse("x + 1", 1), ParseError, "expected variable index after 'x'"
    ),
    "denominator not an integer": (
        lambda: parse("1/x1", 1), ParseError, "expected integer denominator after '/'"
    ),
}


@pytest.mark.parametrize(
    "build, error, message", CONSTRUCTION_REFUSALS.values(), ids=list(CONSTRUCTION_REFUSALS)
)
def test_each_construction_refusal_raises_its_error(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error
    assert message in str(info.value)


def test_the_resolution_330_cone_is_refused_at_once_as_its_file_is(tmp_path, monkeypatch):
    # 108,900 grid points, which took about a second to build and validate
    # while only the loader held the cap; no cap composes or samples
    data = json.loads(fixture_path("cone").read_text(encoding="utf-8"))
    data["samplers"][0]["resolution"] = 330
    with pytest.raises(SpaceFormatError) as loaded:
        load_space(_write(tmp_path, data))
    cone = load_space(fixture_path("cone"))
    big = replace(cone.samplers[0], param_resolution=330)
    calls = []
    space_module = importlib.import_module("subcart.space")
    monkeypatch.setattr(space_module, "compose_cleared", lambda *args: calls.append(args))
    monkeypatch.setattr(Sampler, "_integer_grid", lambda *args: calls.append(args))
    start = time.perf_counter()
    with pytest.raises(SpaceFormatError) as built:
        replace(cone, samplers=(big,))
    assert time.perf_counter() - start < 0.1
    assert str(built.value) == str(loaded.value)
    assert built.value.field == loaded.value.field == "samplers[0].resolution"
    for name in ("terms past the cap", "param_dim 13", "explicit point past the cap"):
        with pytest.raises(SpaceFormatError):
            CONSTRUCTION_REFUSALS[name][0]()
    assert calls == []


def _heavy(where, resolution):
    """The plane sampled over [0, 1]^2 at ``resolution``, with the
    1,953-term (x1 + x2 + 1)^61 as its sampler's first numerator, or as
    an inequality over an identity sampler."""
    heavy = "(x1+x2+1)^61"
    sampler = {"param_dim": 2, "numerators": ["x1", "x2"], "box": [["0", "1"]] * 2,
               "resolution": resolution}
    data = {"name": f"heavy_{where}", "ambient_dim": 2, "samplers": [sampler]}
    if where == "numerator":
        sampler["numerators"][0] = heavy
    else:
        data["inequalities"] = [{"poly": heavy}]
    return data


@pytest.mark.parametrize("where", ["numerator", "inequality"])
def test_the_term_evaluations_of_a_load_are_capped_before_any_grid_image(
    where, tmp_path, monkeypatch
):
    # about 1.96 * 10^7 term evaluations at resolution 100, which took
    # 13.9 s and 10.4 s to load before the cap
    start = time.perf_counter()
    with pytest.raises(SpaceFormatError) as loaded:
        load_space(_write(tmp_path, _heavy(where, 100)))
    assert time.perf_counter() - start < 1
    space = load_space(_write(tmp_path, _heavy(where, 2)))
    calls = []
    space_module = importlib.import_module("subcart.space")
    monkeypatch.setattr(space_module, "compose_cleared", lambda *args: calls.append(args))
    monkeypatch.setattr(Sampler, "_integer_grid", lambda *args: calls.append(args))
    start = time.perf_counter()
    with pytest.raises(SpaceFormatError) as built:
        _with_sampler(space, param_resolution=100)
    assert time.perf_counter() - start < 1
    assert calls == []
    assert built.value.field == loaded.value.field == "samplers[0].resolution"
    assert str(built.value) == str(loaded.value) == (
        "samplers[0].resolution: the samplers' grids and sample points take more than "
        f"{MAX_TERM_EVALUATIONS} term evaluations together"
    )


def _jacobian_heavy(resolution=None, points=0):
    """One equation of 1,650 terms whose three partials hold 1,430-1,440
    terms each, sampled as (t1, t1, t2) over [0, 1]^2 at ``resolution``,
    or at ``points`` explicit points on the plane x1 = x2."""
    data = {"name": "jacobian_heavy", "ambient_dim": 3,
            "equations": ["(x1-x2)*(x1+x2+x3+1)^19"]}
    if resolution is not None:
        data["samplers"] = [{"param_dim": 2, "numerators": ["x1", "x1", "x2"],
                             "box": [["0", "1"]] * 2, "resolution": resolution}]
    data["sample_points"] = [[f"{k}/{points}"] * 2 + ["0"] for k in range(points)]
    return data


@pytest.mark.parametrize("resolution", [30, 100])
def test_the_jacobians_of_the_grid_are_charged_at_load(resolution, tmp_path):
    # verify took 1.5-2.0 s at resolution 30 and 19-25 s at 100 before the
    # load charged the equation's partials at every grid image
    start = time.perf_counter()
    with pytest.raises(SpaceFormatError) as loaded:
        load_space(_write(tmp_path, _jacobian_heavy(resolution)))
    assert time.perf_counter() - start < 1
    assert str(loaded.value) == (
        "samplers[0].resolution: the samplers' grids and sample points take more than "
        f"{MAX_TERM_EVALUATIONS} term evaluations together"
    )


def test_a_grid_whose_jacobians_are_cheap_enough_still_loads(tmp_path):
    space = load_space(_write(tmp_path, _jacobian_heavy(18)))
    assert len(space.cleared_samples) == 18**2


def test_the_jacobians_of_explicit_points_are_charged_at_load():
    start = time.perf_counter()
    with pytest.raises(SpaceFormatError, match=r"^sample_points\[\d+\]: the samplers' grids"):
        space_from_dict(_jacobian_heavy(points=400))
    assert time.perf_counter() - start < 1
    assert len(space_from_dict(_jacobian_heavy(points=200)).sample_points) == 200


def _built(data):
    """The arguments of ``SpacePresentation`` for a space file of the
    right shapes, parsed as the loader parses them."""
    n = data["ambient_dim"]

    def sampler(entry):
        k = entry["param_dim"]
        return Sampler(
            k,
            tuple(parse(text, k) for text in entry["numerators"]),
            parse(entry.get("denominator", "1"), k),
            tuple((parse_rational(lo), parse_rational(hi)) for lo, hi in entry["box"]),
            entry["resolution"],
        )

    return {
        "name": data["name"],
        "ambient_dim": n,
        "equations": tuple(parse(g, n) for g in data.get("equations", [])),
        "inequalities": tuple(
            (parse(h["poly"], n), h.get("strict", False)) for h in data.get("inequalities", [])
        ),
        "samplers": tuple(map(sampler, data.get("samplers", []))),
        "sample_points": tuple(
            tuple(map(parse_rational, p)) for p in data.get("sample_points", [])
        ),
    }


def _big_integers(kind):
    """A small file of valid samples whose validation multiplies long
    integers: 16 explicit points over 2,000-digit denominators on a
    1,650-term equation of degree 20; the plane sampled by the 1,953-term
    (x1 + x2 + 1)^61 over a box with 999-digit denominators; the plane
    sampled with 1,000-digit coefficients, under (x1 + x2 + 1)^61 as an
    inequality; or the plane sampled at resolution 290, under an
    inequality whose 20 terms have distinct 1,000-digit denominators, so
    that each of its coefficients has about 66,000 bits over their lcm."""
    big = 10**999
    if kind == "points":
        points = [[f"1/{big + 7 + 2 * i}"] * 2 + [f"1/{big + 13}"] for i in range(16)]
        return {"name": "points", "ambient_dim": 3,
                "equations": ["(x1-x2)*(x1+x2+x3+1)^19"], "sample_points": points}
    sampler = {"param_dim": 2, "numerators": ["x1", "x2"], "box": [["1", "2"]] * 2,
               "resolution": 2}
    data = {"name": kind, "ambient_dim": 2, "samplers": [sampler]}
    if kind == "box":
        sampler["numerators"][0] = "(x1+x2+1)^61"
        sampler["box"] = [[f"1/{'7' * 999}", "1"], [f"1/{'3' * 999}", "1"]]
    elif kind == "coefficients":
        sampler["numerators"] = [f"{'7' * 1000}*x1", f"{'7' * 1000}*x2"]
        data["inequalities"] = [{"poly": "(x1+x2+1)^61"}]
    else:
        terms = [f"1/{big + 2 * k + 1}*x1^{k % 5}*x2^{k // 5}" for k in range(20)]
        data["inequalities"] = [{"poly": " + ".join(terms)}]
        sampler["resolution"] = 290
    return data


@pytest.mark.parametrize("kind, field", [
    ("points", "sample_points[0]"),
    ("box", "samplers[0].resolution"),
    ("coefficients", "samplers[0].resolution"),
    ("scale", "samplers[0].resolution"),
])
def test_the_term_evaluations_are_charged_by_the_size_of_their_integers(
    kind, field, tmp_path
):
    # the points took 38.1 s to load and the box 17.7 s while the cap
    # counted terms only, the coefficients 10.6-15.0 s and the scale 14.8 s
    # while it charged the size of the samples' integers only; a term of
    # the first three costs more than the cap alone
    data = _big_integers(kind)
    start = time.perf_counter()
    with pytest.raises(SpaceFormatError) as loaded:
        load_space(_write(tmp_path, data))
    assert time.perf_counter() - start < 1
    parts = _built(data)
    start = time.perf_counter()
    with pytest.raises(SpaceFormatError) as built:
        SpacePresentation(**parts)
    assert time.perf_counter() - start < 1
    assert built.value.field == loaded.value.field == field
    assert str(built.value) == str(loaded.value) == (
        f"{field}: the samplers' grids and sample points take more than "
        f"{MAX_TERM_EVALUATIONS} term evaluations together"
    )


def _refused_alike(data, tmp_path):
    """The one SpaceFormatError that refuses ``data`` in under 1 s, both
    when it is loaded and when it is built directly."""
    start = time.perf_counter()
    with pytest.raises(SpaceFormatError) as loaded:
        load_space(_write(tmp_path, data))
    assert time.perf_counter() - start < 1
    parts = _built(data)
    start = time.perf_counter()
    with pytest.raises(SpaceFormatError) as built:
        SpacePresentation(**parts)
    assert time.perf_counter() - start < 1
    assert built.value.field == loaded.value.field
    assert str(built.value) == str(loaded.value)
    return loaded.value


def _cone_with(equations=0, inequalities=0, resolution=None):
    """The shipped cone's file with ``equations`` extra equations "0" and
    ``inequalities`` inequalities "0", its sampler at ``resolution``."""
    data = json.loads(fixture_path("cone").read_text(encoding="utf-8"))
    data["equations"] += ["0"] * equations
    data["inequalities"] = [{"poly": "0"}] * inequalities
    if resolution is not None:
        data["samplers"][0]["resolution"] = resolution
    return data


@pytest.mark.parametrize("equations, inequalities", [(2000, 0), (0, 20_000)])
def test_a_constraint_with_no_terms_counts_one(equations, inequalities, tmp_path):
    # each "0" still costs a Jacobian row or a value column at every
    # sample: with 2,000 such equations the cone at resolution 40 loaded in
    # 0.03 s and verified in 3.4 s, and 20,000 such inequalities loaded in
    # 1.25 s at 271 MB, while the caps charged them nothing
    error = _refused_alike(_cone_with(equations, inequalities, resolution=40), tmp_path)
    assert str(error) == (
        "equations: the equations and inequalities have more than 2000 terms together"
    )


def test_the_cone_with_a_hundred_zero_equations_still_loads(tmp_path):
    space = load_space(_write(tmp_path, _cone_with(equations=100)))
    assert len(space.equations) == 101
    assert space.cleared_samples == load_space(fixture_path("cone")).cleared_samples


def test_compiling_a_row_is_charged(tmp_path):
    # an inequality of 300 terms over distinct 1,000-digit denominators:
    # putting its coefficients over their lcm, about 10^6 bits, took 3.1 s
    # for the one explicit point while only the point's evaluation was
    # charged
    big = 10**999
    terms = [f"1/{big + 2 * k + 1}*x1^{k % 20}*x2^{k // 20}" for k in range(300)]
    data = {"name": "scale300", "ambient_dim": 2,
            "inequalities": [{"poly": " + ".join(terms)}], "sample_points": [["1", "1"]]}
    error = _refused_alike(data, tmp_path)
    assert str(error) == (
        "sample_points[0]: the samplers' grids and sample points take more than "
        f"{MAX_TERM_EVALUATIONS} term evaluations together"
    )


def test_a_long_explicit_point_is_refused_by_its_length_at_once(tmp_path):
    # 1,000 coordinates over distinct 1,000-digit denominators, whose lcm
    # took 18.5 s when it was taken before the length was checked
    big = 10**999
    point = [f"1/{big + 2 * i + 1}" for i in range(1000)]
    data = {"name": "long", "ambient_dim": 3, "equations": ["x1"], "sample_points": [point]}
    start = time.perf_counter()
    with pytest.raises(SpaceFormatError) as loaded:
        load_space(_write(tmp_path, data))
    assert time.perf_counter() - start < 1
    parts = _built(data)
    start = time.perf_counter()
    with pytest.raises(SpaceFormatError) as built:
        SpacePresentation(**parts)
    assert time.perf_counter() - start < 1
    assert str(built.value) == str(loaded.value) == (
        "sample_points[0]: expected 3 entries, got 1000"
    )


def test_the_sphere_at_resolution_316_still_loads(tmp_path):
    # its 99,856 grid points of small integers cost one evaluation a term
    sphere = json.loads(fixture_path("sphere").read_text(encoding="utf-8"))
    sphere["samplers"][0]["resolution"] = 316
    space = load_space(_write(tmp_path, sphere))
    assert len(space.cleared_samples) == 99_856
    assert space.cleared_samples == SpacePresentation(**_built(sphere)).cleared_samples


def test_every_sampled_fixture_at_its_largest_grid_is_under_the_caps(monkeypatch):
    # the caps only: no sample is validated.  The sphere at resolution 316
    # is the heaviest, 8 terms at each of 99,856 points
    monkeypatch.setattr(SpacePresentation, "cleared_samples", ())
    for name in NAMES:
        space = load_space(fixture_path(name))
        if space.samplers:
            resolution = 1
            while sum((resolution + 1) ** s.param_dim for s in space.samplers) <= MAX_GRID_POINTS:
                resolution += 1
            grids = tuple(replace(s, param_resolution=resolution) for s in space.samplers)
            replace(space, samplers=grids)
            with pytest.raises(SpaceFormatError, match=r"\.resolution: .* points together$"):
                replace(space, samplers=tuple(
                    replace(s, param_resolution=resolution + 1) for s in space.samplers
                ))


def _polynomials(dim, max_terms, positive=False):
    """Polynomial strings in x1..x{dim} of up to ``max_terms`` terms; if
    ``positive``, with positive coefficients and even exponents."""
    coefficients = st.integers(1, 3) if positive else st.integers(-3, 3).filter(bool)
    exponents = st.integers(0, 3).map(lambda e: 2 * e) if positive else st.integers(0, 7)
    monomial = st.tuples(coefficients, st.lists(exponents, min_size=dim, max_size=dim))
    sums = st.integers(1, max_terms).flatmap(lambda k: st.lists(monomial, min_size=k, max_size=k))
    return sums.map(
        lambda terms: " + ".join(
            str(c) + "".join(f"*x{i + 1}^{e}" for i, e in enumerate(exps) if e)
            for c, exps in terms
        )
    )


_RATIONALS = st.fractions(min_value=-2, max_value=2, max_denominator=6)


@st.composite
def _space_files(draw):
    """A space file of the right shapes near the caps: 1-3 samplers with
    up to 160,000 grid points each, numerators and constraints of up to 40
    terms, and up to 5 explicit points.  A box is reversed one time in ten;
    an inequality is often positive, so that some presentations hold."""
    n = draw(st.integers(1, 3))
    data = {"name": "drawn", "ambient_dim": n}
    if draw(st.integers(0, 2)) == 0:
        data["equations"] = [draw(_polynomials(n, 40))]
    if draw(st.booleans()):
        h = draw(_polynomials(n, 40, positive=draw(st.booleans())))
        data["inequalities"] = [{"poly": h, "strict": draw(st.booleans())}]
    data["samplers"] = []
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(1, 2))
        box = [sorted(draw(st.tuples(_RATIONALS, _RATIONALS))) for _ in range(k)]
        if draw(st.integers(0, 9)) == 0:
            box[0].reverse()
        data["samplers"].append({
            "param_dim": k,
            "numerators": [draw(_polynomials(k, 3 if n > 1 else 40)) for _ in range(n)],
            "denominator": draw(st.sampled_from(["1", "x1^2 + 1", "x1"])),
            "box": [[str(lo), str(hi)] for lo, hi in box],
            "resolution": draw(st.integers(1, 400)),
        })
    points = st.lists(st.lists(_RATIONALS.map(str), min_size=n, max_size=n), max_size=5)
    data["sample_points"] = draw(points)
    return data


def _outcome(build):
    """A presentation's samples, or the field and message of its refusal."""
    try:
        return "built", build().cleared_samples
    except SpaceFormatError as exc:
        return "refused", exc.field, str(exc)


# 62,500 grid points and 5 explicit ones: within the point cap if each
# source is counted once
_NEAR_THE_POINT_CAP = {
    "name": "plane", "ambient_dim": 2, "samplers": [
        {"param_dim": 2, "numerators": ["x1", "x2"], "box": [["0", "1"]] * 2, "resolution": 250}
    ], "sample_points": [["3", "3"]] * 5,
}


@settings(deadline=None, max_examples=15, derandomize=True)
@example(_NEAR_THE_POINT_CAP)
@given(_space_files())
def test_the_loader_and_a_direct_build_refuse_alike(data):
    assert _outcome(lambda: space_from_dict(data)) == _outcome(
        lambda: SpacePresentation(**_built(data))
    )


def test_a_polynomial_is_immutable():
    p = parse("x1", 1)
    with pytest.raises(AttributeError, match="^Polynomial is immutable$"):
        p.ambient_dim = 2
    assert p == variable(1, 1)


def test_a_point_of_the_wrong_length_is_refused(cone, capsys):
    with pytest.raises(SubcartError, match="^--point has 2 coordinates, expected 3$"):
        cli._parse_point("1,0", 3)
    assert cli.main(["classify", str(fixture_path("cone")), "--point", "1,0"]) == 2
    assert capsys.readouterr() == ("", "error: --point has 2 coordinates, expected 3\n")
    with pytest.raises(DimensionMismatchError, match="components have length 2, expected 3"):
        is_tangent(cone, (F(1), F(0), F(1)), (F(0), F(1)))
