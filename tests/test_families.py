"""Known-answer families: spaces generated in the space-file format whose
dimensions, labels and verdicts are known in closed form.

The graph of a polynomial map f: R^k -> R^m, the set of points
(t, f(t)), is a smooth k-manifold cut out by x_{k+j} = f_j(x_1..x_k).
The Jacobian of those m equations is (-Df | I), of rank m everywhere, so
every record is regular of dimension k and every verdict passes.  Each
graph is sampled by t -> (t, f(t)) on [-1, 1]^k at resolution 5.

The union of the coordinate hyperplanes x_i = 0 and x_j = 0 of R^n is cut
out by x_i * x_j = 0, whose gradient (x_j at i, x_i at j) vanishes exactly
on the intersection x_i = x_j = 0.  So a record there has dimension n and
is singular (its neighbours on either plane have dimension n - 1), every
other record is regular of dimension n - 1, and usc, open and dense pass.

A product S1 x S2 of two sampled fixtures has the equations of each in
its own variables, so its Jacobian is block diagonal and the dimension at
(p1, p2) is the dimension of S1 at p1 plus that of S2 at p2.  It is
sampled by the product of each pair of their samplers, numerators N1 * D2
and N2 * D1 over D1 * D2.

Every space built here is also checked sample by sample: each equation
and inequality is evaluated in Fractions, by the oracle, at each of its
samples.
"""

from __future__ import annotations

import json
from itertools import combinations

from hypothesis import given, settings, strategies as st

from subcart import frames, load_space, space_from_dict, stratify, structural_dim
from subcart.fixtures import fixture_path
from subcart.poly import Polynomial, parse

from oracles import naive_violations

RESOLUTION = 5


@st.composite
def integer_polynomials(draw, k: int) -> Polynomial:
    """A polynomial in x1..xk of total degree at most 3, with at most four
    terms and integer coefficients in -3..3."""
    exponents = st.tuples(*[st.integers(0, 3)] * k).filter(lambda e: sum(e) <= 3)
    terms = draw(st.dictionaries(exponents, st.integers(-3, 3), max_size=4))
    return Polynomial(k, terms)


@st.composite
def graphs(draw) -> tuple[int, tuple[Polynomial, ...]]:
    """(k, f) for a map f: R^k -> R^m with k and m in {1, 2}."""
    k = draw(st.integers(1, 2))
    m = draw(st.integers(1, 2))
    return k, tuple(draw(integer_polynomials(k)) for _ in range(m))


def graph_space(k: int, f: tuple[Polynomial, ...]) -> dict:
    """The space file of the graph of f, with its (t, f(t)) sampler."""
    n = k + len(f)
    equations = []
    for j, fj in enumerate(f):
        # fj in the first k of n variables
        lifted = Polynomial(n, {(*e, *[0] * len(f)): c for e, c in fj.terms.items()})
        equations.append(f"x{k + j + 1} - ({lifted})")
    return {
        "name": "graph",
        "ambient_dim": n,
        "equations": equations,
        "samplers": [
            {
                "param_dim": k,
                "numerators": [f"x{i + 1}" for i in range(k)] + [str(fj) for fj in f],
                "box": [["-1", "1"]] * k,
                "resolution": RESOLUTION,
            }
        ],
    }


@settings(deadline=None, max_examples=40, derandomize=True)
@given(graphs())
def test_every_point_of_a_graph_is_regular_of_its_parameter_dimension(graph):
    k, f = graph
    space = space_from_dict(graph_space(k, f))
    assert naive_violations(space) == []
    report = frames.verify(space)
    assert len(report.records) == RESOLUTION**k
    assert {(r.dim, r.label) for r in report.records} == {(k, "regular")}
    assert [(v.name, v.passed) for v in report.verdicts] == [
        ("usc", True), ("open", True), ("dense", True), ("local_triviality", True)
    ]
    assert report.caveats == ()


@st.composite
def hyperplane_pairs(draw) -> tuple[int, int, int, int]:
    """(n, i, j, resolution): the planes x_i = 0 and x_j = 0 of R^n, i < j,
    n in 2..4, each sampled on [-1, 1]^(n-1) at an odd resolution, so that
    the grids meet on the intersection."""
    n = draw(st.integers(2, 4))
    i, j = draw(st.sampled_from(list(combinations(range(1, n + 1), 2))))
    return n, i, j, draw(st.sampled_from([3, 5]))


def hyperplanes_space(n: int, i: int, j: int, resolution: int) -> dict:
    """The space file of x_i * x_j = 0 with one sampler per plane: the
    plane's coordinates in order, 0 at its own."""

    def plane(zero: int) -> dict:
        parameters = iter(range(1, n))
        numerators = ["0" if k == zero else f"x{next(parameters)}" for k in range(1, n + 1)]
        return {"param_dim": n - 1, "numerators": numerators,
                "box": [["-1", "1"]] * (n - 1), "resolution": resolution}

    return {"name": "hyperplanes", "ambient_dim": n, "equations": [f"x{i}*x{j}"],
            "samplers": [plane(i), plane(j)]}


@settings(deadline=None, max_examples=20, derandomize=True)
@given(hyperplane_pairs())
def test_two_coordinate_hyperplanes_are_singular_exactly_where_they_meet(case):
    n, i, j, resolution = case
    space = space_from_dict(hyperplanes_space(n, i, j, resolution))
    assert naive_violations(space) == []
    report = stratify(space)
    # each plane's grid, less the points on the intersection counted twice
    assert len(report.records) == 2 * resolution ** (n - 1) - resolution ** (n - 2)
    for r in report.records:
        on_both = r.point[i - 1] == 0 == r.point[j - 1]
        assert (r.dim, r.label) == ((n, "singular") if on_both else (n - 1, "regular"))
    assert report.counts()["singular"] == resolution ** (n - 2)
    assert [(v.name, v.passed) for v in report.verdicts] == [
        ("usc", True), ("open", True), ("dense", True)
    ]


SAMPLED = ("cone", "sphere", "coordinate_cross", "whitney_umbrella", "half_line")
PRODUCT_RESOLUTION = 3


def lifted(text: str, dim: int, offset: int, width: int) -> Polynomial:
    """The polynomial ``text`` in x1..x{dim}, as one in x{offset+1}.. of
    ``width`` variables."""
    tail = width - offset - dim
    return Polynomial(
        width, {(0,) * offset + e + (0,) * tail: c for e, c in parse(text, dim).terms.items()}
    )


def product_space(first: dict, second: dict) -> dict:
    """The space file of S1 x S2: the equations and inequalities of each in
    its own variables, and the product of each pair of their samplers on
    the concatenated box at resolution PRODUCT_RESOLUTION."""
    n1, n = first["ambient_dim"], first["ambient_dim"] + second["ambient_dim"]

    def constraints(key: str) -> list:
        return [str(lifted(g, data["ambient_dim"], offset, n))
                for data, offset in ((first, 0), (second, n1)) for g in data[key]]

    inequalities = [
        {"poly": str(lifted(h["poly"], data["ambient_dim"], offset, n)),
         "strict": h["strict"]}
        for data, offset in ((first, 0), (second, n1)) for h in data["inequalities"]
    ]
    samplers = []
    for s1 in first["samplers"]:
        for s2 in second["samplers"]:
            p1, p = s1["param_dim"], s1["param_dim"] + s2["param_dim"]
            d1 = lifted(s1.get("denominator", "1"), p1, 0, p)
            d2 = lifted(s2.get("denominator", "1"), p - p1, p1, p)
            numerators = [lifted(t, p1, 0, p) * d2 for t in s1["numerators"]]
            numerators += [lifted(t, p - p1, p1, p) * d1 for t in s2["numerators"]]
            samplers.append({
                "param_dim": p,
                "numerators": [str(t) for t in numerators],
                "denominator": str(d1 * d2),
                "box": s1["box"] + s2["box"],
                "resolution": PRODUCT_RESOLUTION,
            })
    return {"name": "product", "ambient_dim": n, "equations": constraints("equations"),
            "inequalities": inequalities, "samplers": samplers}


def _fixture_data(name: str) -> dict:
    return json.loads(fixture_path(name).read_text(encoding="utf-8"))


@settings(deadline=None, max_examples=25, derandomize=True)
@given(st.sampled_from(SAMPLED), st.sampled_from(SAMPLED))
def test_the_dimension_of_a_product_is_the_sum_of_the_dimensions(name1, name2):
    first, second = _fixture_data(name1), _fixture_data(name2)
    data = product_space(first, second)
    assert data["ambient_dim"] <= 12
    assert all(s["param_dim"] <= 12 for s in data["samplers"])
    factors = load_space(fixture_path(name1)), load_space(fixture_path(name2))
    n1 = first["ambient_dim"]
    space = space_from_dict(data)
    assert naive_violations(space) == []
    report = stratify(space)
    assert report.records
    for r in report.records:
        parts = r.point[:n1], r.point[n1:]
        assert r.dim == sum(map(structural_dim, factors, parts))
