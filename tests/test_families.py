"""Known-answer families: spaces generated in the space-file format whose
dimensions, labels and verdicts are known in closed form.

The graph of a polynomial map f: R^k -> R^m, the set of points
(t, f(t)), is a smooth k-manifold cut out by x_{k+j} = f_j(x_1..x_k).
The Jacobian of those m equations is (-Df | I), of rank m everywhere, so
every record is regular of dimension k and every verdict passes.  Each
graph is sampled by t -> (t, f(t)) on [-1, 1]^k at resolution 5.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from subcart import frames, space_from_dict
from subcart.poly import Polynomial

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
    report = frames.verify(space_from_dict(graph_space(k, f)))
    assert len(report.records) == RESOLUTION**k
    assert {(r.dim, r.label) for r in report.records} == {(k, "regular")}
    assert [(v.name, v.passed) for v in report.verdicts] == [
        ("usc", True), ("open", True), ("dense", True), ("local_triviality", True)
    ]
    assert report.caveats == ()
