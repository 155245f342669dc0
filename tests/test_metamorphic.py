"""Metamorphic properties of the whole pipeline on every shipped fixture.

Renaming the coordinates or rescaling them is a diffeomorphism of the
ambient space that maps each presented space onto another one, so the
dimensions, labels and verdicts of ``verify`` must not change; only the
sample coordinates (and, under scaling, the default radius) move with it.
The transformed presentations are built here from term maps.
"""

from __future__ import annotations

import functools
from dataclasses import replace
from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from subcart import frames, load_space
from subcart.fixtures import NAMES, fixture_path
from subcart.poly import Polynomial
from subcart.space import SpacePresentation


@functools.cache
def original(name: str):
    space = load_space(fixture_path(name))
    return space, frames.verify(space)


def map_terms(p: Polynomial, rule) -> Polynomial:
    """The polynomial whose term (exponent, coeff) is rule(exponent, coeff)."""
    return Polynomial(p.ambient_dim, dict(rule(e, c) for e, c in p.terms.items()))


def transformed(space: SpacePresentation, equation_rule, numerator, point) -> SpacePresentation:
    """The space with equation_rule applied to every equation and
    inequality term, numerator(numerators) as each sampler's numerators
    and point(p) as each explicit point."""
    return SpacePresentation(
        name=space.name,
        ambient_dim=space.ambient_dim,
        equations=tuple(map_terms(g, equation_rule) for g in space.equations),
        inequalities=tuple(
            (map_terms(h, equation_rule), strict) for h, strict in space.inequalities
        ),
        samplers=tuple(
            replace(s, numerators=numerator(s.numerators)) for s in space.samplers
        ),
        sample_points=tuple(point(p) for p in space.sample_points),
    )


def assert_same_verdicts(before, after, point) -> None:
    assert len(after.records) == len(before.records)
    for old, new in zip(before.records, after.records):
        assert (new.point, new.dim, new.label) == (point(old.point), old.dim, old.label)
    assert [(v.name, v.passed) for v in after.verdicts] == [
        (v.name, v.passed) for v in before.verdicts
    ]
    assert len(after.caveats) == len(before.caveats)


@st.composite
def fixture_permutations(draw):
    name = draw(st.sampled_from(NAMES))
    n = original(name)[0].ambient_dim
    return name, draw(st.permutations(range(n)))


@settings(deadline=None, max_examples=25)
@given(fixture_permutations())
def test_permuting_the_variables_permutes_the_records(case):
    name, order = case
    space, before = original(name)

    def permute(t):  # new coordinate i is old coordinate order[i]
        return tuple(t[k] for k in order)

    after = frames.verify(
        transformed(space, lambda e, c: (permute(e), c), permute, permute)
    )
    assert_same_verdicts(before, after, permute)
    assert (after.radius, after.epsilon) == (before.radius, before.epsilon)


scales = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)


@settings(deadline=None, max_examples=25)
@given(st.sampled_from(NAMES), scales)
def test_scaling_the_variables_scales_the_records_and_radius(name, c):
    space, before = original(name)

    def scale(t):
        return tuple(c * x for x in t)

    after = frames.verify(
        transformed(
            space,
            lambda e, coeff: (e, coeff / c ** sum(e)),
            lambda numerators: tuple(n.scale(c) for n in numerators),
            scale,
        )
    )
    assert_same_verdicts(before, after, scale)
    assert (after.radius, after.epsilon) == (abs(c) * before.radius, abs(c) * before.epsilon)
