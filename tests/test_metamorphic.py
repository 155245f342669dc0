"""Metamorphic properties of the whole pipeline on every shipped fixture.

Renaming the coordinates, rescaling them or translating them is a
diffeomorphism of the ambient space that maps each presented space onto
another one, so the dimensions, labels and verdicts of ``verify`` must not
change; only the sample coordinates (and, under scaling, the default
radius) move with it.  The transformed presentations are built here
directly, so each is validated when it is built.
"""

from __future__ import annotations

import functools
from dataclasses import replace
from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from subcart import frames, load_space
from subcart.fixtures import NAMES, fixture_path
from subcart.poly import Polynomial, constant, variable, zero
from subcart.space import SpacePresentation


@functools.cache
def original(name: str):
    space = load_space(fixture_path(name))
    return space, frames.verify(space)


def map_terms(p: Polynomial, rule) -> Polynomial:
    """The polynomial whose term (exponent, coeff) is rule(exponent, coeff)."""
    return Polynomial(p.ambient_dim, dict(rule(e, c) for e, c in p.terms.items()))


def transformed(space: SpacePresentation, equation, numerators, point) -> SpacePresentation:
    """The space with equation(g) as every equation and inequality g,
    numerators(s) as each sampler s's numerators and point(p) as each
    explicit point."""
    return SpacePresentation(
        name=space.name,
        ambient_dim=space.ambient_dim,
        equations=tuple(equation(g) for g in space.equations),
        inequalities=tuple((equation(h), strict) for h, strict in space.inequalities),
        samplers=tuple(replace(s, numerators=numerators(s)) for s in space.samplers),
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
        transformed(
            space,
            lambda g: map_terms(g, lambda e, c: (permute(e), c)),
            lambda s: permute(s.numerators),
            permute,
        )
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
            lambda g: map_terms(g, lambda e, coeff: (e, coeff / c ** sum(e))),
            lambda s: tuple(n.scale(c) for n in s.numerators),
            scale,
        )
    )
    assert_same_verdicts(before, after, scale)
    assert (after.radius, after.epsilon) == (abs(c) * before.radius, abs(c) * before.epsilon)


def translated(p: Polynomial, v) -> Polynomial:
    """p(x - v), expanded term by term."""
    n = p.ambient_dim
    shifted = [variable(i + 1, n) - constant(x, n) for i, x in enumerate(v)]
    total = zero(n)
    for exponent, coeff in p.terms.items():
        term = constant(coeff, n)
        for factor, power in zip(shifted, exponent):
            for _ in range(power):
                term = term * factor
        total = total + term
    return total


@st.composite
def fixture_translations(draw):
    name = draw(st.sampled_from(NAMES))
    n = original(name)[0].ambient_dim
    offsets = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    return name, tuple(draw(offsets) for _ in range(n))


@settings(deadline=None, max_examples=25)
@given(fixture_translations())
def test_translating_the_variables_translates_the_records(case):
    # every sample's denominator changes with v, and with it the scale of
    # the neighbour index's integer table, while no answer may change
    name, v = case
    space, before = original(name)

    def translate(t):
        return tuple(x + y for x, y in zip(t, v))

    after = frames.verify(
        transformed(
            space,
            lambda g: translated(g, v),
            lambda s: tuple(n + s.denominator.scale(x) for n, x in zip(s.numerators, v)),
            translate,
        )
    )
    assert_same_verdicts(before, after, translate)
    assert (after.radius, after.epsilon) == (before.radius, before.epsilon)
