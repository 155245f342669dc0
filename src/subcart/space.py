"""Presentations of differential subspaces S of R^n.

A space is presented by a finite list of polynomial equations (generators
of the ideal of functions vanishing on S), optional semialgebraic
inequality constraints, and exact sample sources.  Grid points of R^n
rarely lie on a variety exactly, so sampling goes through rational
parameterizations (samplers) whose images are on S by polynomial identity,
plus optional explicit rational points.

Sample sources are validated on one path, once per presentation: each
sampler is composed with each equation once, and each grid image and
explicit point is membership-tested once.  ``space_from_dict`` runs it at
load, where a failure is a ``SpaceFormatError`` naming the offending
field.  The presentation caches the validated samples once, deduplicated
(``_samples``), and ``sample`` copies them.  A presentation built directly
is validated on its first ``sample``, which reports the same failure as a
``SamplerInvariantError``.
A space file may have at most ``MAX_AMBIENT_DIM`` coordinates and
parameters per sampler, may ask for at most ``MAX_GRID_POINTS`` grid
points per file, and its equations and inequalities may have at most
``poly.MAX_TERMS`` terms together, as may each product in the composition
of a sampler with an equation.

Points are tested on integers, through ``poly.ClearedRow``s compiled
once by their owners.  ``is_member`` puts a point over its least common
denominator and reads the signs of one row, ``cleared_constraints``.  A
sampler's grid parameters go over their common denominator, and its
numerators and denominator are one row (``Sampler._cleared``), so each
grid image is integer numerators over one denominator, tested as they
are; a Fraction is made only for each coordinate of the image.

Equality of two polynomial representatives as functions on S is certified
by caller-supplied witnesses: F and G agree on S when F - G is an explicit
combination sum(a_i * g_i) of the presented generators.  No general ideal
membership is attempted.

Caveat: when the presented generators generate a strictly smaller ideal
than the full vanishing ideal of S (for example a generator with a
repeated factor, like x1^2), tangent spaces computed downstream
over-approximate the true ones.  See ``repeated_factor_caveats``.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from pathlib import Path
from typing import Iterator, Sequence

from . import poly
from .errors import (
    DimensionMismatchError,
    NoSampleSourceError,
    SamplerInvariantError,
    SpaceFormatError,
    SubcartError,
)
from .poly import Point, Polynomial, format_point

Inequality = tuple[Polynomial, bool]  # (polynomial, strict?)

MAX_GRID_POINTS = 100_000  # over all samplers of a space file
MAX_AMBIENT_DIM = 12  # of a space file: a point has at most C(12, 6) = 924 charts


@dataclass(frozen=True)
class Sampler:
    """Rational parameterization whose image lies exactly on the space.

    Maps an axis-aligned rational grid in parameter space through
    numerators/denominator; ``param_box`` holds one (lo, hi) pair per
    parameter and ``param_resolution`` grid values are taken per axis,
    endpoints included.
    """

    param_dim: int
    numerators: tuple[Polynomial, ...]
    denominator: Polynomial
    param_box: tuple[tuple[Fraction, Fraction], ...]
    param_resolution: int

    def __post_init__(self):
        if len(self.param_box) != self.param_dim:
            raise DimensionMismatchError(
                f"param_box has {len(self.param_box)} entries, expected {self.param_dim}"
            )
        for p in (*self.numerators, self.denominator):
            if p.ambient_dim != self.param_dim:
                raise DimensionMismatchError(
                    "sampler polynomials must live in the parameter ring"
                )
        if self.param_resolution < 1:
            raise ValueError("param_resolution must be >= 1")

    def axis_values(self, axis: int) -> list[Fraction]:
        lo, hi = self.param_box[axis]
        if self.param_resolution == 1:
            return [lo]
        step = (hi - lo) / (self.param_resolution - 1)
        return [lo + step * k for k in range(self.param_resolution)]

    def _integer_grid(self) -> tuple[int, Iterator[tuple[int, ...]]]:
        """The common denominator q of all grid parameters, and an iterator
        over each grid point's integer numerators over q, first axis
        slowest (row-major)."""
        axes = [self.axis_values(a) for a in range(self.param_dim)]
        q = math.lcm(*[v.denominator for axis in axes for v in axis])
        scaled = [[v.numerator * (q // v.denominator) for v in axis] for axis in axes]
        return q, itertools.product(*scaled)

    @cached_property
    def _cleared(self) -> poly.ClearedRow:
        """The numerators, then the denominator, over one positive scale."""
        return poly.ClearedRow(self.param_dim, (*self.numerators, self.denominator))

    def _cleared_image(
        self, numerators: Sequence[int], denominator: int
    ) -> tuple[list[int], int]:
        """The image of the parameter point a/D (a the integer
        ``numerators``, D > 0) as integer numerators over one common
        denominator, which is positive, or 0 where the sampler's
        denominator vanishes."""
        *image, den = self._cleared.evaluate(numerators, denominator)
        return ([-x for x in image], -den) if den < 0 else (image, den)

    def image(self, params: Sequence[Fraction]) -> Point:
        """Exact image of one parameter point; denominator must not vanish."""
        image, den = self._cleared_image(
            *poly.clear_denominators([Fraction(x) for x in params])
        )
        if den == 0:
            raise SamplerInvariantError(
                f"sampler denominator vanishes at parameters {format_point(params)}"
            )
        return tuple(Fraction(x, den) for x in image)


@dataclass(frozen=True)
class SpacePresentation:
    """A subspace of R^n presented by generators and constraints."""

    name: str
    ambient_dim: int
    equations: tuple[Polynomial, ...] = ()
    inequalities: tuple[Inequality, ...] = ()
    samplers: tuple[Sampler, ...] = ()
    sample_points: tuple[Point, ...] = ()

    def __post_init__(self):
        for g in self.equations:
            if g.ambient_dim != self.ambient_dim:
                raise DimensionMismatchError(
                    f"equation {g} has ambient_dim {g.ambient_dim}, "
                    f"expected {self.ambient_dim}"
                )
        for h, _ in self.inequalities:
            if h.ambient_dim != self.ambient_dim:
                raise DimensionMismatchError(
                    f"inequality {h} has ambient_dim {h.ambient_dim}, "
                    f"expected {self.ambient_dim}"
                )
        for s in self.samplers:
            if len(s.numerators) != self.ambient_dim:
                raise DimensionMismatchError(
                    f"sampler has {len(s.numerators)} numerators, "
                    f"expected {self.ambient_dim}"
                )
        for p in self.sample_points:
            if len(p) != self.ambient_dim:
                raise DimensionMismatchError(
                    f"sample point {p} has length {len(p)}, expected {self.ambient_dim}"
                )

    @cached_property
    def gradients(self) -> tuple[tuple[Polynomial, ...], ...]:
        """Row j is the gradient of equation j, differentiated once per space."""
        return tuple(
            tuple(g.partial(i + 1) for i in range(self.ambient_dim))
            for g in self.equations
        )

    @cached_property
    def cleared_gradients(self) -> tuple[poly.ClearedRow, ...]:
        """``gradients`` for integer evaluation, each row over one positive
        scale, compiled once per space."""
        return tuple(poly.ClearedRow(self.ambient_dim, row) for row in self.gradients)

    @cached_property
    def cleared_constraints(self) -> poly.ClearedRow:
        """The equations, then the inequalities, over one positive scale."""
        inequalities = (h for h, _ in self.inequalities)
        return poly.ClearedRow(self.ambient_dim, (*self.equations, *inequalities))

    @cached_property
    def _samples(self) -> tuple[Point, ...]:
        """Every sampler's validated grid images in grid order, then the
        explicit sample points, deduplicated keeping first occurrences;
        raises SpaceFormatError, naming the space-file field, at the first
        failure."""
        images = []
        for i, sampler in enumerate(self.samplers):
            images += _sampler_images(self, sampler, f"samplers[{i}]")
        for i, point in enumerate(self.sample_points):
            if not is_member(self, point):
                raise SpaceFormatError(f"sample_points[{i}]", "point is not a member")
            images.append(point)
        return tuple(dict.fromkeys(images))


@dataclass(frozen=True)
class RingElement:
    """A function on S given by a polynomial representative."""

    space: SpacePresentation
    representative: Polynomial

    def __post_init__(self):
        if self.representative.ambient_dim != self.space.ambient_dim:
            raise DimensionMismatchError(
                "representative must live in the space's ambient ring"
            )


@dataclass(frozen=True)
class IdealWitness:
    """Coefficients a_1..a_k certifying F - G = sum(a_i * g_i)."""

    coefficients: tuple[Polynomial, ...]


def is_member(space: SpacePresentation, point: Sequence[Fraction]) -> bool:
    """Exact membership: all equations vanish and all inequalities hold."""
    if len(point) != space.ambient_dim:
        raise DimensionMismatchError(
            f"point has length {len(point)}, expected {space.ambient_dim}"
        )
    return _satisfies(space, *poly.clear_denominators([Fraction(x) for x in point]))


def _satisfies(
    space: SpacePresentation, numerators: Sequence[int], denominator: int
) -> bool:
    """``is_member`` of the point a/D, for integer numerators a over a
    positive denominator D, by the integer evaluator: its values have the
    signs of the rational ones."""
    values = space.cleared_constraints.evaluate(numerators, denominator)
    equations = len(space.equations)
    if any(values[:equations]):
        return False
    for value, (_, strict) in zip(values[equations:], space.inequalities):
        if value < 0 or strict and value == 0:
            return False
    return True


def compose_cleared(
    equation: Polynomial, numerators: Sequence[Polynomial], denominator: Polynomial
) -> Polynomial:
    """denominator^deg(g) * g(numerators / denominator), exactly.

    Clearing denominators keeps the composition polynomial: each monomial
    c * x^e of total degree |e| becomes c * prod(num_i^e_i) * den^(d - |e|)
    where d is the total degree of g.  It is evaluated by Horner's rule in
    each variable of g in turn, so each product multiplies a partial sum by
    one numerator, and the powers of the denominator come from one table.
    Each product is a ``poly.product``, refused before it is expanded.
    """
    d = equation.total_degree()
    den_powers = [poly.constant(1, denominator.ambient_dim)]
    for _ in range(d):
        den_powers.append(poly.product(den_powers[-1], denominator))
    return _horner(equation.terms, numerators, den_powers, d)


def _horner(
    terms: dict, numerators: Sequence[Polynomial], den_powers: list, degree: int
) -> Polynomial:
    """den^degree * h(numerators / den) for the h whose term map is
    ``terms``, in the variables that ``numerators`` replace.  A module
    function rather than a recursive closure, which would be a reference
    cycle holding the numerators until the cyclic collector ran."""
    if not numerators:
        return den_powers[degree].scale(terms[()])
    by_power: dict[int, dict] = {}
    for exponent, coeff in terms.items():
        by_power.setdefault(exponent[0], {})[exponent[1:]] = coeff
    result = poly.zero(den_powers[0].ambient_dim)
    for e in range(max(by_power, default=-1), -1, -1):
        result = poly.product(result, numerators[0])
        if e in by_power:
            inner = _horner(by_power[e], numerators[1:], den_powers, degree - e)
            result = result + inner
    return result


def validate_sampler(space: SpacePresentation, sampler: Sampler) -> bool:
    """True iff the sampler's image provably lies on the space: the
    identity den^deg(g) * g(nums/den) == 0 for every equation g, and a
    nonzero denominator and a member image at every grid parameter point
    (the per-sampler part of the one validation path)."""
    if len(sampler.numerators) != space.ambient_dim:
        raise DimensionMismatchError(
            f"sampler has {len(sampler.numerators)} numerators, "
            f"expected {space.ambient_dim}"
        )
    try:
        _sampler_images(space, sampler, "sampler")
    except SpaceFormatError:
        return False
    return True


def _sampler_images(
    space: SpacePresentation, sampler: Sampler, path: str
) -> list[Point]:
    """The sampler's grid images in grid order.  Composes it with each
    equation once and tests each denominator and image once; raises
    SpaceFormatError, naming the sampler's field ``path``, at the first failure."""
    for gi, g in enumerate(space.equations):
        try:
            composed = compose_cleared(g, sampler.numerators, sampler.denominator)
        except SubcartError as exc:
            raise SpaceFormatError(path, f"composition with equations[{gi}]: {exc}") from None
        if not composed.is_zero():
            raise SpaceFormatError(
                path, f"composition with equations[{gi}] is not identically zero"
            )
    images = []
    q, grid = sampler._integer_grid()
    for params in grid:
        image, den = sampler._cleared_image(params, q)
        if den == 0:
            raise SpaceFormatError(
                f"{path}.denominator",
                f"vanishes at grid parameters {_format_over(params, q)}",
            )
        if not _satisfies(space, image, den):
            raise SpaceFormatError(
                path,
                f"grid image at parameters {_format_over(params, q)} violates the "
                "constraints",
            )
        images.append(tuple(Fraction(x, den) for x in image))
    return images


def _format_over(numerators: Sequence[int], denominator: int) -> str:
    return format_point([Fraction(a, denominator) for a in numerators])


def sample(space: SpacePresentation) -> list[Point]:
    """Deterministic exact sample points: sampler grids in order, then
    explicit points, deduplicated keeping first occurrences.

    Every returned point is verified to be a member; a sampler whose
    identity or denominator fails, or whose image is not a member (an
    inequality violation, since equation vanishing is identical), raises
    SamplerInvariantError.  Validation and deduplication happen once per
    presentation (at load for a loaded one); each call returns a new list.
    """
    if not space.samplers and not space.sample_points:
        raise NoSampleSourceError(
            f"space {space.name!r} has no samplers and no explicit sample points"
        )
    try:
        return list(space._samples)
    except SpaceFormatError as exc:  # only a presentation built directly fails here
        raise SamplerInvariantError(f"space {space.name!r}: {exc}") from None


def representatives_agree(
    f: RingElement, g: RingElement, witness: IdealWitness
) -> bool:
    """True iff F - G = sum(a_i * g_i) holds as an exact polynomial identity."""
    if f.space != g.space:
        raise DimensionMismatchError("ring elements live on different spaces")
    equations = f.space.equations
    if len(witness.coefficients) != len(equations):
        raise DimensionMismatchError(
            f"witness has {len(witness.coefficients)} coefficients, "
            f"expected {len(equations)}"
        )
    difference = f.representative - g.representative
    combo = poly.zero(f.space.ambient_dim)
    for a, gen in zip(witness.coefficients, equations):
        combo = combo + a * gen
    return difference == combo


def repeated_factor_caveats(space: SpacePresentation) -> list[str]:
    """Cheap syntactic screen for non-reduced generators.

    Flags any equation divisible by the square of a variable (every term
    has exponent >= 2 in that variable), in which case computed tangent
    dimensions may exceed the true structural dimensions.
    """
    caveats = []
    for idx, g in enumerate(space.equations):
        terms = g.terms
        if not terms:
            continue
        for var in range(space.ambient_dim):
            if all(exponent[var] >= 2 for exponent in terms):
                caveats.append(
                    f"equations[{idx}] is divisible by x{var + 1}^2; computed "
                    "dimensions may exceed true structural dimensions"
                )
                break
    return caveats


# -- space file format ---------------------------------------------------------


def _want(obj: dict, field_name: str, kind, path: str):
    if field_name not in obj:
        raise SpaceFormatError(f"{path}.{field_name}", "missing required field")
    value = obj[field_name]
    if kind is int and isinstance(value, bool) or not isinstance(value, kind):
        raise SpaceFormatError(
            f"{path}.{field_name}", f"expected {kind.__name__}, got {type(value).__name__}"
        )
    return value


def _optional_list(obj: dict, field_name: str, path: str) -> list:
    """An optional JSON array field; [] when absent."""
    return _want(obj, field_name, list, path) if field_name in obj else []


def _parse_poly(text, ambient_dim: int, path: str) -> Polynomial:
    if not isinstance(text, str):
        raise SpaceFormatError(path, "expected a polynomial string")
    try:
        return poly.parse(text, ambient_dim)
    except SubcartError as exc:
        raise SpaceFormatError(path, str(exc)) from None


def _parse_rational(text, path: str) -> Fraction:
    if not isinstance(text, str):
        raise SpaceFormatError(path, "expected a rational string")
    try:
        return poly.parse_rational(text)
    except SubcartError as exc:
        raise SpaceFormatError(path, str(exc)) from None


def space_from_dict(data: dict) -> SpacePresentation:
    """Build and fully validate a presentation from the JSON schema."""
    if not isinstance(data, dict):
        raise SpaceFormatError("$", "expected a JSON object")
    name = _want(data, "name", str, "$")
    ambient_dim = _want(data, "ambient_dim", int, "$")
    if ambient_dim < 1:
        raise SpaceFormatError("$.ambient_dim", "must be a positive integer")
    if ambient_dim > MAX_AMBIENT_DIM:
        raise SpaceFormatError("$.ambient_dim", f"must be at most {MAX_AMBIENT_DIM}")

    # each equation is composed with each sampler and every constraint is
    # evaluated at each sample, so their terms together are capped too,
    # checked after each parse and before any composition
    terms = 0

    def counted(p: Polynomial) -> Polynomial:
        nonlocal terms
        terms += len(p.terms)
        if terms > poly.MAX_TERMS:
            raise SpaceFormatError(
                "equations",
                f"the equations and inequalities have more than {poly.MAX_TERMS} "
                "terms together",
            )
        return p

    equations = tuple(
        counted(_parse_poly(text, ambient_dim, f"equations[{i}]"))
        for i, text in enumerate(_optional_list(data, "equations", "$"))
    )

    inequalities = []
    for i, entry in enumerate(_optional_list(data, "inequalities", "$")):
        if not isinstance(entry, dict):
            raise SpaceFormatError(f"inequalities[{i}]", "expected an object")
        h = counted(
            _parse_poly(entry.get("poly"), ambient_dim, f"inequalities[{i}].poly")
        )
        strict = entry.get("strict", False)
        if not isinstance(strict, bool):
            raise SpaceFormatError(f"inequalities[{i}].strict", "expected a boolean")
        inequalities.append((h, strict))

    samplers = []
    grid_points = 0  # over all samplers, checked before any grid is built
    for i, entry in enumerate(_optional_list(data, "samplers", "$")):
        path = f"samplers[{i}]"
        if not isinstance(entry, dict):
            raise SpaceFormatError(path, "expected an object")
        param_dim = _want(entry, "param_dim", int, path)
        if not 1 <= param_dim <= MAX_AMBIENT_DIM:
            raise SpaceFormatError(f"{path}.param_dim", f"must be in 1..{MAX_AMBIENT_DIM}")
        numerators = _optional_list(entry, "numerators", path)
        if len(numerators) != ambient_dim:
            raise SpaceFormatError(
                f"{path}.numerators",
                f"expected {ambient_dim} entries, got {len(numerators)}",
            )
        nums = tuple(
            _parse_poly(text, param_dim, f"{path}.numerators[{j}]")
            for j, text in enumerate(numerators)
        )
        den = _parse_poly(entry.get("denominator", "1"), param_dim, f"{path}.denominator")
        box_entries = _want(entry, "box", list, path)
        if len(box_entries) != param_dim:
            raise SpaceFormatError(
                f"{path}.box", f"expected {param_dim} entries, got {len(box_entries)}"
            )
        box = []
        for j, pair in enumerate(box_entries):
            if not isinstance(pair, list) or len(pair) != 2:
                raise SpaceFormatError(f"{path}.box[{j}]", "expected [lo, hi]")
            lo = _parse_rational(pair[0], f"{path}.box[{j}][0]")
            hi = _parse_rational(pair[1], f"{path}.box[{j}][1]")
            if lo > hi:
                raise SpaceFormatError(f"{path}.box[{j}]", "lo must be <= hi")
            box.append((lo, hi))
        resolution = _want(entry, "resolution", int, path)
        if resolution < 1:
            raise SpaceFormatError(f"{path}.resolution", "must be >= 1")
        grid_points += resolution**param_dim
        if grid_points > MAX_GRID_POINTS:
            raise SpaceFormatError(
                f"{path}.resolution",
                f"the samplers' grids have more than {MAX_GRID_POINTS} points together",
            )
        samplers.append(
            Sampler(
                param_dim=param_dim,
                numerators=nums,
                denominator=den,
                param_box=tuple(box),
                param_resolution=resolution,
            )
        )

    points = []
    for i, coords in enumerate(_optional_list(data, "sample_points", "$")):
        path = f"sample_points[{i}]"
        if not isinstance(coords, list) or len(coords) != ambient_dim:
            raise SpaceFormatError(path, f"expected {ambient_dim} rational strings")
        points.append(
            tuple(_parse_rational(c, f"{path}[{j}]") for j, c in enumerate(coords))
        )

    space = SpacePresentation(
        name=name,
        ambient_dim=ambient_dim,
        equations=equations,
        inequalities=tuple(inequalities),
        samplers=tuple(samplers),
        sample_points=tuple(points),
    )

    space._samples  # validated once, here; kept for ``sample``
    return space


def load_space(path: str | Path) -> SpacePresentation:
    """Load and validate a space presentation from a JSON file."""
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise SpaceFormatError("$", f"cannot read {path}: {exc}") from None
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise SpaceFormatError("$", f"invalid JSON: {exc}") from None
    except RecursionError:
        raise SpaceFormatError("$", "invalid JSON: nested too deeply") from None
    return space_from_dict(data)
