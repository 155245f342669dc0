"""Presentations of differential subspaces S of R^n.

A space is presented by a finite list of polynomial equations (generators
of the ideal of functions vanishing on S), optional semialgebraic
inequality constraints, and exact sample sources.  Grid points of R^n
rarely lie on a variety exactly, so sampling goes through rational
parameterizations (samplers) whose images are on S by polynomial identity,
plus optional explicit rational points.

Sample sources are validated on one path, once per presentation, when it
is built.  Each sampler is composed with each equation once, and the
composition D^d * g(N / D) must be the zero polynomial: that identity
proves that every image N(t) / D(t) where D(t) != 0 satisfies every
equation.  So each grid image is tested only for a nonzero denominator
and against the inequalities (not at all for a space with none), and
each explicit point is membership-tested once.
The rules on a presentation's shape and size, and the running totals
behind its caps, have one owner, ``_Rules``, which is fed one source at
a time: an equation or inequality, a sampler, an explicit point.  Each
rule has one field and one message, and no message prints a point or a
polynomial.  ``SpacePresentation`` alone feeds it, when it is built: it
draws each source only once the one before it has passed, and names
fields as its space file does (``samplers[i].box[j]``,
``sample_points[i]``), so a presentation that is loaded, built directly
or made by ``dataclasses.replace`` is refused by one ``SpaceFormatError``
for one defect.  The loader checks the JSON shapes and the sizes that
bound a parse (``param_dim``, the numerator count, the box length), and
hands the presentation sources that are parsed as they are drawn, so a
cap bounds every later parse.
Samples are validated and deduplicated in integer form: each is
kept as its least integer form (a, D), integer numerators a over the
least positive common denominator D (``poly.clear_denominators`` of the
rational point), which is canonical, so equal points have equal forms.
The presentation keeps these forms (``cleared_samples``) and
builds no Fraction point: ``stratify`` reads the forms through
``sample_forms``, and ``sample`` builds the points a / D on each call.
It takes no common denominator of the forms: ``stratify.NeighbourIndex``
puts them on one integer table, and bounds it.
A presentation is bounded in two steps.  Before any composition or grid
image, ``_Rules`` counts shapes and terms: at most ``MAX_AMBIENT_DIM``
coordinates and parameters per sampler, ``MAX_GRID_POINTS`` grid and
explicit sample points, ``poly.MAX_TERMS`` terms in the equations and
inequalities together, and ``MAX_TERM_EVALUATIONS`` evaluations of a
term at a sample, in validation and in the gradients that analysis
evaluates there.  A polynomial with no terms, as "0" or "x1-x1", counts
as one term, and each of an equation's n partials as at least one: each
still has a value at every sample.  Then the build runs under one budget
of integer work (``poly.MAX_WORK``): parses, compositions and row
compilation are charged by the kernels that do them, the rows analysis
reads among them, compiled at the first sample source.  Evaluation past
one word an integer is charged once a block of samples, from one scan of
its integers, for the rows validation evaluates and for the equations'
gradients, which analysis evaluates.  A spent budget is refused by a
SpaceFormatError naming the source being parsed, composed or validated.

Points are tested on integers, through ``poly.ClearedRow``s compiled
once by their owners.  ``is_member`` puts a point over its least common
denominator.  ``is_member_cleared`` evaluates the equations row,
``cleared_equations``, at that integer form, then the inequalities row,
``cleared_inequalities``, whose signs ``_signs_hold`` reads: the one
sign rule, for a point and for a block of grid images.  A sampler's grid
parameters are integers over one denominator q, the lcm of its box ends'
denominators times its steps (``Sampler._integer_grid``), and its
numerators and denominator are compiled as one row.  The grid is taken
in blocks of at most ``GRID_BLOCK_POINTS`` points, one column of
integers per parameter, which ``ClearedRow.evaluate_columns`` evaluates
in one pass per term, not one interpreted evaluation per point.  Each
block's images are then tested and divided by their gcds as columns
(``_sampler_images``), and the first failure in grid order is refused as
a point-by-point test would refuse it.  ``cleared_samples`` adds each
block's forms to one dictionary, which deduplicates them.  Blocks keep
the columns small at any grid size.

Caveat: when the presented generators generate a strictly smaller ideal
than the full vanishing ideal of S (for example a generator with a
repeated factor, like x1^2), tangent spaces computed downstream
over-approximate the true ones.  See ``repeated_factor_caveats``.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from pathlib import Path
from operator import floordiv, mul
from typing import Iterable, Iterator, Sequence

from . import poly
from .errors import NoSampleSourceError, SpaceFormatError, SubcartError, WorkBudgetError
from .poly import Cleared, Point, Polynomial, divided, format_point

Inequality = tuple[Polynomial, bool]  # (polynomial, strict?)

MAX_GRID_POINTS = 100_000  # grid and explicit sample points of a presentation
MAX_TERM_EVALUATIONS = 2_000_000  # that validating the samples and their gradients take
MAX_AMBIENT_DIM = 12  # of a presentation: a point has at most C(12, 6) = 924 charts
GRID_BLOCK_POINTS = 1024  # grid points evaluated together, as columns, at load
_SPACE_FIELDS = (
    "name", "ambient_dim", "equations", "inequalities", "samplers", "sample_points"
)
_SAMPLER_FIELDS = ("param_dim", "numerators", "denominator", "box", "resolution")


@dataclass(frozen=True)
class Sampler:
    """Rational parameterization whose image lies exactly on the space.

    Maps an axis-aligned rational grid in parameter space through
    numerators/denominator; ``param_box`` holds one (lo, hi) pair per
    parameter and ``param_resolution`` grid values are taken per axis,
    endpoints included.  A sampler is checked as part of the presentation
    that holds it, under the fields of its space file.
    """

    param_dim: int
    numerators: tuple[Polynomial, ...]
    denominator: Polynomial
    param_box: tuple[tuple[Fraction, Fraction], ...]
    param_resolution: int

    def _integer_grid(self) -> tuple[int, Iterator[tuple[int, ...]]]:
        """The grid's denominator q, the lcm of the box ends' denominators
        times the steps between an axis's first and last values, and an
        iterator over each grid point's integer numerators over q, first
        axis slowest (row-major).  An axis from lo to hi takes the integers
        a + k (b - a) / steps, for a = lo q and b = hi q; q is a multiple of
        steps and of lo's and hi's denominators, so each is exact."""
        steps = max(self.param_resolution - 1, 1)
        q = math.lcm(*[end.denominator for pair in self.param_box for end in pair]) * steps
        axes = []
        for lo, hi in self.param_box:
            a, b = (c.numerator * (q // c.denominator) for c in (lo, hi))
            axes.append([a + (b - a) // steps * k for k in range(self.param_resolution)])
        return q, itertools.product(*axes)


@dataclass(frozen=True)
class SpacePresentation:
    """A subspace of R^n presented by generators and constraints, valid
    once built.  Its equations, inequalities, samplers and explicit
    points, given as any iterables and kept as tuples, are drawn in that
    order, and each is fed to one ``_Rules`` before the next is drawn; it
    refuses the first shape defect or passed cap by a SpaceFormatError
    naming the field of its space file.  Then the sample sources are
    validated.  Each sampler's composition with each equation is proved
    zero once; each grid image is then tested for its denominator and the
    inequalities only, and each explicit point for membership."""

    name: str
    ambient_dim: int
    equations: tuple[Polynomial, ...] = ()
    inequalities: tuple[Inequality, ...] = ()
    samplers: tuple[Sampler, ...] = ()
    sample_points: tuple[Point, ...] = ()

    def __post_init__(self):
        contextvars.copy_context().run(self._build)

    def _build(self) -> None:
        """Feeds the sources to one ``_Rules`` and validates the sample
        sources, under a budget of integer work held by the build's context."""
        poly._work_left.set([poly.MAX_WORK])
        rules = _Rules(self.ambient_dim)
        feeds = rules.equation, rules.inequality, rules.sampler, rules.point
        for field, feed in zip(_SPACE_FIELDS[2:], feeds):
            # a source is drawn only once the one before it has passed
            sources = tuple(map(feed, itertools.count(), getattr(self, field)))
            object.__setattr__(self, field, sources)
        self.cleared_samples  # every sample source is validated once, here

    @cached_property
    def cleared_gradients(self) -> tuple[poly.ClearedRow, ...]:
        """Row j is the gradient of equation j, differentiated and compiled
        for integer evaluation once per space, over one positive scale."""
        n = self.ambient_dim
        return tuple(
            poly.ClearedRow(n, [g.partial(i + 1) for i in range(n)]) for g in self.equations
        )

    @cached_property
    def cleared_equations(self) -> poly.ClearedRow:
        """The equations, over one positive scale."""
        return poly.ClearedRow(self.ambient_dim, self.equations)

    @cached_property
    def cleared_inequalities(self) -> poly.ClearedRow:
        """The inequalities' polynomials, over one positive scale."""
        return poly.ClearedRow(self.ambient_dim, [h for h, _ in self.inequalities])

    @cached_property
    def cleared_samples(self) -> tuple[Cleared, ...]:
        """The least integer form (a, D) of every sampler's validated grid
        images in grid order, then of the explicit sample points,
        deduplicated keeping first occurrences; a SpaceFormatError naming
        the space-file field at the first failure, a spent budget included."""
        forms: dict[Cleared, None] = {}
        try:
            for i, sampler in enumerate(self.samplers):
                path = f"samplers[{i}]"
                for block in _sampler_images(self, sampler, path):
                    forms.update(dict.fromkeys(block))
            for i, point in enumerate(self.sample_points):
                path = f"sample_points[{i}]"
                form = poly.clear_denominators([Fraction(x) for x in point])
                _charge(self, (self.cleared_equations,), 1, [(form[1], *form[0])])
                if not is_member_cleared(self, *form):
                    raise SpaceFormatError(path, "point is not a member")
                forms[form] = None
        except WorkBudgetError as exc:
            raise SpaceFormatError(path, str(exc)) from None
        return tuple(forms)


def _charge(space: SpacePresentation, rows: tuple, count: int, columns: list) -> None:
    """Charges the build's budget for evaluating ``rows``, the inequalities
    and the equations' gradients (which analysis evaluates, and which are
    compiled here at the first sample) at ``count`` samples whose integers
    are held in ``columns``, from one scan of their extremes."""
    bits = max(max(map(max, columns)), -min(map(min, columns))).bit_length()
    for row in (*rows, space.cleared_inequalities, *space.cleared_gradients):
        row.charge(count, bits)


def is_member(space: SpacePresentation, point: Sequence[Fraction]) -> bool:
    """Exact membership: all equations vanish and all inequalities hold."""
    return is_member_cleared(
        space, *poly.clear_denominators([Fraction(x) for x in point])
    )


def is_member_cleared(
    space: SpacePresentation, numerators: Sequence[int], denominator: int
) -> bool:
    """``is_member`` of the point a/D, for integer numerators a over a
    positive denominator D, by the integer evaluator: its values have the
    signs of the rational ones.  Every equation is evaluated, then every
    inequality, whose signs ``_signs_hold`` reads; the grid images of a
    validated sampler skip the equations, which its composition identity
    proves.  A point of the wrong length is a DimensionMismatchError."""
    if any(space.cleared_equations.evaluate(numerators, denominator)):
        return False
    return _signs_hold(space, space.cleared_inequalities.evaluate(numerators, denominator))


def _signs_hold(space: SpacePresentation, values: Iterable[int]) -> bool:
    """Whether the inequalities' values pass the sign rule: each value is
    nonnegative, and nonzero where the inequality is strict.  Given each
    inequality's value at one point, whether they hold there; given each
    one's least value over many points, whether they hold at all."""
    return not any(
        value < 0 or strict and value == 0
        for value, (_, strict) in zip(values, space.inequalities)
    )


def compose_cleared(
    equation: Polynomial, numerators: Sequence[Polynomial], denominator: Polynomial
) -> Polynomial:
    """denominator^deg(g) * g(numerators / denominator), exactly.

    Clearing denominators keeps the composition polynomial: each monomial
    c * x^e of total degree |e| becomes c * prod(num_i^e_i) * den^(d - |e|)
    where d is the total degree of g.  It is evaluated by Horner's rule in
    each variable of g in turn, so each product multiplies a partial sum by
    one numerator, and the powers of the denominator come from one table.
    Each product is bounded by ``Polynomial.__mul__``, row by row.
    """
    d = equation.total_degree()
    den_powers = [poly.constant(1, denominator.ambient_dim)]
    for _ in range(d):
        den_powers.append(den_powers[-1] * denominator)
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
        result = result if result.is_zero() else result * numerators[0]
        if e in by_power:
            inner = _horner(by_power[e], numerators[1:], den_powers, degree - e)
            result = result + inner
    return result


def _sampler_images(
    space: SpacePresentation, sampler: Sampler, path: str
) -> Iterator[Iterator[Cleared]]:
    """The least integer forms of the grid images, a block at a time in
    grid order, after proving once that the sampler's composition with
    each equation is zero, so that every image with a nonzero denominator
    satisfies the equations.
    Each block of grid points is evaluated as columns; its images' signs
    are fixed, their evaluation and the gradients there are charged, their
    denominators and the inequalities are tested, and each image is
    divided by its gcd, in passes over the columns.  The
    first failure in grid order is a SpaceFormatError naming ``path``."""
    space.cleared_equations  # which a later point's membership reads: compiled here
    for gi, g in enumerate(space.equations):
        try:
            composed = compose_cleared(g, sampler.numerators, sampler.denominator)
        except SubcartError as exc:
            raise SpaceFormatError(path, f"composition with equations[{gi}]: {exc}") from None
        if not composed.is_zero():
            raise SpaceFormatError(
                path, f"composition with equations[{gi}] is not identically zero"
            )
    row = poly.ClearedRow(sampler.param_dim, (*sampler.numerators, sampler.denominator))
    q, grid = sampler._integer_grid()
    # no grid integer is longer than q or an end of the box over q
    ends = [abs(c.numerator) * (q // c.denominator) for pair in sampler.param_box for c in pair]
    while columns := list(zip(*itertools.islice(grid, GRID_BLOCK_POINTS))):
        row.charge(len(columns[0]), max(q, *ends).bit_length())
        *images, dens = row.evaluate_columns(columns, [q] * len(columns[0]))
        if min(dens) < 0:
            signs = [-1 if den < 0 else 1 for den in dens]
            images = [list(map(mul, column, signs)) for column in images]
            dens = list(map(mul, dens, signs))
        _charge(space, (), len(dens), [dens, *images])
        values = space.cleared_inequalities.evaluate_columns(images, dens)
        if 0 in dens or not _signs_hold(space, map(min, values)):
            for k, params in enumerate(zip(*columns)):
                if dens[k] == 0:
                    raise SpaceFormatError(
                        f"{path}.denominator",
                        f"vanishes at grid parameters {format_point(divided(params, q))}",
                    )
                if not _signs_hold(space, [column[k] for column in values]):
                    raise SpaceFormatError(
                        path,
                        f"grid image at parameters {format_point(divided(params, q))} "
                        "violates the constraints",
                    )
        commons = list(map(math.gcd, dens, *images))
        reduced = [map(floordiv, column, commons) for column in images]
        yield zip(zip(*reduced), map(floordiv, dens, commons))


def sample_forms(space: SpacePresentation) -> tuple[Cleared, ...]:
    """The least integer form (a, D) of every sample point, in ``sample``
    order; a NoSampleSourceError for a space with no sample source."""
    if not space.samplers and not space.sample_points:
        raise NoSampleSourceError(
            f"space {space.name!r} has no samplers and no explicit sample points"
        )
    return space.cleared_samples


def sample(space: SpacePresentation) -> list[Point]:
    """Deterministic exact sample points: sampler grids in order, then
    explicit points, deduplicated keeping first occurrences.

    Every returned point is a member: the presentation validated its
    sample sources, and deduplicated them, when it was built.  Each call
    builds new points; a space with no sample source is a
    NoSampleSourceError.
    """
    return [divided(*form) for form in sample_forms(space)]


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


def _known_fields(obj: dict, fields: tuple[str, ...], path: str) -> None:
    """A SpaceFormatError naming the first field of ``obj`` not in
    ``fields``: a misspelt optional field would otherwise be dropped."""
    for key in obj:
        if key not in fields:
            raise SpaceFormatError(f"{path}.{key}", "unknown field")


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


def _check_param_dim(param_dim: int, path: str) -> None:
    if not 1 <= param_dim <= MAX_AMBIENT_DIM:
        raise SpaceFormatError(path, f"must be in 1..{MAX_AMBIENT_DIM}")


def _check_length(length: int, expected: int, path: str) -> None:
    """The numerators of a sampler, its box, or an explicit point."""
    if length != expected:
        raise SpaceFormatError(path, f"expected {expected} entries, got {length}")


def _check_ring(p: Polynomial, ambient_dim: int, path: str) -> None:
    if p.ambient_dim != ambient_dim:
        raise SpaceFormatError(
            path, f"expected a polynomial in x1..x{ambient_dim}, got one in x1..x{p.ambient_dim}"
        )


def _term_count(p: Polynomial, partials: bool = False) -> int:
    """The terms of ``p``, or with ``partials`` of its n partials, which
    are not built: the partial in x_k has a term for each exponent e with
    e_k > 0.  A polynomial counts at least one term, even the zero one: it
    still has a value, a Jacobian entry or a column, at every point."""
    counts = [len(p._terms)]
    if partials:
        counts = [len(c) - c.count(0) for c in list(zip(*p._terms)) or [()] * p.ambient_dim]
    return sum(counts) + counts.count(0)


class _Rules:
    """The shape and size rules of one presentation in ``ambient_dim``
    coordinates, fed its sources in order.  Each method takes source i of
    its field, checks it, adds it to the running totals, refuses it past a
    cap naming its space-file field, and returns it."""

    def __init__(self, ambient_dim: int):
        if ambient_dim < 1:
            raise SpaceFormatError("$.ambient_dim", "must be a positive integer")
        if ambient_dim > MAX_AMBIENT_DIM:
            raise SpaceFormatError("$.ambient_dim", f"must be at most {MAX_AMBIENT_DIM}")
        self.ambient_dim = ambient_dim
        self.terms = {False: 0, True: 0}  # of the equations, of the inequalities
        self.gradient_terms = self.points = self.work = 0  # gradients: what analysis evaluates

    def equation(self, i: int, g: Polynomial) -> Polynomial:
        self._constraint(g, f"equations[{i}]", False)
        self.gradient_terms += _term_count(g, partials=True)
        return g

    def inequality(self, i: int, inequality: Inequality) -> Inequality:
        self._constraint(inequality[0], f"inequalities[{i}].poly", True)
        return inequality

    def _constraint(self, p: Polynomial, path: str, inequality: bool) -> None:
        """An equation, or an inequality's polynomial.  Each equation is
        composed with each sampler and every constraint is evaluated at
        each sample, so their terms are capped together."""
        _check_ring(p, self.ambient_dim, path)
        self.terms[inequality] += _term_count(p)
        if sum(self.terms.values()) > poly.MAX_TERMS:
            raise SpaceFormatError(
                "equations",
                f"the equations and inequalities have more than {poly.MAX_TERMS} terms together",
            )

    def sampler(self, i: int, s: Sampler) -> Sampler:
        """A grid point evaluates the sampler's numerators and denominator,
        then the inequalities and the equations' gradients at its image."""
        path = f"samplers[{i}]"
        _check_param_dim(s.param_dim, f"{path}.param_dim")
        _check_length(len(s.numerators), self.ambient_dim, f"{path}.numerators")
        for j, p in enumerate(s.numerators):
            _check_ring(p, s.param_dim, f"{path}.numerators[{j}]")
        _check_ring(s.denominator, s.param_dim, f"{path}.denominator")
        _check_length(len(s.param_box), s.param_dim, f"{path}.box")
        for j, (lo, hi) in enumerate(s.param_box):
            if lo > hi:
                raise SpaceFormatError(f"{path}.box[{j}]", "lo must be <= hi")
        if s.param_resolution < 1:
            raise SpaceFormatError(f"{path}.resolution", "must be >= 1")
        terms = sum(map(_term_count, (*s.numerators, s.denominator)), self.gradient_terms)
        grid = s.param_resolution**s.param_dim
        self._count(grid, grid * (terms + self.terms[True]), f"{path}.resolution")
        return s

    def point(self, i: int, p: Point) -> Point:
        """An explicit point evaluates the equations, the inequalities and
        the equations' gradients at its least integer form."""
        path = f"sample_points[{i}]"
        _check_length(len(p), self.ambient_dim, path)
        self._count(1, sum(self.terms.values()) + self.gradient_terms, path)
        return p

    def _count(self, points: int, work: int, path: str) -> None:
        """Adds ``points`` samples whose validation costs ``work`` term
        evaluations, refused naming ``path`` past MAX_GRID_POINTS or
        MAX_TERM_EVALUATIONS."""
        sources = "the samplers' grids and sample points"
        self.points += points
        if self.points > MAX_GRID_POINTS:
            raise SpaceFormatError(
                path, f"{sources} have more than {MAX_GRID_POINTS} points together"
            )
        self.work += work
        if self.work > MAX_TERM_EVALUATIONS:
            raise SpaceFormatError(
                path, f"{sources} take more than {MAX_TERM_EVALUATIONS} term evaluations together"
            )


def space_from_dict(data: dict) -> SpacePresentation:
    """Parse a presentation from the JSON schema.  Its sources are parsed
    as the presentation draws them, each after the one before it has
    passed its rules, so a cap bounds every later parse."""
    if not isinstance(data, dict):
        raise SpaceFormatError("$", "expected a JSON object")
    _known_fields(data, _SPACE_FIELDS, "$")
    name = _want(data, "name", str, "$")
    ambient_dim = _want(data, "ambient_dim", int, "$")
    return SpacePresentation(
        name=name,
        ambient_dim=ambient_dim,
        equations=_equations(data, ambient_dim),
        inequalities=_inequalities(data, ambient_dim),
        samplers=_samplers(data, ambient_dim),
        sample_points=_sample_points(data, ambient_dim),
    )


def _equations(data: dict, ambient_dim: int) -> Iterator[Polynomial]:
    for i, text in enumerate(_optional_list(data, "equations", "$")):
        yield _parse_poly(text, ambient_dim, f"equations[{i}]")


def _inequalities(data: dict, ambient_dim: int) -> Iterator[Inequality]:
    for i, entry in enumerate(_optional_list(data, "inequalities", "$")):
        if not isinstance(entry, dict):
            raise SpaceFormatError(f"inequalities[{i}]", "expected an object")
        _known_fields(entry, ("poly", "strict"), f"inequalities[{i}]")
        h = _parse_poly(entry.get("poly"), ambient_dim, f"inequalities[{i}].poly")
        strict = entry.get("strict", False)
        if not isinstance(strict, bool):
            raise SpaceFormatError(f"inequalities[{i}].strict", "expected a boolean")
        yield h, strict


def _samplers(data: dict, ambient_dim: int) -> Iterator[Sampler]:
    for i, entry in enumerate(_optional_list(data, "samplers", "$")):
        path = f"samplers[{i}]"
        if not isinstance(entry, dict):
            raise SpaceFormatError(path, "expected an object")
        _known_fields(entry, _SAMPLER_FIELDS, path)
        param_dim = _want(entry, "param_dim", int, path)
        _check_param_dim(param_dim, f"{path}.param_dim")
        numerators = _optional_list(entry, "numerators", path)
        _check_length(len(numerators), ambient_dim, f"{path}.numerators")
        nums = tuple(
            _parse_poly(text, param_dim, f"{path}.numerators[{j}]")
            for j, text in enumerate(numerators)
        )
        den = _parse_poly(entry.get("denominator", "1"), param_dim, f"{path}.denominator")
        box_entries = _want(entry, "box", list, path)
        _check_length(len(box_entries), param_dim, f"{path}.box")
        box = []
        for j, pair in enumerate(box_entries):
            if not isinstance(pair, list) or len(pair) != 2:
                raise SpaceFormatError(f"{path}.box[{j}]", "expected [lo, hi]")
            lo = _parse_rational(pair[0], f"{path}.box[{j}][0]")
            hi = _parse_rational(pair[1], f"{path}.box[{j}][1]")
            box.append((lo, hi))
        yield Sampler(
            param_dim=param_dim,
            numerators=nums,
            denominator=den,
            param_box=tuple(box),
            param_resolution=_want(entry, "resolution", int, path),
        )


def _sample_points(data: dict, ambient_dim: int) -> Iterator[Point]:
    for i, coords in enumerate(_optional_list(data, "sample_points", "$")):
        path = f"sample_points[{i}]"
        if not isinstance(coords, list):
            raise SpaceFormatError(path, f"expected {ambient_dim} rational strings")
        yield tuple(_parse_rational(c, f"{path}[{j}]") for j, c in enumerate(coords))


def load_space(path: str | Path) -> SpacePresentation:
    """Load and validate a space presentation from a JSON file."""
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise SpaceFormatError("$", f"cannot read {path}: {exc}") from None
    try:
        data = json.loads(raw)
    except ValueError as exc:  # a JSONDecodeError, or an integer too long to convert
        raise SpaceFormatError("$", f"invalid JSON: {exc}") from None
    except RecursionError:
        raise SpaceFormatError("$", "invalid JSON: nested too deeply") from None
    return space_from_dict(data)
