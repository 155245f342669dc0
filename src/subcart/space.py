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
Every rule on a presentation's shape and size is one module helper with
one field and one message (``_check_*`` and ``_counted_*``), and no
message prints a point or a polynomial.  ``SpacePresentation`` calls
every helper when it is built, naming fields as its space file does
(``samplers[i].box[j]``, ``sample_points[i]``), so a presentation that
is loaded, built directly or made by ``dataclasses.replace`` is refused
by one ``SpaceFormatError`` for one defect.  The loader checks the JSON
shapes, and calls a helper itself only where the rule must run before a
parse to bound that parse's cost.
Samples are validated and deduplicated in integer form: each is
kept as its least integer form (a, D), integer numerators a over the
least positive common denominator D (``poly.clear_denominators`` of the
rational point), which is canonical, so equal points have equal forms.
The presentation keeps these forms (``cleared_samples``) and
builds no Fraction point: ``stratify`` reads the forms through
``sample_forms``, and ``sample`` builds the points a / D on each call.
It takes no common denominator of the forms: ``stratify.NeighbourIndex``
puts them on one integer table, and bounds it.
A presentation may have at most ``MAX_AMBIENT_DIM`` coordinates and
parameters per sampler and ``MAX_GRID_POINTS`` grid and explicit sample
points, whose validation may take at most ``MAX_TERM_EVALUATIONS`` term
evaluations; its equations and inequalities may have at most
``poly.MAX_TERMS`` terms together, as may each product in the
composition of a sampler with an equation.  The caps are checked when it
is built, before any composition or grid image.

Points are tested on integers, through ``poly.ClearedRow``s compiled
once by their owners.  ``is_member`` puts a point over its least common
denominator.  ``is_member_cleared`` evaluates the equations row,
``cleared_equations``, at that integer form, then the inequalities row,
``cleared_inequalities``, whose signs ``_signs_hold`` reads: the one
sign rule, for a point and for a block of grid images.  A sampler's grid
parameters are integers over one denominator, and its numerators and
denominator are one row (``Sampler._cleared``).  The grid is taken in
blocks of at most ``GRID_BLOCK_POINTS`` points, one column of integers
per parameter, which ``ClearedRow.evaluate_columns`` evaluates in one
pass per term, not one interpreted evaluation per point.  Each block's
images are then tested and divided by their gcds as columns
(``_sampler_images``), and the first failure in grid order is refused
as a point-by-point test would refuse it.  ``cleared_samples`` adds each
block's forms to one dictionary, which deduplicates them.  Blocks keep
the columns small at any grid size.

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
from operator import floordiv, mul
from typing import Iterable, Iterator, Sequence

from . import poly
from .errors import NoSampleSourceError, SpaceFormatError, SubcartError
from .poly import Cleared, Point, Polynomial, divided, format_point

Inequality = tuple[Polynomial, bool]  # (polynomial, strict?)

MAX_GRID_POINTS = 100_000  # grid and explicit sample points of a presentation
MAX_TERM_EVALUATIONS = 2_000_000  # that validating the samples of a presentation takes
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
        """The common denominator q of all grid parameters, and an iterator
        over each grid point's integer numerators over q, first axis
        slowest (row-major).  An axis's values lo + (hi - lo) k / steps are
        integers over its endpoints' common denominator times steps,
        divided by their gcd with it, so q is the lcm of their least
        denominators."""
        resolution = self.param_resolution
        steps = max(resolution - 1, 1)
        axes = []
        for lo, hi in self.param_box:
            common = math.lcm(lo.denominator, hi.denominator) * steps
            a, b = (c.numerator * (common // c.denominator) for c in (lo, hi))
            step = (b - a) // steps if resolution > 1 else 0
            g = math.gcd(common, a, step)
            axes.append((common // g, [(a + step * k) // g for k in range(resolution)]))
        q = math.lcm(*(d for d, _ in axes))
        scaled = [[x * (q // d) for x in values] for d, values in axes]
        return q, itertools.product(*scaled)

    @cached_property
    def _cleared(self) -> poly.ClearedRow:
        """The numerators, then the denominator, over one positive scale."""
        return poly.ClearedRow(self.param_dim, (*self.numerators, self.denominator))


@dataclass(frozen=True)
class SpacePresentation:
    """A subspace of R^n presented by generators and constraints, valid
    once built: a presentation, or one of its samplers, with a shape
    defect, past a size cap or with a bad sample source is refused when
    it is built, by a SpaceFormatError naming the field of its space
    file.  Each sampler's composition with each equation is proved zero
    once; each grid image is then tested for its denominator and the
    inequalities only, and each explicit point for membership."""

    name: str
    ambient_dim: int
    equations: tuple[Polynomial, ...] = ()
    inequalities: tuple[Inequality, ...] = ()
    samplers: tuple[Sampler, ...] = ()
    sample_points: tuple[Point, ...] = ()

    def __post_init__(self):
        n = self.ambient_dim
        _check_ambient_dim(n)
        for i, g in enumerate(self.equations):
            _check_ring(g, n, f"equations[{i}]")
        for i, (h, _) in enumerate(self.inequalities):
            _check_ring(h, n, f"inequalities[{i}].poly")
        inequality_terms = _term_count(h for h, _ in self.inequalities)
        constraint_terms = _term_count(self.equations) + inequality_terms
        _check_terms(constraint_terms)
        points = work = 0
        for i, s in enumerate(self.samplers):
            path = f"samplers[{i}]"
            _check_param_dim(s.param_dim, f"{path}.param_dim")
            _check_length(len(s.numerators), n, f"{path}.numerators")
            for j, p in enumerate(s.numerators):
                _check_ring(p, s.param_dim, f"{path}.numerators[{j}]")
            _check_ring(s.denominator, s.param_dim, f"{path}.denominator")
            _check_length(len(s.param_box), s.param_dim, f"{path}.box")
            for j, (lo, hi) in enumerate(s.param_box):
                _check_box(lo, hi, f"{path}.box[{j}]")
            _check_resolution(s.param_resolution, f"{path}.resolution")
            grid = s.param_resolution**s.param_dim
            points = _counted_points(points + grid, f"{path}.resolution")
            cost = _term_count((*s.numerators, s.denominator)) + inequality_terms
            work = _counted_work(work + grid * cost, f"{path}.resolution")
        for i, p in enumerate(self.sample_points):
            points = _counted_points(points + 1, f"sample_points[{i}]")
            work = _counted_work(work + constraint_terms, f"sample_points[{i}]")
            _check_length(len(p), n, f"sample_points[{i}]")
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
        the space-file field at the first failure."""
        forms: dict[Cleared, None] = {}
        for i, sampler in enumerate(self.samplers):
            for block in _sampler_images(self, sampler, f"samplers[{i}]"):
                forms.update(dict.fromkeys(block))
        for i, point in enumerate(self.sample_points):
            form = poly.clear_denominators([Fraction(x) for x in point])
            if not is_member_cleared(self, *form):
                raise SpaceFormatError(f"sample_points[{i}]", "point is not a member")
            forms[form] = None
        return tuple(forms)


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
        result = result * numerators[0]
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
    are fixed, their denominators and the inequalities are tested, and
    each image is divided by its gcd, in passes over the columns.  The
    first failure in grid order is a SpaceFormatError naming ``path``."""
    for gi, g in enumerate(space.equations):
        try:
            composed = compose_cleared(g, sampler.numerators, sampler.denominator)
        except SubcartError as exc:
            raise SpaceFormatError(path, f"composition with equations[{gi}]: {exc}") from None
        if not composed.is_zero():
            raise SpaceFormatError(
                path, f"composition with equations[{gi}] is not identically zero"
            )
    q, grid = sampler._integer_grid()
    while columns := list(zip(*itertools.islice(grid, GRID_BLOCK_POINTS))):
        *images, dens = sampler._cleared.evaluate_columns(columns, [q] * len(columns[0]))
        if min(dens) < 0:
            signs = [-1 if den < 0 else 1 for den in dens]
            images = [list(map(mul, column, signs)) for column in images]
            dens = list(map(mul, dens, signs))
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


def _check_ambient_dim(ambient_dim: int) -> None:
    if ambient_dim < 1:
        raise SpaceFormatError("$.ambient_dim", "must be a positive integer")
    if ambient_dim > MAX_AMBIENT_DIM:
        raise SpaceFormatError("$.ambient_dim", f"must be at most {MAX_AMBIENT_DIM}")


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


def _check_box(lo: Fraction, hi: Fraction, path: str) -> None:
    if lo > hi:
        raise SpaceFormatError(path, "lo must be <= hi")


def _check_resolution(resolution: int, path: str) -> None:
    if resolution < 1:
        raise SpaceFormatError(path, "must be >= 1")


def _term_count(polynomials: Iterable[Polynomial]) -> int:
    return sum(len(p.terms) for p in polynomials)


def _check_terms(terms: int) -> None:
    """Each equation is composed with each sampler and every constraint is
    evaluated at each sample, so their terms are capped together."""
    if terms > poly.MAX_TERMS:
        raise SpaceFormatError(
            "equations",
            f"the equations and inequalities have more than {poly.MAX_TERMS} terms together",
        )


def _counted_points(points: int, path: str) -> int:
    """``points``, refused naming ``path`` when more than MAX_GRID_POINTS."""
    if points > MAX_GRID_POINTS:
        message = f"the samplers' grids and sample points have more than {MAX_GRID_POINTS}"
        raise SpaceFormatError(path, message + " points together")
    return points


def _counted_work(work: int, path: str) -> int:
    """``work``, the term evaluations that validating the samples takes,
    refused naming ``path`` when more than MAX_TERM_EVALUATIONS.  A grid
    point evaluates its sampler's numerators and denominator and the
    inequalities; an explicit point, the equations and the inequalities."""
    if work > MAX_TERM_EVALUATIONS:
        message = f"the samplers' grids and sample points take more than {MAX_TERM_EVALUATIONS}"
        raise SpaceFormatError(path, message + " term evaluations together")
    return work


def space_from_dict(data: dict) -> SpacePresentation:
    """Parse a presentation from the JSON schema; it is validated when it
    is built.  Each rule that bounds the cost of a later parse is checked
    here first, by the presentation's own helper."""
    if not isinstance(data, dict):
        raise SpaceFormatError("$", "expected a JSON object")
    _known_fields(data, _SPACE_FIELDS, "$")
    name = _want(data, "name", str, "$")
    ambient_dim = _want(data, "ambient_dim", int, "$")
    _check_ambient_dim(ambient_dim)

    terms = 0  # checked after each parse, before the next one

    def counted(p: Polynomial) -> Polynomial:
        nonlocal terms
        terms += len(p.terms)
        _check_terms(terms)
        return p

    equations = tuple(
        counted(_parse_poly(text, ambient_dim, f"equations[{i}]"))
        for i, text in enumerate(_optional_list(data, "equations", "$"))
    )

    inequalities = []
    for i, entry in enumerate(_optional_list(data, "inequalities", "$")):
        if not isinstance(entry, dict):
            raise SpaceFormatError(f"inequalities[{i}]", "expected an object")
        _known_fields(entry, ("poly", "strict"), f"inequalities[{i}]")
        h = counted(
            _parse_poly(entry.get("poly"), ambient_dim, f"inequalities[{i}].poly")
        )
        strict = entry.get("strict", False)
        if not isinstance(strict, bool):
            raise SpaceFormatError(f"inequalities[{i}].strict", "expected a boolean")
        inequalities.append((h, strict))
    inequality_terms = _term_count(h for h, _ in inequalities)

    samplers = []
    points = work = 0  # of the samples, checked before any grid is built
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
        resolution = _want(entry, "resolution", int, path)
        # the running total bounds later parses only over positive resolutions
        _check_resolution(resolution, f"{path}.resolution")
        grid = resolution**param_dim
        points = _counted_points(points + grid, f"{path}.resolution")
        cost = _term_count((*nums, den)) + inequality_terms
        work = _counted_work(work + grid * cost, f"{path}.resolution")
        samplers.append(
            Sampler(
                param_dim=param_dim,
                numerators=nums,
                denominator=den,
                param_box=tuple(box),
                param_resolution=resolution,
            )
        )

    explicit = []
    for i, coords in enumerate(_optional_list(data, "sample_points", "$")):
        path = f"sample_points[{i}]"
        points = _counted_points(points + 1, path)
        work = _counted_work(work + terms, path)
        if not isinstance(coords, list):
            raise SpaceFormatError(path, f"expected {ambient_dim} rational strings")
        _check_length(len(coords), ambient_dim, path)
        explicit.append(
            tuple(_parse_rational(c, f"{path}[{j}]") for j, c in enumerate(coords))
        )

    return SpacePresentation(
        name=name,
        ambient_dim=ambient_dim,
        equations=equations,
        inequalities=tuple(inequalities),
        samplers=tuple(samplers),
        sample_points=tuple(explicit),
    )


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
