"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial in n variables x1..xn is stored as a map from exponent
vectors (length-n tuples of nonnegative ints) to nonzero rational
coefficients, each an int when it is integral and a Fraction otherwise,
so products and sums of integral coefficients stay in int arithmetic.
The zero polynomial has an empty term map.  All values are
immutable after construction and every operation is pure, so instances
are safe to share freely.

Printing uses a fixed graded-lexicographic term order, which makes the
text form canonical: ``parse(str(p), p.ambient_dim) == p`` always holds.

Grammar accepted by :func:`parse` (whitespace insignificant)::

    expr     := term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := base ('^' uint)?
    base     := 'x' uint | rational | '(' expr ')'
    rational := int ('/' uint)?

Implicit multiplication is not allowed, exponents are nonnegative
integers only, and a uint is a run of ASCII digits.  ``parse_rational``
reads one rational, ``'-'? uint ('/' uint)?``, and only whitespace
around it.  Four caps bound the cost of a parse, each a ParseError when
passed: MAX_DIGITS digits in a literal or in any coefficient, total
degree MAX_DEGREE (checked before a product or power is expanded),
MAX_TERMS terms after each summand and in each product and step of a
power (``Polynomial.__mul__`` refuses a product row by row), and MAX_DEPTH
nested parentheses (at the first '(' past it), which also bounds the
parser's recursion.  A sum is accumulated in one term map, checking only
the coefficients each summand changes, so it parses in time linear in
its length.

Evaluation is exact integer arithmetic, in one place: ``ClearedRow``.
A rational point is put over its least positive common denominator D
with integer numerators a (``clear_denominators``).  A row compiles its
polynomials once, over one positive scale S (the lcm of all their
coefficients' denominators) and one degree d (their largest total
degree), and ``ClearedRow.evaluate`` gives the integer S * D^d * p(a/D)
for each p at one point.  ``ClearedRow.evaluate_columns`` gives the same
integers at many points at once, from one column per coordinate and a
column of denominators, in one pass of C-level ``map`` per term; a
sampler's grid is evaluated that way, a block at a time.  The factor is
positive and shared, so the values have the signs and zero sets of the
rational ones and keep their ratios: the rows of a Jacobian, the
numerators over the denominator of a sampler, and a space's equations
and inequalities.  ``Polynomial.evaluate`` evaluates a one-polynomial
row and divides once.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from itertools import repeat
from operator import add, mul
from typing import Iterator, Mapping, NamedTuple, Sequence

from .errors import DimensionMismatchError, ParseError, SubcartError

Exponent = tuple[int, ...]
Point = tuple[Fraction, ...]
Cleared = tuple[tuple[int, ...], int]  # integer numerators a over a denominator D > 0

MAX_DIGITS = 1000
MAX_DEGREE = 64
MAX_TERMS = 2000
MAX_DEPTH = 100
_COEFFICIENT_LIMIT = 10**MAX_DIGITS
_TOKEN = re.compile(r"(\s+)|([-+*/^()])|(x)?([0-9]+)?")
_RATIONAL = re.compile(r"\s*-?([0-9]+)(?:/([0-9]*[1-9][0-9]*))?\s*")


def rational_text(value: Fraction | int) -> str:
    """``str(value)``, the one way a rational becomes report or message
    text; a SubcartError when a part has more digits than ints print."""
    try:
        return str(value)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise SubcartError(f"a rational has more than {limit} digits to print") from None


def format_point(point: Sequence[Fraction]) -> str:
    return "(" + ", ".join(map(rational_text, point)) + ")"


def clear_denominators(point: Sequence[Fraction | int]) -> Cleared:
    """Integer numerators a and the least positive common denominator D of
    a rational point, so that point[i] == a[i] / D."""
    denominator = math.lcm(*[c.denominator for c in point])
    numerators = tuple(c.numerator * (denominator // c.denominator) for c in point)
    return numerators, denominator


def divided(numerators: Sequence[int], denominator: int) -> Point:
    """The rational point a / D, which ``clear_denominators`` undoes."""
    return tuple(Fraction(x, denominator) for x in numerators)


def _grlex_key(exponent: Exponent) -> tuple:
    # graded lexicographic: compare total degree, then the tuple itself
    return (sum(exponent), exponent)


class Polynomial:
    """Immutable exact polynomial in variables x1..x{ambient_dim}."""

    __slots__ = ("ambient_dim", "_terms")

    def __init__(self, ambient_dim: int, terms: Mapping[Exponent, Fraction | int]):
        if ambient_dim < 1:
            raise DimensionMismatchError("ambient_dim must be >= 1")
        cleaned: dict[Exponent, Fraction | int] = {}
        for exponent, coeff in terms.items():
            exponent = tuple(exponent)
            if len(exponent) != ambient_dim:
                raise DimensionMismatchError(
                    f"exponent vector {exponent} has length {len(exponent)}, "
                    f"expected {ambient_dim}"
                )
            if any(e < 0 for e in exponent):
                raise SubcartError(f"negative exponent in {exponent}")
            if type(coeff) is not int:
                coeff = Fraction(coeff)
                if coeff.denominator == 1:
                    coeff = coeff.numerator
            if coeff:
                cleaned[exponent] = coeff
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "_terms", cleaned)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- structure ---------------------------------------------------------

    @property
    def terms(self) -> dict[Exponent, Fraction | int]:
        """Copy of the term map (exponent vector -> nonzero coefficient)."""
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def total_degree(self) -> int:
        """Total degree; the zero polynomial has degree 0 by convention."""
        if not self._terms:
            return 0
        return max(sum(e) for e in self._terms)

    def sorted_terms(self) -> list[tuple[Exponent, Fraction | int]]:
        """Terms in descending graded-lexicographic order."""
        return sorted(self._terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.ambient_dim, tuple(self.sorted_terms())))

    # -- ring operations ---------------------------------------------------

    def _check_same_dim(self, other: "Polynomial") -> None:
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatchError(
                f"ambient dimensions differ: {self.ambient_dim} vs {other.ambient_dim}"
            )

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_same_dim(other)
        out = dict(self._terms)
        for exponent, coeff in other._terms.items():
            out[exponent] = out.get(exponent, 0) + coeff
        return Polynomial(self.ambient_dim, out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.ambient_dim, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        """The product; a SubcartError after the first row (one term of
        ``self`` times ``other``) at which the exponent sums so far, or the
        least count len(self) + len(other) - 1, pass MAX_TERMS."""
        self._check_same_dim(other)
        out: dict[Exponent, Fraction | int] = {}
        for ea, ca in self._terms.items():
            for eb, cb in other._terms.items():
                exponent = tuple(map(add, ea, eb))
                out[exponent] = out[exponent] + ca * cb if exponent in out else ca * cb
            if max(len(out), len(self._terms) + len(other._terms) - 1) > MAX_TERMS:
                raise SubcartError(f"more than {MAX_TERMS} terms")
        return Polynomial(self.ambient_dim, out)

    def scale(self, factor: Fraction | int) -> "Polynomial":
        if type(factor) is not int:
            factor = Fraction(factor)
        return Polynomial(
            self.ambient_dim, {e: c * factor for e, c in self._terms.items()}
        )

    # -- calculus / evaluation ---------------------------------------------

    def partial(self, index: int) -> "Polynomial":
        """Formal partial derivative with respect to x{index} (1-based)."""
        if not 1 <= index <= self.ambient_dim:
            raise DimensionMismatchError(
                f"variable index {index} out of range 1..{self.ambient_dim}"
            )
        i = index - 1
        out: dict[Exponent, Fraction | int] = {}
        for exponent, coeff in self._terms.items():
            e = exponent[i]
            if e == 0:
                continue
            lowered = exponent[:i] + (e - 1,) + exponent[i + 1 :]
            out[lowered] = out.get(lowered, 0) + coeff * e
        return Polynomial(self.ambient_dim, out)

    def evaluate(self, point: Sequence[Fraction]) -> Fraction:
        """Exact value at a rational point of matching length."""
        numerators, denominator = clear_denominators([Fraction(x) for x in point])
        row = ClearedRow(self.ambient_dim, (self,))
        [value] = row.evaluate(numerators, denominator)
        return Fraction(value, row.scale * denominator**row.degree)

    # -- printing ------------------------------------------------------------

    def _monomial_str(self, exponent: Exponent) -> str:
        parts = []
        for i, e in enumerate(exponent):
            if e == 1:
                parts.append(f"x{i + 1}")
            elif e > 1:
                parts.append(f"x{i + 1}^{e}")
        return "*".join(parts)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        pieces: list[str] = []
        for position, (exponent, coeff) in enumerate(self.sorted_terms()):
            monomial = self._monomial_str(exponent)
            magnitude = abs(coeff)
            if not monomial:
                body = str(magnitude)
            elif magnitude == 1:
                body = monomial
            else:
                body = f"{magnitude}*{monomial}"
            if position == 0:
                # a leading negative coefficient prints as a rational literal
                if coeff < 0:
                    body = f"-{magnitude}*{monomial}" if monomial else str(coeff)
                pieces.append(body)
            else:
                pieces.append(f"{'-' if coeff < 0 else '+'} {body}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"Polynomial({self.ambient_dim}, {str(self)!r})"


class ClearedRow:
    """Polynomials in x1..x{ambient_dim}, compiled once for integer
    evaluation over one positive scale S = ``scale`` (the lcm of all their
    coefficients' denominators) and one degree d = ``degree`` (their
    largest total degree): each term is kept as (S * coefficient, d - |e|,
    the (variable, exponent) pairs with a nonzero exponent).  ``evaluate``
    reads the terms at one point; ``evaluate_columns`` reads each term
    once for a whole column of points, which beats ``evaluate`` point by
    point from about eight points on and is several times slower at one."""

    __slots__ = ("ambient_dim", "scale", "degree", "_rows")

    def __init__(self, ambient_dim: int, polynomials: Sequence[Polynomial]):
        maps = [p._terms for p in polynomials]
        self.ambient_dim = ambient_dim
        self.scale = math.lcm(*[c.denominator for m in maps for c in m.values()])
        self.degree = max((sum(e) for m in maps for e in m), default=0)
        self._rows = tuple(
            tuple(
                (c.numerator * (self.scale // c.denominator), self.degree - sum(e),
                 tuple((i, k) for i, k in enumerate(e) if k))
                for e, c in m.items()
            )
            for m in maps
        )

    def evaluate(self, numerators: Sequence[int], denominator: int) -> list[int]:
        """The exact integers S * D^d * p(a/D) for integer numerators a and a
        positive integer denominator D; their signs and zero sets are
        those of the p(a/D)."""
        if len(numerators) != self.ambient_dim:
            raise DimensionMismatchError(
                f"point has length {len(numerators)}, expected {self.ambient_dim}"
            )
        powers = [1]
        for _ in range(self.degree):
            powers.append(powers[-1] * denominator)
        values = []
        for terms in self._rows:
            total = 0
            for coeff, rest, factors in terms:
                value = coeff * powers[rest]
                for i, e in factors:
                    value *= numerators[i] ** e
                total += value
            values.append(total)
        return values

    def evaluate_columns(
        self, numerators: Sequence[Sequence[int]], denominators: Sequence[int]
    ) -> list[list[int]]:
        """``evaluate`` at many points at once, given as columns: the column
        ``numerators[i]`` holds each point's i-th integer numerator and
        ``denominators`` each point's positive denominator.  Value column j
        holds polynomial j's value at each point, in point order.  Each
        term is one pass of C-level ``map`` over the points, and each power
        column x_i^e (or D^e) is computed once and shared between terms."""
        if len(numerators) != self.ambient_dim:
            raise DimensionMismatchError(
                f"point has length {len(numerators)}, expected {self.ambient_dim}"
            )
        count = len(denominators)
        columns = (*numerators, denominators)
        powers: dict[tuple[int, int], Sequence[int]] = {}
        values = []
        for terms in self._rows:
            total = [0] * count
            for position, (coeff, rest, factors) in enumerate(terms):
                if rest:
                    factors += ((self.ambient_dim, rest),)
                product = None
                for i, e in factors:
                    column = powers.get((i, e))
                    if column is None:
                        column = columns[i]
                        if e > 1:
                            column = list(map(pow, column, repeat(e)))
                        powers[i, e] = column
                    product = column if product is None else map(mul, product, column)
                if product is None:
                    product = repeat(coeff, count)
                elif coeff != 1:
                    product = map(coeff.__mul__, product)
                total = list(map(add, total, product)) if position else list(product)
            values.append(total)
        return values


# -- constructors ------------------------------------------------------------


def zero(ambient_dim: int) -> Polynomial:
    return Polynomial(ambient_dim, {})


def constant(value: Fraction | int, ambient_dim: int) -> Polynomial:
    return Polynomial(ambient_dim, {(0,) * ambient_dim: value})


def variable(index: int, ambient_dim: int) -> Polynomial:
    """The coordinate polynomial x{index}, 1-based."""
    if not 1 <= index <= ambient_dim:
        raise DimensionMismatchError(
            f"variable index {index} out of range 1..{ambient_dim}"
        )
    exponent = tuple(1 if i == index - 1 else 0 for i in range(ambient_dim))
    return Polynomial(ambient_dim, {exponent: 1})


# -- parser ------------------------------------------------------------------


class _Token(NamedTuple):
    kind: str  # "op", "var", "int" or "end"
    value: object
    position: int


def _tokenize(text: str) -> Iterator[_Token]:
    i = 0
    while i < len(text):
        match = _TOKEN.match(text, i)
        space, op, x, digits = match.groups()
        if op:
            yield _Token("op", op, i)
        elif digits:
            if len(digits) > MAX_DIGITS:
                raise ParseError(f"integer has more than {MAX_DIGITS} digits", text, i)
            yield _Token("var" if x else "int", int(digits), i)
        elif x:
            raise ParseError("expected variable index after 'x'", text, i)
        elif not space:
            raise ParseError(f"unexpected character {text[i]!r}", text, i)
        i = match.end()
    yield _Token("end", None, len(text))


class _Parser:
    """Recursive-descent parser for the expression grammar."""

    def __init__(self, text: str, ambient_dim: int):
        self.text = text
        self.ambient_dim = ambient_dim
        self.tokens = list(_tokenize(text))
        self.index = 0
        self.depth = 0  # parentheses open at the current token

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def fail(self, message: str, token: _Token):
        raise ParseError(message, self.text, token.position)

    def checked(self, count: int, coefficients, token: _Token) -> None:
        """A ParseError at ``token`` when ``count`` terms pass the term cap or
        one of ``coefficients`` passes the digit cap."""
        if count > MAX_TERMS:
            self.fail(f"more than {MAX_TERMS} terms", token)
        for c in coefficients:
            if max(abs(c.numerator), c.denominator) >= _COEFFICIENT_LIMIT:
                self.fail(f"a coefficient has more than {MAX_DIGITS} digits", token)

    def multiply(self, a: Polynomial, b: Polynomial, token: _Token) -> Polynomial:
        """a * b, its refusal or a passed digit cap a ParseError at ``token``."""
        try:
            result = a * b
        except SubcartError as exc:
            self.fail(str(exc), token)
        self.checked(0, result._terms.values(), token)
        return result

    def degree_at_most(self, degree: int, token: _Token) -> None:
        if degree > MAX_DEGREE:
            self.fail(f"degree {degree} is above {MAX_DEGREE}", token)

    def parse(self) -> Polynomial:
        result = self.expr()
        trailing = self.peek()
        if trailing.kind != "end":
            self.fail("unexpected trailing input", trailing)
        return result

    def expr(self) -> Polynomial:
        # one term map for the whole sum: each summand's terms are added in
        # place and only the changed coefficients are checked, so a sum
        # costs time linear in its length
        terms = dict(self.term()._terms)
        while self.peek().kind == "op" and self.peek().value in "+-":
            op = self.advance()
            sign = 1 if op.value == "+" else -1
            changed = []
            for exponent, coeff in self.term()._terms.items():
                total = terms.pop(exponent, 0) + sign * coeff
                if total:
                    terms[exponent] = total
                    changed.append(total)
            self.checked(len(terms), changed, op)
        return Polynomial(self.ambient_dim, terms)

    def term(self) -> Polynomial:
        result = self.factor()
        while self.peek().kind == "op" and self.peek().value == "*":
            star = self.advance()
            right = self.factor()
            self.degree_at_most(result.total_degree() + right.total_degree(), star)
            result = self.multiply(result, right, star)
        return result

    def factor(self) -> Polynomial:
        base = self.base()
        if self.peek().kind == "op" and self.peek().value == "^":
            caret = self.advance()
            exponent = self.peek()
            if exponent.kind != "int":
                self.fail("expected nonnegative integer exponent after '^'", caret)
            self.advance()
            # a constant base counts as degree 1, so the exponent is capped too
            self.degree_at_most(max(base.total_degree(), 1) * exponent.value, caret)
            result = constant(1, self.ambient_dim)
            for _ in range(exponent.value):
                result = self.multiply(result, base, caret)
            return result
        return base

    def base(self) -> Polynomial:
        token = self.advance()
        if token.kind == "var":
            if not 1 <= token.value <= self.ambient_dim:
                self.fail(
                    f"variable index {token.value} out of range 1..{self.ambient_dim}",
                    token,
                )
            return variable(token.value, self.ambient_dim)
        if token.kind == "op" and token.value == "(":
            self.depth += 1
            if self.depth > MAX_DEPTH:
                self.fail(f"more than {MAX_DEPTH} nested parentheses", token)
            inner = self.expr()
            closing = self.advance()
            if not (closing.kind == "op" and closing.value == ")"):
                self.fail("expected ')'", closing)
            self.depth -= 1
            return inner
        # rational := int ('/' uint)?, with an optional leading '-'
        sign = 1
        if token.kind == "op" and token.value == "-":
            sign = -1
            token = self.advance()
        if token.kind != "int":
            self.fail("expected variable, rational, or '('", token)
        numerator = sign * token.value
        denominator = 1
        if self.peek().kind == "op" and self.peek().value == "/":
            slash = self.advance()
            denominator_token = self.peek()
            if denominator_token.kind != "int":
                self.fail("expected integer denominator after '/'", slash)
            self.advance()
            denominator = denominator_token.value
            if denominator == 0:
                self.fail("zero denominator", denominator_token)
        return constant(Fraction(numerator, denominator), self.ambient_dim)


def parse(text: str, ambient_dim: int) -> Polynomial:
    """Parse an expression into its canonical expanded polynomial."""
    return _Parser(text, ambient_dim).parse()


def parse_rational(text: str) -> Fraction:
    """Parse a rational literal such as '3/2' or '-1' exactly."""
    match = _RATIONAL.fullmatch(text)
    if match is None or max(len(match[1]), len(match[2] or "")) > MAX_DIGITS:
        raise ParseError("expected a rational literal -?uint('/'uint)? with a nonzero "
                         f"denominator and at most {MAX_DIGITS} digits in each", text, 0)
    return Fraction(text)
