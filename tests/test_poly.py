import itertools
import math
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from subcart import poly
from subcart.errors import DimensionMismatchError, ParseError, SubcartError
from subcart.poly import Polynomial, constant, parse, variable, zero

from oracles import naive_eval, naive_mul, naive_pow


# -- parsing ---------------------------------------------------------------


def test_parse_cone_equation():
    p = parse("x1^2 + x2^2 - x3^2", 3)
    assert p.terms == {(2, 0, 0): F(1), (0, 2, 0): F(1), (0, 0, 2): F(-1)}


def test_parse_zero():
    assert parse("0", 3) == zero(3)
    assert parse("0", 3).terms == {}


def test_parse_shifted_cube_expansion():
    # oracle: expand (x1 - 1/2)^3 by repeated naive multiplication
    base = {(1,): F(1), (0,): F(-1, 2)}
    expected = naive_pow(base, 3, 1)
    assert expected == {(3,): F(1), (2,): F(-3, 2), (1,): F(3, 4), (0,): F(-1, 8)}
    assert parse("(x1 - 1/2)^3", 1).terms == expected


def test_parse_rational_literals():
    assert parse("3/2", 2).terms == {(0, 0): F(3, 2)}
    assert parse("-1", 1).terms == {(0,): F(-1)}
    assert parse("-3/4*x1", 1).terms == {(1,): F(-3, 4)}
    assert parse("2^3", 1).terms == {(0,): F(8)}


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse("x1 + @", 2)
    assert err.value.position == 5

    with pytest.raises(ParseError, match="out of range"):
        parse("x4", 3)
    with pytest.raises(ParseError, match="out of range"):
        parse("x0", 3)
    with pytest.raises(ParseError, match="zero denominator"):
        parse("1/0", 1)


def test_parse_rational_accepts_only_the_documented_literal():
    assert poly.parse_rational(" -3/4 ") == F(-3, 4)
    assert poly.parse_rational("12") == 12
    for text in ("1e3", "0.5", "1_000", "", "+1", "1 / 2", "3/-4", "\u0663", "1/0", "1/00"):
        with pytest.raises(ParseError, match="expected a rational literal"):
            poly.parse_rational(text)


def test_parser_caps_digits_degree_and_terms():
    digits = "9" * poly.MAX_DIGITS
    assert parse(digits, 1) == constant(int(digits), 1)
    assert poly.parse_rational(f"-1/{digits}") == F(-1, int(digits))
    for text in (digits + "9", f"1/{digits}9", f"x{digits}9"):
        with pytest.raises(ParseError, match="integer has more than 1000 digits"):
            parse(text, 1)
    for text in (digits + "9", f"1/{digits}9"):
        with pytest.raises(ParseError, match="at most 1000 digits in each"):
            poly.parse_rational(text)
    assert parse("x1^64", 1).total_degree() == 64
    assert parse("x1^32*x1^32", 1).total_degree() == 64
    for text in ("x1^65", "x1^33*x1^32", "2^65", "(x1^2)^33"):
        with pytest.raises(ParseError, match="above 64"):
            parse(text, 1)
    # C(23, 3) = 1771 terms pass; the next step of the power has 2024
    assert len(parse("(x1+x2+x3+1)^20", 3).terms) == 1771
    with pytest.raises(ParseError, match="more than 2000 terms"):
        parse("(x1+x2+x3+1)^21", 3)
    with pytest.raises(ParseError, match="coefficient has more than 1000 digits"):
        parse(f"{digits}*{digits}", 1)


def test_products_are_bounded_before_they_are_expanded():
    # 1,771 terms squared: 3.1 million coefficient products into C(43, 3) =
    # 12,341 terms, expanded in about 25 s before the check came first
    text = "(x1+x2+x3+1)^20"
    p = parse(text, 3)
    start = time.perf_counter()
    with pytest.raises(SubcartError, match="^more than 2000 terms$"):
        poly.product(p, p)
    assert time.perf_counter() - start < 0.1
    with pytest.raises(ParseError, match="more than 2000 terms") as info:
        parse(f"{text}*{text}", 3)
    assert info.value.position == len(text)
    # 3 * 680 pairs, but only C(19, 3) = 969 monomials of degree at most 16
    q, r = parse("x1^2+x2^2-x3^2", 3), parse("(x1+x2+x3+1)^14", 3)
    assert len(poly.product(q, r).terms) == 934
    assert poly.product(q, r) == q * r
    # 51 * 51 pairs in one variable, but only 101 monomials
    square = poly.product(parse("(x1+1)^50", 1), parse("(x1-1)^50", 1))
    assert square.terms == naive_pow({(2,): F(1), (0,): F(-1)}, 50, 1)


def test_a_long_sum_parses_in_linear_time():
    # 1,000 distinct monomials, about 19 KB of text
    monomials = list(itertools.product(range(13), repeat=3))[:1000]
    text = " + ".join(
        f"{k % 97 + 1}*x1^{a}*x2^{b}*x3^{c}" for k, (a, b, c) in enumerate(monomials)
    )
    start = time.perf_counter()
    p = parse(text, 3)
    assert time.perf_counter() - start < 1
    assert p.terms == {m: k % 97 + 1 for k, m in enumerate(monomials)}


def test_sum_caps_report_the_operator_that_passes_them():
    digits = "9" * poly.MAX_DIGITS
    text = f"x1 + {digits} + {digits}"
    with pytest.raises(ParseError, match="coefficient has more than 1000 digits") as info:
        parse(text, 1)
    assert info.value.position == text.rindex("+")
    assert parse(f"{digits} + x1 - {digits}", 1) == variable(1, 1)
    exponents = list(itertools.product(range(13), repeat=3))[: poly.MAX_TERMS]
    text = " + ".join(f"x1^{a}*x2^{b}*x3^{c}" for a, b, c in exponents)
    assert len(parse(text, 3).terms) == poly.MAX_TERMS
    with pytest.raises(ParseError, match="more than 2000 terms") as info:
        parse(text + " + x1^13 - x1^13", 3)
    assert info.value.position == len(text) + 1


def test_nesting_is_capped():
    depth = poly.MAX_DEPTH
    assert parse("(" * depth + "x1" + ")" * depth, 1) == variable(1, 1)
    text = "(" * (depth + 1) + "x1" + ")" * (depth + 1)
    with pytest.raises(ParseError, match="more than 100 nested parentheses") as info:
        parse(text, 1)
    assert info.value.position == depth
    # sibling groups do not add up
    assert parse(" + ".join(["(" * depth + "x1" + ")" * depth] * 3), 1) == parse("3*x1", 1)


def test_parse_errors_quote_a_short_window():
    text = "1" * 5000 + "*x1"
    with pytest.raises(ParseError) as info:
        parse(text, 1)
    assert len(str(info.value)) < 200
    assert info.value.text == text and info.value.position == 0
    with pytest.raises(ParseError, match=r"at position 10 in 'x1 \+ x2 \+ y'\)$"):
        parse("x1 + x2 + y", 2)  # a short text is quoted whole
    text = "x1+" * 30 + "y" + "+x1" * 30
    with pytest.raises(ParseError) as info:
        parse(text, 1)
    window = repr(text[70:110])
    assert str(info.value).endswith(f"(at position 90 in ...{window}...)")


def test_grammar_rejects_implicit_multiplication_and_unary_minus_on_vars():
    with pytest.raises(ParseError):
        parse("x1 x2", 2)
    with pytest.raises(ParseError):
        parse("-x1", 1)  # negated variables must be written -1*x1
    with pytest.raises(ParseError):
        parse("x1^-1", 1)
    with pytest.raises(ParseError):
        parse("(x1", 1)
    with pytest.raises(ParseError):
        parse("", 1)


# -- evaluation --------------------------------------------------------------


def test_eval_pythagorean_triple():
    p = parse("x1^2 + x2^2 - x3^2", 3)
    assert p.evaluate((F(3), F(4), F(5))) == 0


def test_eval_zero_polynomial():
    assert zero(3).evaluate((F(7), F(-2), F(13))) == 0


def test_eval_shifted_cube():
    assert parse("(x1 - 1/2)^3", 1).evaluate((F(1),)) == F(1, 8)


def test_eval_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        parse("x1", 2).evaluate((F(1),))


# -- calculus ----------------------------------------------------------------


def test_partial_cone():
    p = parse("x1^2 + x2^2 - x3^2", 3)
    assert p.partial(3) == parse("-2*x3", 3)


def test_partial_constant_is_zero():
    assert constant(5, 2).partial(1) == zero(2)


def test_partial_product():
    assert parse("x1*x2", 2).partial(1) == parse("x2", 2)


def test_partial_index_range():
    with pytest.raises(DimensionMismatchError):
        parse("x1", 2).partial(0)
    with pytest.raises(DimensionMismatchError):
        parse("x1", 2).partial(3)


# -- ring operations -----------------------------------------------------------


def test_additive_inverse_cancels():
    p = parse("x1^2 - 2/3*x2 + 7", 2)
    assert p + p.scale(-1) == zero(2)


def test_monomial_product():
    assert (variable(1, 2) * variable(2, 2)).terms == {(1, 1): F(1)}


def test_difference_of_squares():
    p = parse("(x1 + 1)", 1) * parse("(x1 - 1)", 1)
    assert p == parse("x1^2 - 1", 1)
    assert p.terms == naive_mul({(1,): F(1), (0,): F(1)}, {(1,): F(1), (0,): F(-1)})


def test_dimension_mismatch_on_arithmetic():
    with pytest.raises(DimensionMismatchError):
        parse("x1", 1) + parse("x1", 2)
    with pytest.raises(DimensionMismatchError):
        parse("x1", 1) * parse("x1", 2)


def test_canonical_form_drops_zero_coefficients():
    p = Polynomial(2, {(1, 0): F(0), (0, 1): F(2)})
    assert p.terms == {(0, 1): F(2)}


# -- printing round trip --------------------------------------------------------


@pytest.mark.parametrize(
    "text,dim",
    [
        ("x1^2 + x2^2 - x3^2", 3),
        ("0", 1),
        ("-1*x1", 1),
        ("-5/2", 2),
        ("x1*x2 - 3/2*x2^2 + 1/7", 2),
        ("(x1 - 1/2)^3", 1),
    ],
)
def test_parse_print_round_trip_examples(text, dim):
    p = parse(text, dim)
    assert parse(str(p), dim) == p


coefficients = st.fractions(
    min_value=-5, max_value=5, max_denominator=6
)


@st.composite
def polynomials(draw, dim=None):
    if dim is None:
        dim = draw(st.integers(1, 3))
    n_terms = draw(st.integers(0, 4))
    terms = {}
    for _ in range(n_terms):
        exponent = tuple(draw(st.integers(0, 3)) for _ in range(dim))
        terms[exponent] = draw(coefficients)
    return Polynomial(dim, terms)


@st.composite
def polynomial_pairs(draw):
    dim = draw(st.integers(1, 3))
    return draw(polynomials(dim=dim)), draw(polynomials(dim=dim))


points = st.tuples(*[coefficients] * 3)


@settings(deadline=None, max_examples=150)
@given(polynomials())
def test_print_is_canonical(p):
    assert parse(str(p), p.ambient_dim) == p


@settings(deadline=None, max_examples=150)
@given(polynomial_pairs(), points)
def test_eval_is_ring_homomorphism(pair, point):
    p, q = pair
    x = point[: p.ambient_dim]
    assert (p * q).evaluate(x) == p.evaluate(x) * q.evaluate(x)
    assert (p + q).evaluate(x) == p.evaluate(x) + q.evaluate(x)
    # cross-check against the naive oracle
    assert p.evaluate(x) == naive_eval(p.terms, x)


@settings(deadline=None, max_examples=150)
@given(polynomial_pairs())
def test_formal_leibniz_rule(pair):
    p, q = pair
    for i in range(1, p.ambient_dim + 1):
        assert (p * q).partial(i) == p.partial(i) * q + p * q.partial(i)


@settings(deadline=None, max_examples=150)
@given(polynomials())
def test_partials_commute(p):
    for i in range(1, p.ambient_dim + 1):
        for j in range(i, p.ambient_dim + 1):
            assert p.partial(i).partial(j) == p.partial(j).partial(i)


@settings(deadline=None, max_examples=300)
@given(polynomials(), st.lists(st.integers(-30, 30), min_size=3, max_size=3), st.integers(1, 12))
def test_integer_evaluator_matches_rational_evaluation(p, numerators, denominator):
    # the oracle evaluates in Fractions at a/D, zero and negative
    # coordinates included; L and d come from the coefficients directly
    a = numerators[: p.ambient_dim]
    point = [F(x, denominator) for x in a]
    scale = math.lcm(*(c.denominator for c in p.terms.values()))
    expected = scale * denominator ** p.total_degree() * naive_eval(p.terms, point)
    row = poly.ClearedRow(p.ambient_dim, [p])
    [value] = row.evaluate(a, denominator)
    assert type(value) is int and value == expected
    assert (row.scale, row.degree) == (scale, p.total_degree())
    assert p.evaluate(point) == naive_eval(p.terms, point)
    # the least common denominator of the point, and its numerators over it
    cleared, least = poly.clear_denominators(point)
    assert least == math.lcm(*(c.denominator for c in point))
    assert [F(x, least) for x in cleared] == point


@settings(deadline=None, max_examples=150)
@given(st.lists(polynomials(dim=2), min_size=1, max_size=3), points)
def test_cleared_row_keeps_the_ratios_of_its_values(row, point):
    # one positive scale for the whole row
    a, denominator = poly.clear_denominators(point[:2])
    values = poly.ClearedRow(2, row).evaluate(a, denominator)
    rational = [p.evaluate(point[:2]) for p in row]
    scales = {v / r for v, r in zip(values, rational) if r}
    assert len(scales) <= 1 and all(s > 0 for s in scales)
    assert [v == 0 for v in values] == [r == 0 for r in rational]
