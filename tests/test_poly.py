import itertools
import math
import sys
import time
from fractions import Fraction as F
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from subcart import poly
from subcart.errors import DimensionMismatchError, ParseError, SubcartError
from subcart.poly import Polynomial, constant, parse, variable, zero
from subcart.space import compose_cleared

from oracles import (
    as_fractions,
    naive_add,
    naive_compose_cleared,
    naive_eval,
    naive_mul,
    naive_partial,
    naive_pow,
    naive_scale,
)


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
        p * p
    assert time.perf_counter() - start < 0.1
    with pytest.raises(ParseError, match="more than 2000 terms") as info:
        parse(f"{text}*{text}", 3)
    assert info.value.position == len(text)
    # 3 * 680 pairs, but only C(19, 3) = 969 monomials of degree at most 16
    q, r = parse("x1^2+x2^2-x3^2", 3), parse("(x1+x2+x3+1)^14", 3)
    assert len((q * r).terms) == 934
    assert (q * r).terms == naive_mul(q.terms, r.terms)
    # 51 * 51 pairs in one variable, but only 101 monomials
    square = parse("(x1+1)^50", 1) * parse("(x1-1)^50", 1)
    assert square.terms == naive_pow({(2,): F(1), (0,): F(-1)}, 50, 1)


@st.composite
def capped_products(draw):
    """(a, b, cap): two polynomials in 1-2 variables, with no cancelling
    coefficients, and a term cap for their product."""
    dim = draw(st.integers(1, 2))
    exponents = st.tuples(*[st.integers(0, 3)] * dim)
    a, b = (draw(st.dictionaries(exponents, st.integers(1, 3), max_size=5)) for _ in "ab")
    return Polynomial(dim, a), Polynomial(dim, b), draw(st.integers(1, 12))


@settings(deadline=None, max_examples=300, derandomize=True)
@given(capped_products())
def test_a_product_is_refused_exactly_when_it_may_pass_the_term_cap(case):
    # refused iff more than the cap exponents are the sum of one of each,
    # or len(a) + len(b) - 1 (their least count) is more than the cap
    a, b, cap = case
    sums = {tuple(map(sum, zip(ea, eb))) for ea in a.terms for eb in b.terms}
    refused = bool(a.terms) and max(len(sums), len(a.terms) + len(b.terms) - 1) > cap
    with patch.object(poly, "MAX_TERMS", cap):
        if refused:
            with pytest.raises(SubcartError, match=f"^more than {cap} terms$"):
                a * b
        else:
            assert (a * b).terms == naive_mul(a.terms, b.terms)


def test_a_rational_too_long_to_print_is_refused():
    # str refuses an int of more digits than the interpreter's limit
    limit = sys.get_int_max_str_digits()
    assert poly.rational_text(F(-1, 10 ** (limit - 1))) == "-1/1" + "0" * (limit - 1)
    for value in (10**limit, F(1, 10**limit)):
        with pytest.raises(SubcartError, match=rf"^a rational has more than {limit} digits"):
            poly.rational_text(value)
    with pytest.raises(SubcartError, match=rf"more than {limit} digits"):
        poly.format_point((F(0), F(1, 10**limit)))


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


def test_a_polynomial_equals_no_other_type():
    p = parse("x1", 1)
    assert p.__eq__("x1") is NotImplemented
    assert p != "x1" and p != 1 and parse("1", 1) != 1


def test_repr_names_the_dimension_and_the_text():
    p = parse("x1^2 - 1/2*x2", 2)
    assert repr(p) == f"Polynomial(2, {str(p)!r})" == "Polynomial(2, 'x1^2 - 1/2*x2')"


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


# int coefficients: a coefficient is stored as an int exactly when it is
# integral, and every operation agrees with all-Fraction arithmetic

mixed_coefficients = st.one_of(st.integers(-6, 6), coefficients)


def mixed_terms(dim, max_terms=4, max_exponent=3):
    exponents = st.tuples(*[st.integers(0, max_exponent)] * dim)
    return st.dictionaries(exponents, mixed_coefficients, max_size=max_terms)


def assert_normal(p: Polynomial) -> None:
    for c in p.terms.values():
        assert type(c) in (int, F) and (type(c) is int) == (F(c).denominator == 1)


@st.composite
def mixed_cases(draw):
    dim, param_dim = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    a, b = draw(mixed_terms(dim)), draw(mixed_terms(dim))
    numerators = [draw(mixed_terms(param_dim, 3, 2)) for _ in range(dim)]
    denominator = draw(mixed_terms(param_dim, 3, 2).filter(lambda t: any(t.values())))
    factor = draw(mixed_coefficients)
    return dim, param_dim, a, b, numerators, denominator, factor


@settings(deadline=None, max_examples=200)
@given(mixed_cases())
def test_mixed_coefficients_match_all_fraction_arithmetic(case):
    dim, param_dim, a, b, numerators, denominator, factor = case
    p, q = Polynomial(dim, a), Polynomial(dim, b)
    fa, fb = as_fractions(a), as_fractions(b)
    results = {
        "+": (p + q, naive_add(fa, fb)),
        "-": (p - q, naive_add(fa, naive_scale(fb, -1))),
        "*": (p * q, naive_mul(fa, fb)),
        "scale": (p.scale(factor), naive_scale(fa, factor)),
        "compose_cleared": (
            compose_cleared(
                p,
                [Polynomial(param_dim, n) for n in numerators],
                Polynomial(param_dim, denominator),
            ),
            naive_compose_cleared(
                fa, [as_fractions(n) for n in numerators], as_fractions(denominator),
                param_dim,
            ),
        ),
    }
    for i in range(1, dim + 1):
        results[f"partial {i}"] = (p.partial(i), naive_partial(fa, i - 1))
    for name, (result, expected) in results.items():
        assert result.terms == expected, name
        assert_normal(result)
    assert_normal(p)
    assert p == Polynomial(dim, fa) and hash(p) == hash(Polynomial(dim, fa))


def test_integral_coefficients_are_stored_as_ints():
    twin = Polynomial(2, {(1, 0): F(2)})
    assert Polynomial(2, {(1, 0): 2}) == twin
    assert hash(Polynomial(2, {(1, 0): 2})) == hash(twin)
    assert type(twin.terms[(1, 0)]) is int
    assert type(Polynomial(2, {(1, 0): F(3, 2)}).terms[(1, 0)]) is F
    p = parse("(x1 + 1/2)^2 - 1/4 + 2*x2", 2)
    assert p.terms == {(2, 0): 1, (1, 0): 1, (0, 1): 2}
    assert all(type(c) is int for c in p.terms.values())
    assert type(constant(F(4, 2), 1).terms[(0,)]) is int


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


@st.composite
def column_cases(draw):
    """A row of 0-3 polynomials of degree at most 4 in 1-3 variables, with
    int and Fraction coefficients (constants and the zero polynomial
    among them), and 0-40 points a/D, each with its own D >= 1."""
    dim = draw(st.integers(1, 3))
    row = []
    for _ in range(draw(st.integers(0, 3))):
        terms = {}
        for _ in range(draw(st.integers(0, 4))):
            exponent = []
            for _ in range(dim):
                exponent.append(draw(st.integers(0, 4 - sum(exponent))))
            terms[tuple(exponent)] = draw(mixed_coefficients)
        row.append(Polynomial(dim, terms))
    numerators = st.lists(st.integers(-30, 30), min_size=dim, max_size=dim)
    cleared = draw(st.lists(st.tuples(numerators, st.integers(1, 12)), max_size=40))
    return poly.ClearedRow(dim, row), cleared


@settings(deadline=None, max_examples=300)
@given(column_cases())
def test_column_evaluation_matches_evaluation_at_every_point(case):
    row, cleared = case
    columns = [[a[i] for a, _ in cleared] for i in range(row.ambient_dim)]
    values = row.evaluate_columns(columns, [d for _, d in cleared])
    assert len(values) == len(row._rows)
    assert all(len(column) == len(cleared) for column in values)
    for k, (a, d) in enumerate(cleared):
        at_point = [column[k] for column in values]
        assert at_point == row.evaluate(a, d)
        assert all(type(v) is int for v in at_point)
    # a wrong column count is evaluate's error, with its message
    for wrong in (row.ambient_dim - 1, row.ambient_dim + 1):
        with pytest.raises(DimensionMismatchError) as scalar:
            row.evaluate([0] * wrong, 1)
        with pytest.raises(DimensionMismatchError) as column:
            row.evaluate_columns([[0]] * wrong, [1])
        assert str(column.value) == str(scalar.value)


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
