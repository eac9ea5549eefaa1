"""Exact polynomial arithmetic, parsing, and arc composition."""

import copy
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kuothom import (
    INF,
    ParseError,
    Polynomial,
    UniPoly,
    compose_arc,
    compose_order,
    parse_polynomial,
    parse_unipoly,
)
from kuothom.poly import MAX_DEGREE, MAX_VARIABLES


def P(text: str, nvars: int | None = None) -> Polynomial:
    return parse_polynomial(text, nvars)


@st.composite
def polynomials(draw, nvars: int | None = None, max_degree: int = 4) -> Polynomial:
    n = nvars if nvars is not None else draw(st.integers(1, 3))
    terms: dict[tuple[int, ...], Fraction] = {}
    for _ in range(draw(st.integers(1, 5))):
        mono = [0] * n
        for _ in range(draw(st.integers(0, max_degree))):
            mono[draw(st.integers(0, n - 1))] += 1
        coeff = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 4)))
        key = tuple(mono)
        terms[key] = terms.get(key, Fraction(0)) + coeff
    return Polynomial(n, terms)


@st.composite
def unipolys(draw, max_degree: int = 6) -> UniPoly:
    coeffs = draw(st.lists(st.integers(-5, 5), min_size=0, max_size=max_degree + 1))
    return UniPoly([Fraction(c) for c in coeffs])


# -- construction and canonical form ----------------------------------------


def test_zero_coefficients_are_dropped():
    p = Polynomial(2, {(1, 0): Fraction(1), (0, 2): Fraction(0)})
    assert (0, 2) not in p.terms
    assert p == P("x", 2)


def test_like_terms_accumulate_in_constructor():
    p = Polynomial(2, {(1, 0): 2, (0, 1): 1}) + Polynomial(2, {(1, 0): -2})
    assert p == P("y")
    assert p.terms == {(0, 1): 1}


def test_immutability():
    p = P("x + y")
    with pytest.raises(AttributeError):
        p.nvars = 3


@pytest.mark.parametrize("value", [P("1/2*x^3 - y*z + 4", 3), P("0", 2), UniPoly([0, 1, Fraction(-3, 4)]),
                                   UniPoly.zero()])
def test_pickle_and_copy_round_trip(value):
    for clone in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert clone == value
        assert hash(clone) == hash(value)
        with pytest.raises(AttributeError):
            clone.coeffs = ()


def test_equal_polynomials_hash_equal():
    a = P("x - y^2") + P("y^2")
    b = P("x", 2)
    assert a == b
    assert hash(a) == hash(b)


def test_variable_index_bounds():
    with pytest.raises(ValueError):
        Polynomial.variable(2, 2)
    with pytest.raises(ValueError):
        Polynomial(0, {})


# -- ring operations ---------------------------------------------------------


def test_add_cancellation():
    assert P("x - y^2") + P("y^2") == P("x", 2)


def test_add_identity():
    p = P("3*x^2 - y")
    assert p + Polynomial.zero(2) == p


def test_add_doubling():
    assert P("x") + P("x") == P("2*x")


def test_add_nvars_mismatch():
    with pytest.raises(ValueError):
        P("x", 1) + P("y", 2)


def test_mul_conjugate():
    assert P("x - y^2") * P("x + y^2") == P("x^2 - y^4")


def test_mul_identity():
    p = P("x^3 - 2*x*y")
    assert p * Polynomial.constant(2, 1) == p


def test_mul_variables():
    assert P("x", 2) * P("y") == P("x*y")


def test_scalar_mul_and_pow():
    assert 3 * P("x") == P("3*x")
    assert Fraction(1, 2) * P("2*y") == P("y")
    assert P("x + y") ** 2 == P("x^2 + 2*x*y + y^2")
    assert P("x", 2) ** 0 == Polynomial.constant(2, 1)


def order_at_origin(p: Polynomial) -> float:
    """Smallest total degree of a term; INF for the zero polynomial."""
    return min((sum(m) for m in p.terms), default=INF)


@given(polynomials(nvars=2), polynomials(nvars=2))
def test_mul_order_additivity(a, b):
    # ord(a*b) = ord(a) + ord(b); INF absorbs per the total-order convention
    prod = a * b
    if a.is_zero or b.is_zero:
        assert order_at_origin(prod) == INF
    else:
        assert order_at_origin(prod) == order_at_origin(a) + order_at_origin(b)


# -- differentiation ----------------------------------------------------------


def test_partial_examples():
    assert P("x - y^2").partial(1) == P("-2*y")
    assert P("x^2", 2).partial(0) == P("2*x", 2)
    assert P("y^3").partial(0) == Polynomial.zero(2)


def test_partial_index_out_of_range():
    with pytest.raises(ValueError):
        P("x").partial(1)


@given(polynomials(nvars=2), polynomials(nvars=2), st.integers(0, 1))
def test_leibniz_rule(a, b, i):
    assert (a * b).partial(i) == a.partial(i) * b + a * b.partial(i)


# -- evaluation ---------------------------------------------------------------


def test_eval_exact_examples():
    assert P("x - y^2").eval_exact((1, 1)) == 0
    assert P("x^2", 2).eval_exact((Fraction(1, 2), 0)) == Fraction(1, 4)
    assert P("x - y^2").eval_exact((Fraction(1, 4), Fraction(1, 2))) == 0


def test_eval_dimension_mismatch():
    with pytest.raises(ValueError):
        P("x + y").eval_exact((1,))
    with pytest.raises(ValueError):
        P("x + y").eval_float((1.0, 2.0, 3.0))


@given(
    polynomials(nvars=2),
    st.fractions(min_value=-1, max_value=1, max_denominator=64),
    st.fractions(min_value=-1, max_value=1, max_denominator=64),
)
def test_eval_float_matches_exact(p, a, b):
    exact = p.eval_exact((a, b))
    approx = p.eval_float((float(a), float(b)))
    assert abs(approx - float(exact)) <= 1e-10 * max(1.0, abs(float(exact)))
    # an array of points: each row of the result is the point result of that row
    rows = np.array([[float(a), float(b)], [float(b), float(a)], [0.0, 0.0]])
    for row, value in zip(rows, p.eval_float(rows)):
        point = p.eval_float(tuple(row))
        assert abs(value - point) <= 1e-10 * max(1.0, abs(point))


# -- arc composition ------------------------------------------------------------


def test_compose_arc_direct():
    arc = (parse_unipoly("t"), parse_unipoly("t^2"))
    assert compose_arc(P("x - y^2"), arc) == parse_unipoly("t - t^4")


def test_compose_arc_cancellation():
    arc = (parse_unipoly("t^2"), parse_unipoly("t"))
    assert compose_arc(P("x - y^2"), arc).is_zero
    assert compose_arc(P("x^2", 2), arc) == parse_unipoly("t^4")


def test_compose_arc_dimension_mismatch():
    with pytest.raises(ValueError):
        compose_arc(P("x + y"), (parse_unipoly("t"),))


def _in_t(q: UniPoly) -> Polynomial:
    """q as a polynomial in one variable, whose ring operations UniPoly lacks."""
    return Polynomial(1, {(e,): c for e, c in enumerate(q.coeffs)})


@given(polynomials(nvars=2), polynomials(nvars=2), unipolys(), unipolys())
def test_compose_arc_is_ring_homomorphism(a, b, u, v):
    arc = (u, v)
    assert _in_t(compose_arc(a * b, arc)) == _in_t(compose_arc(a, arc)) * _in_t(compose_arc(b, arc))
    assert _in_t(compose_arc(a + b, arc)) == _in_t(compose_arc(a, arc)) + _in_t(compose_arc(b, arc))


# arcs where any component may be zero, or nonzero at t = 0
arc_components = st.one_of(unipolys(), st.just(UniPoly.zero()))


@given(polynomials(nvars=3), arc_components, arc_components, arc_components)
def test_compose_order_matches_full_composition(p, u, v, w):
    full = compose_arc(p, (u, v, w))
    assert compose_order(p, (u, v, w)) == full.order
    # a cache filled by an earlier call changes nothing
    shared: dict = {}
    assert compose_order(p, (u, v, w), shared) == full.order
    assert compose_order(p, (u, v, w), shared) == full.order


@given(unipolys(), polynomials(nvars=2), st.integers(1, 12))
def test_compose_order_on_an_annihilating_arc(g, q, k):
    # x - g(y) vanishes identically on (g(t), t), and so does any multiple;
    # a single extra y^k then sets the order to k however deep it lies
    graph = Polynomial(2, {(1, 0): 1, **{(0, j): -c for j, c in enumerate(g.coeffs)}})
    p = graph * q
    arc = (g, parse_unipoly("t"))
    assert compose_order(p, arc) == INF
    assert compose_arc(p, arc).is_zero
    assert compose_order(p + P(f"y^{k}", 2), arc) == k


def test_compose_order_dimension_mismatch():
    with pytest.raises(ValueError):
        compose_order(P("x + y"), (parse_unipoly("t"),))


def test_compose_arc_rational_coefficients():
    p = P("1/2*x^2 - 1/3*y")
    arc = (parse_unipoly("2*t"), parse_unipoly("3*t^2"))
    # 1/2*(2t)^2 - 1/3*(3t^2) = 2t^2 - t^2 = t^2
    assert compose_arc(p, arc) == parse_unipoly("t^2")


# -- UniPoly -------------------------------------------------------------------


def test_unipoly_trailing_zeros_trimmed():
    assert UniPoly([1, 0, 0]).coeffs == (Fraction(1),)
    assert UniPoly([0, 0]).is_zero


def test_unipoly_order_and_degree():
    q = parse_unipoly("t^2 - t^5")
    assert q.order == 2
    assert q.degree == 5
    assert UniPoly.zero().order == INF


# -- parsing and printing --------------------------------------------------------


def test_parse_aliases_and_indexed_names():
    assert P("x2", 3) == Polynomial.variable(3, 1)
    assert P("y", 3) == Polynomial.variable(3, 1)
    assert P("x5") == Polynomial.variable(5, 4)


def test_parse_infers_nvars():
    assert P("x - y^2").nvars == 2
    assert P("z").nvars == 3
    assert P("7").nvars == 1


def test_parse_rational_literals():
    assert P("1/2*x") == Fraction(1, 2) * P("x")
    with pytest.raises(ParseError):
        P("1/0")


def test_parse_rejects_implicit_multiplication():
    with pytest.raises(ParseError):
        P("2x")
    with pytest.raises(ParseError):
        P("x y")


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as info:
        P("x +\n* y")
    assert info.value.line == 2
    assert info.value.column == 1


def test_parse_unknown_variable():
    with pytest.raises(ParseError):
        P("q + 1")
    with pytest.raises(ParseError):
        P("x3", 2)


@pytest.mark.parametrize(
    "text,column",
    [
        ("x^1500 + y^1500", 3),  # the power is refused before it is formed
        ("x^200*y^100", 6),  # and so is a product
        ("2^300", 3),  # an exponent above the cap, whatever the base
        ("(x + y + z + w + 1)^24", 21),  # 20,475 terms: above the term cap
        ("((2^256)^256)^256", 10),  # a 65,537-bit constant: above the coefficient-bit cap
        ("x9", 1),
        ("x1000000000", 1),
    ],
)
def test_parse_refuses_input_above_the_caps(text, column):
    with pytest.raises(ParseError) as info:
        P(text)
    assert info.value.column == column


def test_parse_caps_cover_arc_text_and_admit_their_limits():
    with pytest.raises(ParseError):
        parse_unipoly("t^1000000000")
    assert parse_unipoly(f"t^{MAX_DEGREE}").degree == MAX_DEGREE
    assert P(f"x^{MAX_DEGREE // 2}*y^{MAX_DEGREE // 2}").total_degree == MAX_DEGREE
    assert P(f"x{MAX_VARIABLES}").nvars == MAX_VARIABLES


def test_unary_minus_binds_below_power():
    # -x^2 is -(x^2), and (-x)^2 is x^2
    assert P("-x^2") == -P("x^2")
    assert P("(-x)^2") == P("x^2")


@given(polynomials())
def test_to_string_round_trip(p):
    assert parse_polynomial(p.to_string(), p.nvars) == p


def test_to_string_many_variables():
    p = Polynomial.variable(5, 4) + Polynomial.variable(5, 0)
    text = p.to_string()
    assert "x5" in text and "x1" in text
    assert parse_polynomial(text, 5) == p


def test_zero_prints_as_zero():
    assert Polynomial.zero(3).to_string() == "0"
    assert UniPoly.zero().to_string() == "0"
