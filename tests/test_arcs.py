"""Exact orders along arcs and the order-equality probe."""

import math
from fractions import Fraction

import pytest

from kuothom import (
    INF,
    Arc,
    arc_generator,
    compose_arc,
    equivalence_probes,
    kuo_polynomial,
    kuo_value,
    ledger,
    map_germ,
    parse_arc,
    parse_polynomial,
    parse_unipoly,
    probe_csv,
    thom_polynomial,
    thom_value,
    UniPoly,
)
from corpus import corpus_arcs, corpus_germ


def mk(texts, nvars):
    return map_germ([parse_polynomial(t, nvars) for t in texts])


PLANE_GERM = mk(["x - y^2", "x^2"], 2)
SCALAR_GERM = mk(["x - y^2"], 2)
CUSP_ARC = parse_arc("t^2; t")


# -- orders of univariate polynomials -----------------------------------------


def test_unipoly_order_examples():
    assert parse_unipoly("t - t^4").order == 1
    assert UniPoly.zero().order == INF
    assert parse_unipoly("3*t^5").order == 5


# -- arc validation and parsing -------------------------------------------------


def test_arc_must_vanish_at_zero():
    with pytest.raises(ValueError):
        parse_arc("t + 1; t")


def test_arc_needs_a_nonzero_component():
    with pytest.raises(ValueError):
        Arc((UniPoly.zero(), UniPoly.zero()))


def test_arc_round_trip():
    arc = parse_arc("t^2; t - t^3")
    assert parse_arc(arc.to_string()) == arc
    assert arc.n == 2
    assert arc.order == 1


def test_arc_nvars_pads_zero_components():
    arc = parse_arc("t; 0", 2)
    assert arc.n == 2
    assert arc.components[1].is_zero
    with pytest.raises(ValueError):
        parse_arc("t", 2)


# -- the order ledger ---------------------------------------------------------


def test_ledger_scalar_germ_on_cusp_arc():
    # f vanishes identically on the arc; the minor orders keep v finite
    led = ledger(SCALAR_GERM, CUSP_ARC)
    assert led.ord_u == INF
    assert led.ord_norm_x == 1
    assert [o for _, o in led.ord_minors] == [0, 1]
    assert led.ord_v == 1
    assert [o for _, o in led.ord_thom_minors] == [1]
    assert led.ord_w == 1
    assert led.ord_h == 1
    assert led.ord_g == 1


def test_ledger_plane_pair_on_cusp_arc():
    led = ledger(PLANE_GERM, CUSP_ARC)
    assert led.ord_f == (INF, 4)
    assert led.ord_u == 4
    assert [o for _, o in led.ord_minors] == [3]
    assert led.ord_v == 4
    assert led.ord_thom_minors == ()
    assert led.ord_w == INF
    assert led.ord_h == 4
    assert led.ord_g == 4


def test_ledger_on_swapped_arc():
    led = ledger(SCALAR_GERM, parse_arc("t; t^2"))
    assert led.ord_u == 1


def test_ledger_dimension_mismatch():
    with pytest.raises(ValueError):
        ledger(SCALAR_GERM, parse_arc("t"))


@pytest.mark.parametrize("index", [0, 1, 2, 5, 9, 14])
def test_ledger_min_rules(index):
    germ = corpus_germ(index)
    for arc in corpus_arcs(index, germ.n, count=6):
        led = ledger(germ, arc)
        assert led.ord_h == min(led.ord_v, led.ord_u)
        assert led.ord_g == min(led.ord_w, led.ord_u)
        minor_min = min((o for _, o in led.ord_minors), default=INF)
        assert led.ord_v == led.ord_norm_x + minor_min
        assert led.ord_u == min(led.ord_f)


# -- arc orders of the two quantities ---------------------------------------------


def test_orders_scalar_germ_cusp_arc():
    led = ledger(SCALAR_GERM, CUSP_ARC)
    assert (led.ord_h, led.ord_g) == (1, 1)


def test_orders_plane_pair_cusp_arc():
    led = ledger(PLANE_GERM, CUSP_ARC)
    assert (led.ord_h, led.ord_g) == (4, 4)


def test_orders_scale_linearly_in_m():
    # for even m the quantities are polynomials, so composing them in full
    # gives ord K_m and ord T_m without the ledger; both are m times its orders
    polys = {m: (kuo_polynomial(PLANE_GERM, m), thom_polynomial(PLANE_GERM, m)) for m in (2, 4)}
    for arc in corpus_arcs(3, PLANE_GERM.n, count=8):
        led = ledger(PLANE_GERM, arc)
        for m, (kuo_m, thom_m) in polys.items():
            assert compose_arc(kuo_m, arc.components).order == m * led.ord_h
            assert compose_arc(thom_m, arc.components).order == m * led.ord_g


def test_zero_padded_arc():
    arc = parse_arc("t; 0", 2)
    # along the x-axis f = (x, x^2): u has order 1, matching K and T
    led = ledger(mk(["x", "x^2"], 2), arc)
    assert (led.ord_h, led.ord_g) == (1, 1)


def test_infinite_orders_on_annihilating_arc():
    # (x - y^2)^2 composed with the cusp arc vanishes identically and the
    # single gradient minor does too, so both orders are infinite
    germ = mk(["(x - y^2)^2"], 2)
    arc = CUSP_ARC
    led = ledger(germ, arc)
    assert (led.ord_h, led.ord_g) == (INF, INF)
    report = equivalence_probes(germ, [arc], [1])[0]
    assert report.rows[0].equal
    assert "inf,inf,true" in probe_csv(report)


# -- the order-equality probe --------------------------------------------------------


def test_probe_all_equal_on_plane_pair():
    arcs = corpus_arcs(0, 2, count=50)
    report = equivalence_probes(PLANE_GERM, arcs, [1])[0]
    assert report.n_total == 50
    assert report.n_equal == 50
    assert report.all_equal


def test_probe_rows_are_ordered_by_arc_index():
    arcs = corpus_arcs(1, 2, count=10)
    report = equivalence_probes(SCALAR_GERM, arcs, [1])[0]
    assert [r.arc_id for r in report.rows] == list(range(10))


def test_probe_csv_format():
    report = equivalence_probes(PLANE_GERM, [CUSP_ARC], [1])[0]
    lines = probe_csv(report).strip().splitlines()
    assert lines[0] == "arc_id,ord_K,ord_T,equal"
    assert lines[1] == "0,4,4,true"


def test_equal_dims_order_is_component_order():
    germ = mk(["x + y^2", "y - x^3"], 2)
    for arc in corpus_arcs(5, 2, count=12):
        expected = min(compose_arc(c, arc.components).order for c in germ.components)
        led = ledger(germ, arc)
        assert (led.ord_h, led.ord_g) == (expected, expected)


# -- arc generator ----------------------------------------------------------------


def test_arc_generator_deterministic():
    a = arc_generator(1, 2)
    b = arc_generator(1, 2)
    assert a == b
    assert arc_generator(2, 2) != a


def test_arc_generator_respects_bounds():
    for seed in range(30):
        arc = arc_generator(seed, 3, max_exponent=4, max_terms=2, coeff_bound=5)
        assert arc.n == 3
        assert any(not c.is_zero for c in arc.components)
        for comp in arc.components:
            assert comp.coeffs[:1] in ((), (Fraction(0),))
            assert comp.is_zero or comp.degree <= 4
            nonzero = [c for c in comp.coeffs if c]
            assert len(nonzero) <= 2
            for c in nonzero:
                assert abs(c.numerator) <= 5 * 5 and c.denominator <= 5


def test_arc_generator_linear_only():
    for seed in range(10):
        arc = arc_generator(seed, 3, max_exponent=1)
        for comp in arc.components:
            assert comp.is_zero or comp.degree == 1


def test_arc_generator_invalid_bounds():
    with pytest.raises(ValueError):
        arc_generator(0, 2, max_exponent=0)


# -- independent oracles for the order computation ------------------------------------


@pytest.mark.parametrize("index", [0, 3, 4, 7, 10])
def test_symbolic_expansion_oracle(index):
    # for even m the quantity is a polynomial, so composing it with the arc
    # and reading the first nonzero exponent is an independent order route
    germ = corpus_germ(index)
    kuo2 = kuo_polynomial(germ, 2)
    thom2 = thom_polynomial(germ, 2)
    for arc in corpus_arcs(index, germ.n, count=10):
        led = ledger(germ, arc)
        assert compose_arc(kuo2, arc.components).order == 2 * led.ord_h
        assert compose_arc(thom2, arc.components).order == 2 * led.ord_g


def _horner(q: UniPoly, t: float) -> float:
    total = 0.0
    for c in reversed(q.coeffs):
        total = total * t + float(c)
    return total


@pytest.mark.parametrize("index", [0, 2, 5, 8])
def test_numeric_slope_oracle(index):
    # log K1(lambda(t)) / log t -> ord as t -> 0; five decades of t suffice
    # for the fit as long as the order is small enough to avoid underflow
    germ = corpus_germ(index)
    for arc in corpus_arcs(index, germ.n, count=8):
        led = ledger(germ, arc)
        ok, ot = led.ord_h, led.ord_g
        if ok == INF or ok > 30:
            continue
        ts = [10.0**-k for k in range(4, 9)]
        for order, value in ((ok, kuo_value), (ot, thom_value)):
            logs = []
            for t in ts:
                x = tuple(_horner(c, t) for c in arc.components)
                logs.append(math.log(value(germ, 1, x)))
            slopes = [
                (logs[i + 1] - logs[i]) / (math.log(ts[i + 1]) - math.log(ts[i]))
                for i in range(len(ts) - 1)
            ]
            assert abs(slopes[-1] - order) < 0.01
