"""Distance to Sigma, relative conditions, deformations, and ellipticity."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import kuothom.relative as rel
from kuothom import (
    AlgebraicSet,
    CoordinateSubspaceUnion,
    JetMismatchError,
    Polynomial,
    RelativeScanConfig,
    ScanConfig,
    UnsupportedSigmaError,
    check_compatibility,
    check_condition,
    check_relative,
    deformation,
    jets_equal_on_sigma,
    map_germ,
    parse_polynomial,
    parse_sigma,
    sigma_elliptic_probe,
)
from kuothom.quantities import KUO

FAST = RelativeScanConfig(bands=6, samples_per_band=96, anchor_directions=4)


def mk(texts, nvars):
    return map_germ([parse_polynomial(t, nvars) for t in texts])


X_AXIS = CoordinateSubspaceUnion(2, ((0,),))
CROSS = CoordinateSubspaceUnion(2, ((0,), (1,)))
ORIGIN_2 = CoordinateSubspaceUnion(2, ((),))
SQUARE_GERM = mk(["y^2"], 2)


# -- distance to a union of coordinate subspaces -------------------------------


def distance(sigma, x):
    """Distance of one point, through the array route."""
    return float(sigma.distance_many(np.array([x], dtype=float))[0])


def test_distance_to_one_axis():
    assert distance(X_AXIS, (3.0, 4.0)) == pytest.approx(4.0, abs=1e-15)


def test_distance_to_axis_union():
    assert distance(CROSS, (3.0, 4.0)) == pytest.approx(3.0, abs=1e-15)


def test_distance_to_origin_is_the_norm():
    assert distance(ORIGIN_2, (3.0, 4.0)) == pytest.approx(5.0, abs=1e-15)
    assert ORIGIN_2.is_origin_only
    assert not X_AXIS.is_origin_only


def test_subspace_union_validation():
    with pytest.raises(ValueError):
        CoordinateSubspaceUnion(2, ())
    with pytest.raises(ValueError):
        CoordinateSubspaceUnion(2, ((0, 1),))
    with pytest.raises(ValueError):
        CoordinateSubspaceUnion(2, ((0,), (0,)))
    with pytest.raises(ValueError):
        CoordinateSubspaceUnion(2, ((2,),))
    with pytest.raises(ValueError):
        CoordinateSubspaceUnion(2, ((1, 0),))
    with pytest.raises(ValueError):
        distance(X_AXIS, (1.0, 2.0, 3.0))
    with pytest.raises(ValueError):
        X_AXIS.distance_many(np.zeros(2))


@given(
    st.lists(st.floats(-5, 5), min_size=3, max_size=3),
    st.lists(st.floats(-5, 5), min_size=3, max_size=3),
)
def test_distance_is_lipschitz(xs, ys):
    sigma = CoordinateSubspaceUnion(3, ((0,), (1, 2)))
    gap = abs(distance(sigma, xs) - distance(sigma, ys))
    assert gap <= math.dist(xs, ys) + 1e-9


def test_distance_sq_exact_matches_float():
    sigma = CoordinateSubspaceUnion(3, ((0,), (2,)))
    rng = random.Random(11)
    for _ in range(40):
        q = [Fraction(rng.randint(-20, 20), 16) for _ in range(3)]
        exact = sigma.distance_sq_exact(q)
        approx = distance(sigma, [float(c) for c in q])
        assert approx**2 == pytest.approx(float(exact), rel=1e-12, abs=1e-15)


# -- distance to an algebraic set ------------------------------------------------


def test_algebraic_set_validation():
    with pytest.raises(ValueError):
        AlgebraicSet(2, ())
    with pytest.raises(ValueError):
        AlgebraicSet(2, (parse_polynomial("x + 1", 2),))
    with pytest.raises(ValueError):
        AlgebraicSet(2, (parse_polynomial("x", 3),))


def test_algebraic_distance_to_point_locus():
    # x^2 + y^2 vanishes only at the origin
    sigma = AlgebraicSet(2, (parse_polynomial("x^2 + y^2", 2),))
    assert sigma.distance((0.3, 0.4)) == pytest.approx(0.5, abs=1e-3)


def test_algebraic_distance_vanishes_on_the_locus():
    sigma = AlgebraicSet(2, (parse_polynomial("x - y^2", 2),))
    assert sigma.distance((0.25, 0.5)) <= 1e-6


def test_algebraic_distance_to_parabola():
    # the closest parabola point to (0.1, 0) is the origin
    sigma = AlgebraicSet(2, (parse_polynomial("x - y^2", 2),))
    assert sigma.distance((0.1, 0.0)) == pytest.approx(0.1, abs=1e-4)


def test_algebraic_distance_never_exceeds_the_norm():
    sigma = AlgebraicSet(2, (parse_polynomial("x*y", 2),))
    rng = random.Random(4)
    for _ in range(20):
        x = (rng.uniform(-1, 1), rng.uniform(-1, 1))
        assert sigma.distance(x) <= math.hypot(*x) + 1e-12


# -- parsing and description -------------------------------------------------------


def test_parse_subspace_union():
    sigma = parse_sigma("subspaces: [x], [y]", 2)
    assert sigma == CROSS
    assert parse_sigma("subspaces: []", 2) == ORIGIN_2
    assert parse_sigma("subspaces: [x1,x2]", 3) == CoordinateSubspaceUnion(3, ((0, 1),))


def test_parse_algebraic_set():
    sigma = parse_sigma("zeros: x2; x3", 3)
    assert isinstance(sigma, AlgebraicSet)
    assert sigma.generators == (parse_polynomial("y", 3), parse_polynomial("z", 3))


def test_parse_sigma_rejects_malformed_text():
    with pytest.raises(ValueError):
        parse_sigma("spheres: [x]", 2)
    with pytest.raises(ValueError):
        parse_sigma("subspaces: [x], y", 2)
    with pytest.raises(ValueError):
        parse_sigma("subspaces: [[x]]", 2)
    with pytest.raises(ValueError):
        parse_sigma("subspaces: [x", 2)
    with pytest.raises(ValueError):
        parse_sigma("zeros: x + 1", 2)


def test_describe_round_trip():
    for sigma in (X_AXIS, CROSS, ORIGIN_2, CoordinateSubspaceUnion(5, ((0, 4),))):
        assert parse_sigma(sigma.describe(), sigma.nvars) == sigma
    alg = AlgebraicSet(2, (parse_polynomial("x - y^2", 2),))
    assert parse_sigma(alg.describe(), 2) == alg


# -- symbolic jet comparison --------------------------------------------------------


def test_jets_equal_cubic_perturbation():
    f = SQUARE_GERM
    g = mk(["y^2 + x*y^3"], 2)
    assert jets_equal_on_sigma(f, g, 2, X_AXIS)
    assert not jets_equal_on_sigma(f, g, 3, X_AXIS)


def test_jets_equal_reflexive():
    f = mk(["x - y^2", "x^2"], 2)
    for r in (0, 1, 2, 5):
        assert jets_equal_on_sigma(f, f, r, X_AXIS)
        assert jets_equal_on_sigma(f, f, r, CROSS)


def test_jets_differ_in_second_order():
    g = mk(["y^2 + x^2"], 2)
    # x^2 does not even vanish on the axis, so the jets differ from r = 0 on
    assert not jets_equal_on_sigma(SQUARE_GERM, g, 2, X_AXIS)
    assert not jets_equal_on_sigma(SQUARE_GERM, g, 0, X_AXIS)
    h = mk(["y^2 + x*y^2"], 2)
    assert jets_equal_on_sigma(SQUARE_GERM, h, 1, X_AXIS)
    assert not jets_equal_on_sigma(SQUARE_GERM, h, 2, X_AXIS)


def test_jets_refuse_algebraic_sigma():
    sigma = AlgebraicSet(2, (parse_polynomial("x - y^2", 2),))
    with pytest.raises(UnsupportedSigmaError):
        jets_equal_on_sigma(SQUARE_GERM, SQUARE_GERM, 1, sigma)


@st.composite
def vanishing_polynomials(draw):
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        mono = (draw(st.integers(0, 3)), draw(st.integers(0, 3)))
        if mono == (0, 0):
            mono = (1, 0)
        terms[mono] = Fraction(draw(st.integers(-5, 5)))
    return Polynomial(2, terms)


@given(vanishing_polynomials(), st.integers(0, 4))
def test_jets_match_monomial_degree_rule(diff, r):
    # the definition, independently of the degree rule the program uses:
    # the order-r jets of f and f + diff agree on the x-axis exactly when
    # every partial derivative of diff of order at most r vanishes at y = 0
    f = SQUARE_GERM
    g = map_germ([f.components[0] + diff])
    expected = True
    derivatives = [diff]
    for _ in range(r + 1):
        if any(mono[1] == 0 for q in derivatives for mono in q.terms):
            expected = False
        derivatives = [q.partial(i) for q in derivatives for i in (0, 1)]
    assert jets_equal_on_sigma(f, g, r, X_AXIS) == expected


def test_jets_on_union_require_every_subspace():
    f = SQUARE_GERM
    g = mk(["y^2 + x^2*y"], 2)
    # x^2*y vanishes to order 1 in y but only to order 2 in x
    assert jets_equal_on_sigma(f, g, 0, CROSS)
    assert jets_equal_on_sigma(f, g, 0, X_AXIS)
    assert not jets_equal_on_sigma(f, g, 1, CROSS)


# -- deformation -------------------------------------------------------------------


def test_deformation_endpoints():
    f = SQUARE_GERM
    g = mk(["y^2 + x*y^3"], 2)
    assert deformation(f, g, 0) == f
    assert deformation(f, g, 1) == g


def test_deformation_midpoint_exact():
    f = SQUARE_GERM
    g = mk(["y^2 + x*y^3"], 2)
    mid = deformation(f, g, Fraction(1, 2))
    assert mid.components[0] == parse_polynomial("y^2 + 1/2*x*y^3", 2)


def test_deformation_dimension_mismatch():
    with pytest.raises(ValueError):
        deformation(SQUARE_GERM, mk(["z^2"], 3), Fraction(1, 2))


# -- relative condition checks --------------------------------------------------------


def test_relative_kuo_holds_at_quadratic_rate():
    # K_1(y^2, (x,y)) = 2|y| |(x,y)| + y^2 >= d(x, x-axis)^2
    verdict = check_relative(SQUARE_GERM, "kuo", 2, 1, X_AXIS, FAST)
    assert verdict.holds
    assert verdict.estimate.slope == pytest.approx(2.0, abs=0.1)
    assert verdict.target_exponent == 2


def test_relative_kuo_fails_at_linear_rate():
    # along (0, y) the quantity is 3y^2, far below |y| for small y
    verdict = check_relative(SQUARE_GERM, "kuo", 1, 1, X_AXIS, FAST)
    assert not verdict.holds


def test_relative_reduces_to_global_check_at_the_origin():
    germ = mk(["x^2 + y^2"], 2)
    relative = check_relative(germ, "kuo", 2, 1, ORIGIN_2, FAST)
    standard = check_condition(germ, "ktilde", 2, ScanConfig(grid_per_angle=180, multistarts=4))
    assert relative.holds and standard.holds
    assert abs(relative.estimate.slope - standard.estimate.slope) <= 0.1


@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("m", [1, 3])
def test_relative_routes_agree(r, m):
    kuo = check_relative(SQUARE_GERM, "kuo", r, m, X_AXIS, FAST)
    thom = check_relative(SQUARE_GERM, "thom", r, m, X_AXIS, FAST)
    assert kuo.holds == thom.holds
    assert kuo.target_exponent == r * m


def test_relative_verdict_is_independent_of_m():
    for which in ("kuo", "thom"):
        for r in (1, 2):
            base = check_relative(SQUARE_GERM, which, r, 1, X_AXIS, FAST)
            cubed = check_relative(SQUARE_GERM, which, r, 3, X_AXIS, FAST)
            assert base.holds == cubed.holds


def test_relative_rejects_bad_inputs():
    with pytest.raises(ValueError):
        check_relative(SQUARE_GERM, "norm", 1, 1, X_AXIS, FAST)
    with pytest.raises(ValueError):
        check_relative(SQUARE_GERM, "kuo", 0, 1, X_AXIS, FAST)
    with pytest.raises(ValueError):
        check_relative(mk(["z"], 3), "kuo", 1, 1, X_AXIS, FAST)


def test_relative_scan_is_deterministic():
    first = check_relative(SQUARE_GERM, "kuo", 2, 1, X_AXIS, FAST)
    rel._band_points.cache_clear()
    second = check_relative(SQUARE_GERM, "kuo", 2, 1, X_AXIS, FAST)
    assert first == second


def test_cached_bands_are_read_only():
    bands = rel._band_points(X_AXIS, FAST)
    assert any(len(band) for band in bands)
    for band in bands:
        with pytest.raises(ValueError):
            band[...] = 0.0
    assert check_relative(SQUARE_GERM, "kuo", 2, 1, X_AXIS, FAST).holds


def test_relative_config_validation():
    with pytest.raises(ValueError):
        RelativeScanConfig(delta=0.0)
    with pytest.raises(ValueError):
        RelativeScanConfig(bands=2)
    with pytest.raises(ValueError):
        RelativeScanConfig(samples_per_band=2)


# -- deformation compatibility ----------------------------------------------------------


def test_compatibility_along_the_whole_segment():
    f = SQUARE_GERM
    g = mk(["y^2 + x*y^3"], 2)
    grid = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]
    results = check_compatibility(f, g, 2, 1, "kuo", X_AXIS, grid, FAST)
    assert [t for t, _ in results] == grid
    assert all(v.holds for _, v in results)
    assert len({v.holds for _, v in results}) == 1


def test_compatibility_at_zero_matches_direct_check():
    f = SQUARE_GERM
    g = mk(["y^2 + x*y^3"], 2)
    ((t, verdict),) = check_compatibility(f, g, 2, 1, "kuo", X_AXIS, [0], FAST)
    assert t == 0
    assert verdict == check_relative(f, "kuo", 2, 1, X_AXIS, FAST)


def test_compatibility_refuses_jet_mismatch():
    g = mk(["y^2 + x^2"], 2)
    with pytest.raises(JetMismatchError):
        check_compatibility(SQUARE_GERM, g, 2, 1, "kuo", X_AXIS, [0, 1], FAST)


# -- ellipticity probe ---------------------------------------------------------------


def test_elliptic_generators_of_the_square_germ():
    # generators are y^2, the zero x-derivative, and 2y: slopes 2 and 1
    gens = KUO.generators(SQUARE_GERM)
    report = sigma_elliptic_probe(gens, X_AXIS, 2, FAST)
    assert report.holds
    by_gen = {e.generator: e for e in report.entries}
    assert by_gen["0"].elliptic is False
    assert "skipped" in by_gen["0"].diagnostics[0]
    assert by_gen["y^2"].elliptic
    assert by_gen["y^2"].estimate.slope == pytest.approx(2.0, abs=0.1)
    assert by_gen["2*y"].elliptic
    assert by_gen["2*y"].estimate.slope == pytest.approx(1.0, abs=0.1)


def test_generator_vanishing_on_shells_is_not_elliptic():
    # every distance shell of the x-axis contains points with x = 0
    report = sigma_elliptic_probe([parse_polynomial("x", 2)], X_AXIS, 4, FAST)
    assert not report.holds
    entry = report.entries[0]
    assert not entry.elliptic
    assert any("vanishes" in d for d in entry.diagnostics)


def test_ellipticity_rejects_nonpositive_alpha():
    with pytest.raises(ValueError):
        sigma_elliptic_probe([parse_polynomial("y", 2)], X_AXIS, 0, FAST)
