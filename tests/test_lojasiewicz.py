"""Sphere scans, exponent fits, and the four global condition checks."""

import math

import numpy as np
import pytest

from kuothom import (
    CAVEAT_NUMERICAL,
    ScanConfig,
    check_condition,
    check_kuo,
    fit_loglog,
    map_germ,
    min_on_sphere,
    parse_polynomial,
    ratio_stability_probe,
    scan_spheres,
    sufficiency_degree_estimate,
    Polynomial,
)
from kuothom.lojasiewicz import (
    HornConstraint,
    scan_gradient_norm,
    scan_minor_sum,
    scan_quantity,
    verdict_from_scan,
)

# tests trade grid density for speed; the defaults are denser
FAST = ScanConfig(grid_per_angle=180, multistarts=4, hi_dim_directions=512)


def mk(texts, nvars):
    return map_germ([parse_polynomial(t, nvars) for t in texts])


ROUND_GERM = mk(["x^2 + y^2"], 2)
TRIPLE_GERM = mk(["x^3 - 3*x*y^2"], 2)
PLANE_GERM = mk(["x - y^2", "x^2"], 2)


def norm_rows(x):
    """|x| at one point, or at each row of an array of points."""
    return np.sqrt(np.sum(np.square(x), axis=-1))


# -- minimization on spheres ------------------------------------------------


def test_min_constant_gradient_norm():
    # grad(x^2+y^2) has norm 2|x|, constant on each sphere
    got = min_on_sphere(lambda x: 2.0 * norm_rows(x), 2, 0.1, FAST)
    assert got.value == pytest.approx(0.2, abs=1e-6)


def test_min_quadratic_gradient_norm():
    # |grad(x^3 - 3xy^2)|^2 = 9(x^2+y^2)^2
    got = min_on_sphere(lambda x: 3.0 * norm_rows(x) ** 2, 2, 0.1, FAST)
    assert got.value == pytest.approx(0.03, abs=1e-5)


def test_min_vanishing_quantity():
    # the sphere of radius 0.01 crosses the parabola x = y^2
    F = lambda x: np.abs(np.asarray(x)[..., 0] - np.asarray(x)[..., 1] ** 2)  # noqa: E731
    got = min_on_sphere(F, 2, 0.01, FAST)
    assert got.value <= 1e-4


def test_min_requires_positive_radius():
    with pytest.raises(ValueError):
        min_on_sphere(lambda x: norm_rows(x), 2, 0.0, FAST)


def test_min_in_one_variable():
    # the 0-sphere is the two points {-r, r}
    F = lambda x: np.abs(np.asarray(x)[..., 0] - 0.05)  # noqa: E731
    got = min_on_sphere(F, 1, 0.1, FAST)
    assert got.value == pytest.approx(0.05, abs=1e-12)


def test_min_in_four_variables_uses_direction_pool():
    got = min_on_sphere(lambda x: 2.0 * norm_rows(x), 4, 0.1, FAST)
    assert got.value == pytest.approx(0.2, abs=1e-6)
    assert got.total == 512


# -- exponent estimation -----------------------------------------------------


def test_fit_loglog_exact_power_law():
    xs = [0.1 * 2.0**-k for k in range(6)]
    ys = [5.0 * x**2.5 for x in xs]
    est = fit_loglog(xs, ys)
    assert est.slope == pytest.approx(2.5, abs=1e-9)
    assert est.log_constant == pytest.approx(math.log(5.0), abs=1e-9)
    assert est.r_squared == pytest.approx(1.0, abs=1e-12)
    assert est.n_points == 6


@pytest.mark.parametrize(
    "factor,power",
    [(2.0, 1), (3.0, 2), (0.7, 3)],
)
def test_estimated_slope_matches_known_power(factor, power):
    scan = scan_spheres(lambda x: factor * norm_rows(x) ** power, 2, FAST)
    est = verdict_from_scan("power", scan, power, FAST).estimate
    assert est.slope == pytest.approx(power, abs=0.05)
    assert est.r_squared >= 0.999


def test_estimate_skips_zero_spheres():
    scan = scan_spheres(lambda x: norm_rows(x) - norm_rows(x), 2, FAST)
    verdict = verdict_from_scan("zero", scan, 1, FAST)
    assert verdict.estimate is None
    assert verdict.diagnostics == (
        "minimum vanishes on 8 of 8 scanned spheres; no positive constant exists at those scales",
    )


# -- Kuiper-Kuo ---------------------------------------------------------------


def test_kuiper_kuo_round_quadric():
    verdict = check_condition(ROUND_GERM, "kuiper-kuo", 2, FAST)
    assert verdict.holds
    assert verdict.estimate.slope == pytest.approx(1.0, abs=0.05)
    assert verdict.caveat == CAVEAT_NUMERICAL


def test_kuiper_kuo_triple_point():
    assert check_condition(TRIPLE_GERM, "kuiper-kuo", 3, FAST).holds
    verdict = check_condition(TRIPLE_GERM, "kuiper-kuo", 2, FAST)
    assert not verdict.holds
    assert verdict.estimate.slope == pytest.approx(2.0, abs=0.05)


def test_kuiper_kuo_needs_scalar_target():
    with pytest.raises(ValueError):
        check_condition(PLANE_GERM, "kuiper-kuo", 2, FAST)
    with pytest.raises(ValueError):
        check_condition(ROUND_GERM, "kuiper-kuo", 0, FAST)


# -- horn membership and the Kuo condition ----------------------------------------


def test_horn_membership_examples():
    horn = HornConstraint(mk(["x - y^2"], 2), 2, 1.0)
    for x, inside in (((0.25, 0.5), True), ((0.1, 0.0), False), ((0.0, 0.0), True)):
        assert horn.mask(np.array([x]), math.hypot(*x)).tolist() == [inside]


def test_kuo_round_quadric():
    assert check_kuo(ROUND_GERM, 2, 1.0, FAST).holds


def test_kuo_parabola_level_set():
    # |grad(x - y^2)| >= 1 everywhere, so the r=1 condition is immediate
    verdict = check_kuo(mk(["x - y^2"], 2), 1, 1.0, FAST)
    assert verdict.holds
    assert verdict.estimate.slope <= 0.1


def test_kuo_vacuous_when_horn_is_empty():
    # |x^2+y^2| <= |x|^3 has no solutions on small spheres
    verdict = check_kuo(ROUND_GERM, 3, 1.0, FAST)
    assert verdict.holds
    assert verdict.estimate is None
    assert any("vacuous" in d for d in verdict.diagnostics)


def test_kuo_refuses_a_horn_bound_outside_the_float_range():
    # wbar * radius^r is 0.0 at the smallest default radius once r > 104,
    # and the descent's violation divides by it; radii above 1 overflow
    check_kuo(ROUND_GERM, 104, 1.0, ScanConfig(grid_per_angle=16, multistarts=0))
    with pytest.raises(ValueError, match="horn bound"):
        check_kuo(ROUND_GERM, 105, 1.0, ScanConfig())
    with pytest.raises(ValueError, match="horn bound"):
        check_kuo(ROUND_GERM, 3000, 1.0, ScanConfig(radii=(4.0, 3.0, 2.0, 1.5)))


def test_horn_restriction_changes_the_scan():
    # inside the degree-2 horn of x - y^2 the grid keeps only points near
    # the parabola, where 1 + 2|y| stays clear of its global sphere minimum
    germ = mk(["x - y^2"], 2)
    constraint = HornConstraint(germ=germ, r=2, wbar=1.0)
    free = scan_minor_sum(germ, FAST)
    constrained = scan_minor_sum(germ, FAST, constraint)
    assert all(f < t for f, t in zip(constrained.feasible, constrained.total))
    assert all(f == t for f, t in zip(free.feasible, free.total))
    for lo, hi in zip(free.min_values, constrained.min_values):
        assert hi >= lo - 1e-12
    # feasible points on the 0.1-sphere sit near y = +-0.1, so the
    # constrained minimum of 1 + 2|y| exceeds the free one by about 0.2
    assert free.min_values[0] == pytest.approx(1.0, abs=1e-6)
    assert constrained.min_values[0] > free.min_values[0] + 0.15


def test_horn_keeps_only_points_near_zero_locus():
    germ = mk(["(x - y^2)^2"], 2)
    constraint = HornConstraint(germ=germ, r=4, wbar=0.01)
    radius = 0.05
    theta = np.linspace(0.0, 2.0 * math.pi, 720, endpoint=False)
    pts = radius * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    mask = constraint.mask(pts, radius)
    assert 0 < mask.sum() < len(pts)
    near = np.abs(pts[mask, 0] - pts[mask, 1] ** 2)
    assert np.all(near <= math.sqrt(0.01) * radius**2 + 1e-12)


# -- the K-tilde condition ------------------------------------------------------


def test_ktilde_round_quadric():
    verdict = check_condition(ROUND_GERM, "ktilde", 2, FAST)
    assert verdict.holds
    assert verdict.estimate.slope == pytest.approx(2.0, abs=0.05)


def test_ktilde_parabola():
    assert check_condition(mk(["x - y^2"], 2), "ktilde", 1, FAST).holds


def test_ktilde_monotone_in_r():
    germ = mk(["x^2 + y^3"], 2)
    verdicts = [check_condition(germ, "ktilde", r, FAST).holds for r in range(1, 6)]
    assert verdicts == [False, False, True, True, True]
    for weaker, stronger in zip(verdicts, verdicts[1:]):
        assert stronger or not weaker


# -- the paired inequality checks -------------------------------------------------


def test_thom_inequality_round_quadric():
    verdict = check_condition(ROUND_GERM, "thom-inequality", 2, FAST)
    assert verdict.holds
    assert verdict.estimate.slope == pytest.approx(4.0, abs=0.1)


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6])
def test_paired_inequalities_agree(r):
    left = check_condition(PLANE_GERM, "kuo-inequality", r, FAST)
    right = check_condition(PLANE_GERM, "thom-inequality", r, FAST)
    assert left.holds == right.holds


def test_zero_map_fails_every_target():
    germ = map_germ([Polynomial.zero(2)])
    for r in (1, 3):
        verdict = check_condition(germ, "thom-inequality", r, FAST)
        assert not verdict.holds
        assert verdict.estimate is None
        assert verdict.diagnostics


# -- sufficiency degree --------------------------------------------------------


def test_sufficiency_degree_examples():
    assert sufficiency_degree_estimate(scan_gradient_norm(ROUND_GERM, FAST), 6, FAST) == 2
    assert sufficiency_degree_estimate(scan_gradient_norm(TRIPLE_GERM, FAST), 6, FAST) == 3
    assert sufficiency_degree_estimate(scan_gradient_norm(mk(["x"], 2), FAST), 6, FAST) == 1


def test_sufficiency_degree_can_be_undetermined():
    germ = map_germ([Polynomial.zero(2)])
    assert sufficiency_degree_estimate(scan_gradient_norm(germ, FAST), 4, FAST) is None


# -- ratio stability ---------------------------------------------------------------


@pytest.mark.parametrize("m", [1, 2])
def test_ratio_maxima_finite_and_stable(m):
    probe = ratio_stability_probe(PLANE_GERM, m, radius=0.01, points=2000, seed=0)
    assert probe.max_kuo_over_thom < math.inf
    assert probe.stability_kuo_over_thom < 10.0


def test_ratio_probe_rejects_identically_zero_maps():
    with pytest.raises(ValueError):
        ratio_stability_probe(map_germ([Polynomial.zero(2)]), 2)


# -- determinism --------------------------------------------------------------------


def test_verdicts_are_deterministic():
    a = check_condition(TRIPLE_GERM, "kuiper-kuo", 3, FAST)
    b = check_condition(TRIPLE_GERM, "kuiper-kuo", 3, FAST)
    assert a == b


def test_scans_are_deterministic():
    a = scan_quantity(PLANE_GERM, "kuo", 2, FAST)
    b = scan_quantity(PLANE_GERM, "kuo", 2, FAST)
    assert a == b


def test_ratio_probe_is_deterministic():
    a = ratio_stability_probe(PLANE_GERM, 1, points=500, seed=3)
    b = ratio_stability_probe(PLANE_GERM, 1, points=500, seed=3)
    assert a.max_kuo_over_thom == b.max_kuo_over_thom
    assert a.shrunk_max_kuo_over_thom == b.shrunk_max_kuo_over_thom
