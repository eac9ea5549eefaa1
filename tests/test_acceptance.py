"""Acceptance suite: one test per headline guarantee of the package.

Run `pytest -v tests/test_acceptance.py` to get a pass/fail line per
criterion.  Each test is self-contained and deterministic; the stated
runtime budgets are asserted where a guarantee includes one.
"""

import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from kuothom import (
    compose_arc,
    equivalence_probes,
    kuo_m1_at_least,
    kuo_polynomial,
    ledger,
    map_germ,
    parse_polynomial,
    thom_polynomial,
)
from kuothom import relative as rel
from kuothom.cli import main
from kuothom.lojasiewicz import (
    ScanConfig,
    scan_gradient_norm,
    scan_quantity,
    sufficiency_degree_estimate,
    verdict_from_scan,
)
from kuothom.quantities import kuo_minor_sum, thom_minor_sum
from kuothom.seeds import subsystem_seed
from corpus import MASTER_SEED, corpus_arcs, corpus_germ, corpus_germs


def mk(texts, nvars):
    return map_germ([parse_polynomial(t, nvars) for t in texts])


PLANE_GERM = mk(["x - y^2", "x^2"], 2)


def test_criterion_01_symbolic_quantities_exact():
    t0 = time.perf_counter()
    k2 = kuo_polynomial(PLANE_GERM, 2)
    t2 = thom_polynomial(PLANE_GERM, 2)
    elapsed = time.perf_counter() - t0
    assert t2 == parse_polynomial("(x - y^2)^2 + x^4", 2)
    assert k2 == parse_polynomial("16*(x^2 + y^2)*x^2*y^2 + (x - y^2)^2 + x^4", 2)
    assert elapsed < 1.0


def test_criterion_02_ratio_bounded_on_grid():
    # Exact unit directions from q -> (2q/(q^2+1), (q^2-1)/(q^2+1)).  Small q
    # sweeps the first quadrant; large q pushes cos toward 0 so the grid
    # tracks the parabola x = y^2, where the ratio peaks.  With the x-flips
    # that is 100 directions; 100 radii j/10^4 give 10^4 exact grid points.
    k2 = kuo_polynomial(PLANE_GERM, 2)
    t2 = thom_polynomial(PLANE_GERM, 2)
    qs = list(range(1, 41)) + [50, 80, 100, 160, 200, 320, 400, 500, 800, 2000]
    dirs = []
    for q in qs:
        den = q * q + 1
        c, s = Fraction(2 * q, den), Fraction(q * q - 1, den)
        assert c * c + s * s == 1
        dirs.extend([(c, s), (-c, s)])
    radii = [Fraction(j, 10_000) for j in range(1, 101)]

    t0 = time.perf_counter()
    ratios = []
    for c, s in dirs:
        for radius in radii:
            pt = (c * radius, s * radius)
            t_val = t2.eval_exact(pt)
            assert t_val != 0
            ratios.append(Fraction(k2.eval_exact(pt), t_val))
    elapsed = time.perf_counter() - t0

    assert len(ratios) == 10_000
    assert all(1 <= r <= 66 for r in ratios)
    # Coverage guard: the grid must actually visit the near-parabola region
    # where the ratio climbs well above 1, not just certify 1 <= 1.
    assert max(ratios) > 10
    assert elapsed < 10.0


def test_criterion_03_arc_orders_agree_at_m1():
    t0 = time.perf_counter()
    mismatches = []
    total = 0
    for i, germ in enumerate(corpus_germs()):
        arcs = corpus_arcs(i, germ.n)
        (probe,) = equivalence_probes(germ, arcs, [1])
        for arc, row in zip(arcs, probe.rows):
            total += 1
            if row.ord_kuo != row.ord_thom:
                mismatches.append((i, arc.to_string(), row.ord_kuo, row.ord_thom))
    elapsed = time.perf_counter() - t0
    assert total == 10_000
    assert mismatches == []
    assert elapsed < 300.0


def test_criterion_04_orders_scale_linearly_in_m():
    violations = []
    ms = (1, 2, 3, 5)
    for i, germ in enumerate(corpus_germs()):
        arcs = corpus_arcs(i, germ.n)
        probes = equivalence_probes(germ, arcs, ms)
        for j, arc in enumerate(arcs):
            base_k = probes[0].rows[j].ord_kuo
            base_t = probes[0].rows[j].ord_thom
            for m, probe in zip(ms, probes):
                # inf scales to inf; finite orders scale exactly.
                if probe.rows[j].ord_kuo != m * base_k:
                    violations.append((i, "kuo", m, arc.to_string()))
                if probe.rows[j].ord_thom != m * base_t:
                    violations.append((i, "thom", m, arc.to_string()))
    assert violations == []


def test_even_m_orders_match_full_composition():
    # Criterion 04 reads every m off one ledger; this route does not.  For
    # even m the quantities are polynomials, so composing them in full with
    # the arc gives the order independently of the ledger.
    mismatches = []
    for i in range(12):
        germ = corpus_germ(i)
        polys = {m: (kuo_polynomial(germ, m), thom_polynomial(germ, m)) for m in (2, 4)}
        for arc in corpus_arcs(i, germ.n, count=6):
            led = ledger(germ, arc)
            for m, (kuo_m, thom_m) in polys.items():
                want = (compose_arc(kuo_m, arc.components).order,
                        compose_arc(thom_m, arc.components).order)
                if want != (m * led.ord_h, m * led.ord_g):
                    mismatches.append((i, m, arc.to_string()))
    assert mismatches == []


def test_criterion_05_thom_minors_dominated_pointwise():
    # w(x) <= 2(n - p) v(x) with v = |x| * (p-minor sum) and w the
    # (p+1)-minor sum of (f, rho).  For n = p there are no such minors and
    # the bound degenerates to 0 <= 0.
    total = 0
    worst = -np.inf
    for i, germ in enumerate(corpus_germs()):
        rng = np.random.default_rng(subsystem_seed(MASTER_SEED, f"domination:{i}"))
        pts = rng.uniform(-0.8, 0.8, size=(500, germ.n))
        v = np.sqrt(np.sum(pts * pts, axis=1)) * kuo_minor_sum(germ, 1, pts)
        w = thom_minor_sum(germ, 1, pts)
        worst = max(worst, float(np.max(w - 2 * (germ.n - germ.p) * v)))
        total += len(pts)
    assert total == 100_000
    assert worst <= 1e-12


def test_criterion_06_gradient_slopes_and_sufficiency():
    cfg = ScanConfig()
    cases = [
        ("x^2 + y^2", 1.0, 2),  # |grad| = 2|x|
        ("x^3 - 3*x*y^2", 2.0, 3),  # |grad| = 3|x|^2
    ]
    for text, want_slope, want_degree in cases:
        germ = mk([text], 2)
        t0 = time.perf_counter()
        scan = scan_gradient_norm(germ, cfg)
        estimate = verdict_from_scan("gradient", scan, want_slope, cfg).estimate
        degree = sufficiency_degree_estimate(scan, 6, cfg)
        elapsed = time.perf_counter() - t0
        assert estimate is not None
        assert abs(estimate.slope - want_slope) <= 0.05
        assert degree == want_degree
        assert elapsed < 30.0


def test_criterion_07_kuo_thom_verdicts_agree():
    # zero_floor 1e-30: descent on germs whose common zero set has positive
    # dimension stalls around 1e-40 instead of reaching 0.0, and those
    # minima must classify as zeros on both scans or the verdicts are fit
    # to noise.  Genuine nonzero sphere minima of this corpus sit far above
    # 1e-30 at the scanned radii.
    cfg = ScanConfig(grid_per_angle=240, multistarts=6, hi_dim_directions=1024, zero_floor=1e-30)
    disagreements = []
    for i in range(20):
        germ = corpus_germ(i)
        scan_k = scan_quantity(germ, "kuo", 2, cfg)
        scan_t = scan_quantity(germ, "thom", 2, cfg)
        for r in range(1, 7):
            holds_k = verdict_from_scan(f"kuo-inequality r={r}", scan_k, 2 * r, cfg).holds
            holds_t = verdict_from_scan(f"thom-inequality r={r}", scan_t, 2 * r, cfg).holds
            if holds_k != holds_t:
                disagreements.append((i, r, holds_k, holds_t))
    assert disagreements == []


def test_criterion_08_relative_bound_holds_exactly():
    germ = mk(["y^2"], 2)
    sigma = rel.CoordinateSubspaceUnion(nvars=2, subspaces=((0,),))
    cfg = rel.RelativeScanConfig()

    verdict_k = rel.check_relative(germ, "kuo", 2, 1, sigma, cfg)
    verdict_t = rel.check_relative(germ, "thom", 2, 1, sigma, cfg)
    assert verdict_k.holds
    assert verdict_t.holds == verdict_k.holds

    # The same samples the verdict saw, decided exactly: every float
    # coordinate is a dyadic rational, so K_1(f, x) >= d(x, Sigma)^2 is a
    # statement in rational arithmetic with no tolerance.
    checked = 0
    for pool in rel._band_points(sigma, cfg):
        for row in pool:
            point = tuple(Fraction(float(c)) for c in row)
            assert kuo_m1_at_least(germ, point, sigma.distance_sq_exact(point))
            checked += 1
    assert checked >= 1000


def test_criterion_09_compatible_deformation_verdicts():
    f = mk(["y^2"], 2)
    g = mk(["y^2 + x*y^3"], 2)
    sigma = rel.CoordinateSubspaceUnion(nvars=2, subspaces=((0,),))
    cfg = rel.RelativeScanConfig()
    assert rel.jets_equal_on_sigma(f, g, 2, sigma)
    t_grid = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]
    pairs = rel.check_compatibility(f, g, 2, 1, "kuo", sigma, t_grid, cfg)
    assert [t for t, _ in pairs] == t_grid
    assert all(verdict.holds for _, verdict in pairs)


def test_criterion_10_example_command_deterministic(tmp_path: Path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    out_a.mkdir()
    out_b.mkdir()
    assert main(["example", "--seed", "7", "--out", str(out_a)]) == 0
    assert main(["example", "--seed", "7", "--out", str(out_b)]) == 0
    names_a = sorted(p.name for p in out_a.iterdir())
    names_b = sorted(p.name for p in out_b.iterdir())
    assert names_a == names_b
    assert "example_report.json" in names_a
    for name in names_a:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

