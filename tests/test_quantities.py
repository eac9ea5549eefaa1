"""Jacobian minors, the two quantities, and the u,v,w,h,g split."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from kuothom import (
    MapGerm,
    Polynomial,
    build_minors,
    ideal_generators_kuo,
    ideal_generators_thom,
    kuo_m1_at_least,
    kuo_polynomial,
    kuo_value,
    kuo_value_exact,
    map_germ,
    parse_polynomial,
    rho_polynomial,
    thom_polynomial,
    thom_value,
    thom_value_exact,
)
from kuothom.quantities import component_norm, kuo_minor_sum, thom_minor_sum
from corpus import corpus_germ


def mk(texts: list[str], nvars: int) -> MapGerm:
    return map_germ([parse_polynomial(t, nvars) for t in texts])


PLANE_GERM = mk(["x - y^2", "x^2"], 2)
SCALAR_GERM = mk(["x - y^2"], 2)
IDENTITY_2 = mk(["x", "y"], 2)


# -- germ validation ----------------------------------------------------------


def test_germ_requires_vanishing_at_origin():
    with pytest.raises(ValueError):
        mk(["x + 1"], 2)


def test_germ_requires_target_at_most_ambient():
    with pytest.raises(ValueError):
        mk(["x", "y", "x*y"], 2)


def test_germ_requires_consistent_nvars():
    with pytest.raises(ValueError):
        map_germ([parse_polynomial("x", 2), parse_polynomial("z", 3)])


def test_germ_dimensions_and_jet_degree():
    g = map_germ([parse_polynomial("x - y^2", 2)], jet_degree=3)
    assert (g.n, g.p) == (2, 1)
    assert g.jet_degree == 3
    with pytest.raises(ValueError):
        map_germ([parse_polynomial("x", 2)], jet_degree=0)


# -- minors -------------------------------------------------------------------


def test_minor_of_plane_pair_germ():
    cache = build_minors(PLANE_GERM)
    assert len(cache.p_minors) == 1
    assert cache.p_minors[0][1] == parse_polynomial("4*x*y", 2)
    assert cache.thom_minors == ()


def test_minors_of_scalar_germ():
    cache = build_minors(SCALAR_GERM)
    assert [m for _, m in cache.p_minors] == [
        parse_polynomial("1", 2),
        parse_polynomial("-2*y", 2),
    ]
    # 2x2 determinant of rows (df/dx, df/dy) and (2x, 2y)
    assert [m for _, m in cache.thom_minors] == [parse_polynomial("2*y + 4*x*y", 2)]


def test_identity_minors():
    cache = build_minors(IDENTITY_2)
    assert [m for _, m in cache.p_minors] == [parse_polynomial("1", 2)]
    assert cache.thom_minors == ()


def test_minor_counts_and_index_tuples():
    germ = corpus_germ(7)
    n, p = germ.n, germ.p
    cache = build_minors(germ)
    assert len(cache.p_minors) == math.comb(n, p)
    assert len(cache.thom_minors) == math.comb(n, p + 1)
    for cols, _ in cache.p_minors:
        assert list(cols) == sorted(set(cols))
        assert all(0 <= c < n for c in cols)
    assert cache.rho == rho_polynomial(n)


def _permutation_determinant(rows):
    n = len(rows)
    nvars = rows[0][0].nvars
    total = Polynomial.zero(nvars)
    for perm in itertools.permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        prod = Polynomial.constant(nvars, (-1) ** inversions)
        for r in range(n):
            prod = prod * rows[r][perm[r]]
        total = total + prod
    return total


def _dense_germ(n: int, p: int, seed: int) -> MapGerm:
    """Each component has every monomial of degree 1 or 2, plus three cubes."""
    rng = random.Random(seed)
    quadratic = [m for m in itertools.product(range(3), repeat=n) if 1 <= sum(m) <= 2]
    comps = []
    for _ in range(p):
        monos = quadratic + [tuple(3 * (i == j) for i in range(n)) for j in rng.sample(range(n), 3)]
        comps.append(Polynomial(n, {m: rng.choice((1, -1)) * rng.randint(1, 5) for m in monos}))
    return map_germ(comps)


# corpus germs cover n = 2..4 and every p; the dense germ has many terms
# in every Jacobian entry
MINOR_GERMS = [corpus_germ(i) for i in range(24)] + [_dense_germ(6, 3, seed=6)]


@pytest.mark.parametrize("germ", MINOR_GERMS, ids=[f"corpus{i}" for i in range(24)] + ["dense_n6p3"])
def test_minors_match_permutation_expansion(germ):
    # every p-minor of df and every Thom minor of d(f, rho), against the
    # permutation expansion of its submatrix: an oracle without cofactors
    n, p = germ.n, germ.p
    rows = [[c.partial(i) for i in range(n)] for c in germ.components]
    rows.append([Polynomial.constant(n, 2) * Polynomial.variable(n, i) for i in range(n)])
    cache = build_minors(germ)
    for k, minors in ((p, cache.p_minors), (p + 1, cache.thom_minors)):
        assert [cols for cols, _ in minors] == list(itertools.combinations(range(n), k))
        for cols, minor in minors:
            assert minor == _permutation_determinant([[row[c] for c in cols] for row in rows[:k]])


@pytest.mark.parametrize("index", range(24))
def test_minor_sums_are_gram_determinants(index):
    # Cauchy-Binet, an oracle that shares no cofactor expansion with
    # build_minors: with A the Jacobian and B = [A; 2x^T], the squared
    # p-minors sum to det(A A^T) and the squared Thom minors to det(B B^T)
    germ = corpus_germ(index)
    n = germ.n
    a = [[c.partial(i) for i in range(n)] for c in germ.components]
    b = a + [[Polynomial.constant(n, 2) * Polynomial.variable(n, i) for i in range(n)]]
    cache = build_minors(germ)
    for rows, minors in ((a, cache.p_minors), (b, cache.thom_minors)):
        gram = [[sum((u * v for u, v in zip(r, s)), Polynomial.zero(n)) for s in rows] for r in rows]
        squares = sum((m * m for _, m in minors), Polynomial.zero(n))
        assert squares == _permutation_determinant(gram)


# -- symbolic quantities --------------------------------------------------------


def test_kuo_polynomial_printed_form():
    expected = parse_polynomial("16*(x^2 + y^2)*x^2*y^2 + (x - y^2)^2 + x^4", 2)
    assert kuo_polynomial(PLANE_GERM, 2) == expected


def test_thom_polynomial_printed_form():
    expected = parse_polynomial("(x - y^2)^2 + x^4", 2)
    assert thom_polynomial(PLANE_GERM, 2) == expected


def test_symbolic_route_requires_even_power():
    with pytest.raises(ValueError):
        kuo_polynomial(PLANE_GERM, 1)
    with pytest.raises(ValueError):
        thom_value_exact(PLANE_GERM, 3, (0, 0))


def test_quantity_difference_is_nonnegative_polynomial():
    # K2 - T2 = 16(x^2+y^2)x^2y^2: a sum of even monomials with positive
    # coefficients, hence the m=2 ratio is >= 1 wherever T2 > 0
    diff = kuo_polynomial(PLANE_GERM, 2) - thom_polynomial(PLANE_GERM, 2)
    assert diff == parse_polynomial("16*x^4*y^2 + 16*x^2*y^4", 2)
    assert all(coeff > 0 for coeff in diff.terms.values())
    assert all(all(e % 2 == 0 for e in mono) for mono in diff.terms)


# -- pointwise values -------------------------------------------------------------


def test_kuo_value_hand_example():
    # |x|*(|1| + |-2|) + |f| = 3 + 1 at (0, 1)
    assert kuo_value(SCALAR_GERM, 1, (0.0, 1.0)) == pytest.approx(4.0, abs=1e-12)


def test_thom_value_hand_example():
    assert thom_value(SCALAR_GERM, 1, (0.0, 1.0)) == pytest.approx(3.0, abs=1e-12)


def uvwhg(germ: MapGerm, pts) -> tuple[np.ndarray, ...]:
    """The proof split u, v, w, h, g at the rows of pts."""
    pts = np.asarray(pts, dtype=float)
    u = component_norm(germ, pts)
    v = np.sqrt(np.sum(pts * pts, axis=1)) * kuo_minor_sum(germ, 1, pts)
    w = thom_minor_sum(germ, 1, pts)
    return u, v, w, v + u, w + u


def test_values_vanish_at_origin():
    for germ in (PLANE_GERM, SCALAR_GERM, IDENTITY_2):
        for m in (1, 2, 3):
            assert kuo_value(germ, m, (0.0, 0.0)) == 0.0
            assert thom_value(germ, m, (0.0, 0.0)) == 0.0
    assert [s.tolist() for s in uvwhg(PLANE_GERM, [(0.0, 0.0)])] == [[0.0]] * 5


def test_uvwhg_hand_example():
    pts = [(0.0, 1.0)]
    split = [s[0] for s in uvwhg(SCALAR_GERM, pts)]
    assert split == pytest.approx([1.0, 3.0, 2.0, 4.0, 3.0], abs=1e-12)
    assert kuo_value(SCALAR_GERM, 1, np.asarray(pts))[0] == pytest.approx(4.0, abs=1e-12)
    assert thom_value(SCALAR_GERM, 1, np.asarray(pts))[0] == pytest.approx(3.0, abs=1e-12)


def test_uvwhg_identity_example():
    assert [s.tolist() for s in uvwhg(IDENTITY_2, [(1.0, 0.0)])] == [[1.0], [1.0], [0.0], [2.0], [1.0]]


def test_point_dimension_checked():
    with pytest.raises(ValueError):
        kuo_value(PLANE_GERM, 2, (1.0,))
    with pytest.raises(ValueError):
        kuo_value(PLANE_GERM, 0, (1.0, 2.0))


def test_equal_dims_thom_is_component_norm():
    germ = mk(["x + y^2", "y - x^3"], 2)
    rng = random.Random(5)
    for _ in range(50):
        x = (rng.uniform(-1, 1), rng.uniform(-1, 1))
        norm = math.hypot(*(c.eval_float(x) for c in germ.components))
        for m in (1, 2, 3):
            assert thom_value(germ, m, x) == pytest.approx(norm**m, rel=1e-12)


# -- proof-split inequalities ------------------------------------------------------


def _sample_points(rng: random.Random, n: int, count: int = 40):
    return np.array([tuple(rng.uniform(-0.8, 0.8) for _ in range(n)) for _ in range(count)])


@pytest.mark.parametrize("index", [0, 1, 2, 5, 11, 23, 58, 131])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_power_sum_sandwich(index, m):
    # K_m <= h^m <= 2^m * max(1, C(n,p))^(m-1) * K_m, and the analogous
    # bracket for T_m against g^m with C(n, p+1) summands
    germ = corpus_germ(index)
    n, p = germ.n, germ.p
    rng = random.Random(1000 + index)
    ck = 2**m * max(1, math.comb(n, p)) ** (m - 1)
    ct = 2**m * max(1, math.comb(n, p + 1)) ** (m - 1)
    pts = _sample_points(rng, n)
    _, _, _, h, g = uvwhg(germ, pts)
    K, T = kuo_value(germ, m, pts), thom_value(germ, m, pts)
    assert np.all(K <= h**m * (1 + 1e-9))
    assert np.all(h**m <= ck * K * (1 + 1e-9))
    assert np.all(T <= g**m * (1 + 1e-9))
    assert np.all(g**m <= ct * T * (1 + 1e-9))


@pytest.mark.parametrize("index", [0, 1, 2, 5, 11, 23, 58, 131])
def test_thom_minor_domination(index):
    # each minor against the rho row Laplace-expands into at most 2(n-p)
    # terms of size |x| * |p-minor|, so w <= 2(n-p) v pointwise
    germ = corpus_germ(index)
    n, p = germ.n, germ.p
    factor = max(2 * (n - p), 1)
    rng = random.Random(2000 + index)
    pts = _sample_points(rng, n)
    _, v, w, _, _ = uvwhg(germ, pts)
    assert np.all(w <= 2 * (n - p) * v + 1e-12)
    assert np.all(thom_value(germ, 1, pts) <= factor * kuo_value(germ, 1, pts) + 1e-12)


# -- float route against the exact route ----------------------------------------


@pytest.mark.parametrize("index", [0, 1, 2, 3, 4, 5, 6, 7, 8])
@pytest.mark.parametrize("m", [2, 4])
def test_float_values_match_exact_rational_route(index, m):
    germ = corpus_germ(index)
    rng = random.Random(3000 + index)
    for _ in range(12):
        q = tuple(Fraction(rng.randint(-40, 40), 64) for _ in range(germ.n))
        x = tuple(float(c) for c in q)
        ke, te = kuo_value_exact(germ, m, q), thom_value_exact(germ, m, q)
        assert kuo_value(germ, m, x) == pytest.approx(float(ke), rel=1e-9, abs=1e-12)
        assert thom_value(germ, m, x) == pytest.approx(float(te), rel=1e-9, abs=1e-12)


def test_exact_values_are_polynomial_evaluations():
    q = (Fraction(1, 2), Fraction(-1, 3))
    assert kuo_value_exact(PLANE_GERM, 2, q) == kuo_polynomial(PLANE_GERM, 2).eval_exact(q)
    assert thom_value_exact(PLANE_GERM, 2, q) == thom_polynomial(PLANE_GERM, 2).eval_exact(q)


def test_vectorized_values_match_scalar():
    # a point call equals the same row of one array call
    germ = corpus_germ(4)
    rng = np.random.default_rng(17)
    pts = rng.uniform(-1, 1, size=(25, germ.n))
    for m in (1, 2, 3):
        kv = kuo_value(germ, m, pts)
        tv = thom_value(germ, m, pts)
        for row, k, t in zip(pts, kv, tv):
            assert k == pytest.approx(kuo_value(germ, m, tuple(row)), rel=1e-10)
            assert t == pytest.approx(thom_value(germ, m, tuple(row)), rel=1e-10)


# -- the exact m=1 comparator ------------------------------------------------------


def test_kuo_m1_at_least_square_germ():
    # f = y^2 at (0, s): u = s^2, v = |s| * |2s|, so the m=1 value is 3s^2
    germ = mk(["y^2"], 2)
    for s in (Fraction(1), Fraction(1, 3), Fraction(-2, 5)):
        val = 3 * s * s
        assert kuo_m1_at_least(germ, (0, s), val)
        assert kuo_m1_at_least(germ, (0, s), val - Fraction(1, 10**12))
        assert not kuo_m1_at_least(germ, (0, s), val + Fraction(1, 10**12))
        assert not kuo_m1_at_least(germ, (0, s), 4 * s * s)
        assert kuo_m1_at_least(germ, (0, s), 0)
        assert kuo_m1_at_least(germ, (0, s), Fraction(-3, 7))


def test_kuo_m1_at_least_matches_float_route():
    germ = PLANE_GERM
    rng = random.Random(99)
    for _ in range(60):
        q = (Fraction(rng.randint(-50, 50), 128), Fraction(rng.randint(-50, 50), 128))
        x = tuple(map(float, q))
        val = kuo_value(germ, 1, x)
        assert kuo_m1_at_least(germ, q, Fraction(val * 0.999999))
        if val > 0:
            assert not kuo_m1_at_least(germ, q, Fraction(val * 1.000001))


def test_kuo_m1_at_least_at_origin():
    assert kuo_m1_at_least(PLANE_GERM, (0, 0), 0)
    assert not kuo_m1_at_least(PLANE_GERM, (0, 0), Fraction(1, 10**30))


# -- ideal generators ---------------------------------------------------------------


def test_ideal_generators_of_plane_pair():
    gens = ideal_generators_kuo(PLANE_GERM)
    assert gens == (
        parse_polynomial("x - y^2", 2),
        parse_polynomial("x^2", 2),
        parse_polynomial("4*x*y", 2),
    )


def test_ideal_generators_scalar_thom():
    germ = mk(["x"], 2)
    gens = ideal_generators_thom(germ)
    assert gens == (parse_polynomial("x", 2), parse_polynomial("2*y", 2))


def test_ideal_generators_identity_thom():
    gens = ideal_generators_thom(IDENTITY_2)
    assert gens == (parse_polynomial("x", 2), parse_polynomial("y", 2))


def test_minor_cache_is_bounded():
    assert build_minors.cache_info().maxsize is not None
