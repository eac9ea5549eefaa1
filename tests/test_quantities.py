"""Jacobian minors, the quantities and their pieces, and the u,v,w,h,g split."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from kuothom import (
    Arc,
    MapGerm,
    Polynomial,
    build_minors,
    kuo_m1_at_least,
    kuo_polynomial,
    kuo_value,
    ledger,
    map_germ,
    parse_polynomial,
    rho_polynomial,
    thom_polynomial,
    thom_value,
    UniPoly,
)
from kuothom.quantities import COMPONENTS, GRADIENT, KUO, MINOR_SUM, THOM
from corpus import corpus_arcs, corpus_germ


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
    """Leibniz's sum over permutations, of Polynomial or rational entries;
    the empty matrix has determinant 1."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        prod = (-1) ** inversions
        for r in range(n):
            prod = prod * rows[r][perm[r]]
        total = total + prod
    return total


def _jacobian_rows(germ: MapGerm):
    """The rows of df, then the row of d(rho) = 2x."""
    n = germ.n
    rows = [[c.partial(i) for i in range(n)] for c in germ.components]
    return rows + [[Polynomial.constant(n, 2) * Polynomial.variable(n, i) for i in range(n)]]


def _dot(u, v):
    return sum((a * b for a, b in zip(u, v)), Polynomial.zero(u[0].nvars))


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
    rows = _jacobian_rows(germ)
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
    b = _jacobian_rows(germ)
    cache = build_minors(germ)
    for rows, minors in ((b[:-1], cache.p_minors), (b, cache.thom_minors)):
        gram = [[_dot(r, s) for s in rows] for r in rows]
        squares = sum((m * m for _, m in minors), Polynomial.zero(germ.n))
        assert squares == _permutation_determinant(gram)


@pytest.mark.parametrize("index", range(24))
def test_schur_identity_ties_thom_to_kuo(index):
    # With A = df and B = [A; 2x^T], the Schur complement of A A^T in B B^T
    # gives det(B B^T) = 4|x|^2 det(A A^T) - 4R, R = (Ax)^T adj(A A^T) (Ax),
    # so T_2 = 4 K_2 - 3|f|^2 - 4R.  The adjugate comes from cofactors of
    # the Gram matrix, so this ties the THOM pieces to the KUO pieces and to
    # x without going through build_minors.
    germ = corpus_germ(index)
    n, p = germ.n, germ.p
    a = _jacobian_rows(germ)[:p]
    ax = [_dot(row, [Polynomial.variable(n, i) for i in range(n)]) for row in a]
    gram = [[_dot(r, s) for s in a] for r in a]

    def cofactor(i, j):
        """(-1)^(i+j) det of the Gram matrix without row i and column j."""
        rest = [[e for c, e in enumerate(row) if c != j] for k, row in enumerate(gram) if k != i]
        return (-1) ** (i + j) * _permutation_determinant(rest)

    # adj(G)[i][j] is the (j, i) cofactor
    r = sum((ax[i] * cofactor(j, i) * ax[j] for i in range(p) for j in range(p)), Polynomial.zero(n))
    f_sq = _dot(germ.components, germ.components)
    assert THOM.polynomial(germ, 2) == 4 * KUO.polynomial(germ, 2) - 3 * f_sq - 4 * r


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
        thom_polynomial(PLANE_GERM, 3)


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
    """The proof split u = |f|, v = |x| * (sum of |p-minors|), w = sum of
    |Thom minors|, h = v + u and g = w + u at the rows of pts, by hand."""
    pts = np.asarray(pts, dtype=float)
    cache, zero = build_minors(germ), np.zeros(len(pts))
    u = np.sqrt(sum((c.eval_float(pts) ** 2 for c in germ.components), zero))
    v = np.sqrt(np.sum(pts * pts, axis=1)) * sum((np.abs(m.eval_float(pts)) for _, m in cache.p_minors), zero)
    w = sum((np.abs(m.eval_float(pts)) for _, m in cache.thom_minors), zero)
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


def test_scan_quantities_hand_example():
    # f = x^3 - 3xy^2 at (1, 2): grad f = (3 - 12, -12) = (-9, -12)
    germ, x = mk(["x^3 - 3*x*y^2"], 2), (1.0, 2.0)
    assert GRADIENT.value(germ, 1, x) == pytest.approx(15.0, abs=1e-12)
    assert MINOR_SUM.value(germ, 1, x) == pytest.approx(21.0, abs=1e-12)
    assert COMPONENTS.value(germ, 1, x) == pytest.approx(11.0, abs=1e-12)
    rows = np.asarray([x, (0.0, 0.0)])
    assert GRADIENT.value(germ, 1, rows).tolist() == pytest.approx([15.0, 0.0], abs=1e-12)
    assert COMPONENTS.value(germ, 2, rows).tolist() == pytest.approx([121.0, 0.0], abs=1e-12)


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
#
# The oracle is written from the paper's definitions and shares nothing
# with the pieces of quantities.py or with build_minors: each minor is the
# permutation expansion of a submatrix of the Jacobian, evaluated exactly.


def _exact_minors(germ: MapGerm, k: int, q) -> list[Fraction]:
    """Every k x k minor, on the first k rows of d(f, rho), at a rational point."""
    rows = [[e.eval_exact(q) for e in row] for row in _jacobian_rows(germ)[:k]]
    return [_permutation_determinant([[row[c] for c in cols] for row in rows])
            for cols in itertools.combinations(range(germ.n), k)]


def kuo_value_exact(germ: MapGerm, m: int, q) -> Fraction:
    """K_m = |x|^m * sum |p-minor|^m + |f|^m at a rational point, even m."""
    norm_sq = sum(Fraction(c) ** 2 for c in q)
    f_sq = sum(c.eval_exact(q) ** 2 for c in germ.components)
    return norm_sq ** (m // 2) * sum(d**m for d in _exact_minors(germ, germ.p, q)) + f_sq ** (m // 2)


def thom_value_exact(germ: MapGerm, m: int, q) -> Fraction:
    """T_m = sum |(p+1)-minor of d(f, rho)|^m + |f|^m at a rational point, even m."""
    f_sq = sum(c.eval_exact(q) ** 2 for c in germ.components)
    return sum(d**m for d in _exact_minors(germ, germ.p + 1, q)) + f_sq ** (m // 2)


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
    rng = random.Random(4000)
    for germ in [PLANE_GERM] + [corpus_germ(i) for i in (0, 1, 2, 5, 11, 23)]:
        for m in (2, 4):
            kuo_m, thom_m = kuo_polynomial(germ, m), thom_polynomial(germ, m)
            for _ in range(3):
                q = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(germ.n))
                assert kuo_value_exact(germ, m, q) == kuo_m.eval_exact(q)
                assert thom_value_exact(germ, m, q) == thom_m.eval_exact(q)


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
    gens = KUO.generators(PLANE_GERM)
    assert gens == (
        parse_polynomial("x - y^2", 2),
        parse_polynomial("x^2", 2),
        parse_polynomial("4*x*y", 2),
    )


def test_ideal_generators_scalar_thom():
    germ = mk(["x"], 2)
    gens = THOM.generators(germ)
    assert gens == (parse_polynomial("x", 2), parse_polynomial("2*y", 2))


def test_ideal_generators_identity_thom():
    gens = THOM.generators(IDENTITY_2)
    assert gens == (parse_polynomial("x", 2), parse_polynomial("y", 2))


def test_minor_cache_is_bounded():
    assert build_minors.cache_info().maxsize is not None


# -- exact rotations ------------------------------------------------------------------
#
# Under an orthogonal Q, d(f o Q)(x) = df(Qx) Q and |x| = |Qx|, so K_2 and T_2
# (Gram determinants of the rows of df and of d(f, rho)) commute with the
# substitution x -> Qx, and along the arc Q^T lambda every ledger order of
# f o Q equals that of f along lambda.


def _rotation(n: int) -> list[list[Fraction]]:
    """An exact rational rotation: plane rotations (3/5, 4/5) and (5/13, 12/13)
    in the coordinate planes (0, 1), (1, 2), (2, 3), ..., in turn."""
    q = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for k in range(n - 1):
        c, s = (Fraction(3, 5), Fraction(4, 5)) if k % 2 == 0 else (Fraction(5, 13), Fraction(12, 13))
        g = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        g[k][k], g[k][k + 1], g[k + 1][k], g[k + 1][k + 1] = c, -s, s, c
        q = [[sum(q[i][t] * g[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
    return q


def _substitute(poly: Polynomial, images) -> Polynomial:
    """poly(images[0], ..., images[n-1]), with Polynomial +, * and ** only."""
    total = Polynomial.zero(poly.nvars)
    for mono, coeff in poly.terms.items():
        term = Polynomial.constant(poly.nvars, coeff)
        for image, e in zip(images, mono):
            term = term * image**e
        total = total + term
    return total


ROTATION_SLICE = [0, 1, 2, 4, 5, 7]


@pytest.mark.parametrize("index", ROTATION_SLICE)
def test_even_m_quantities_commute_with_rotations(index):
    germ = corpus_germ(index)
    n, q = germ.n, _rotation(germ.n)
    assert all(sum(q[i][t] * q[j][t] for t in range(n)) == (i == j) for i in range(n) for j in range(n))
    qx = [sum((q[i][j] * Polynomial.variable(n, j) for j in range(n)), Polynomial.zero(n)) for i in range(n)]
    rotated = map_germ([_substitute(c, qx) for c in germ.components])
    assert KUO.polynomial(rotated, 2) == _substitute(KUO.polynomial(germ, 2), qx)
    assert THOM.polynomial(rotated, 2) == _substitute(THOM.polynomial(germ, 2), qx)


@pytest.mark.parametrize("index", ROTATION_SLICE)
def test_ledger_orders_are_rotation_invariant(index):
    germ = corpus_germ(index)
    n, q = germ.n, _rotation(germ.n)
    qx = [sum((q[i][j] * Polynomial.variable(n, j) for j in range(n)), Polynomial.zero(n)) for i in range(n)]
    rotated = map_germ([_substitute(c, qx) for c in germ.components])
    for arc in corpus_arcs(index, n, count=8):
        width = max(len(c.coeffs) for c in arc.components)
        coeffs = [list(c.coeffs) + [Fraction(0)] * (width - len(c.coeffs)) for c in arc.components]
        # (Q^T lambda)_i = sum_j Q_ji lambda_j, coefficient by coefficient
        turned = Arc(tuple(UniPoly([sum(q[j][i] * coeffs[j][k] for j in range(n)) for k in range(width)])
                           for i in range(n)))
        led, led_rotated = ledger(germ, arc), ledger(rotated, turned)
        assert (led_rotated.ord_h, led_rotated.ord_g) == (led.ord_h, led.ord_g)
        assert led_rotated.ord_f == led.ord_f
