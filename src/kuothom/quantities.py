"""Kuo and Thom quantities of a polynomial map germ.

For a germ f = (f_1, ..., f_p): (R^n, 0) -> (R^p, 0) with p <= n, the two
quantities compared throughout this package are

    kuo(f, m, x)  = |x|^m  * sum over p-subsets I of |det J_I(x)|^m + |f(x)|^m
    thom(f, m, x) = sum over (p+1)-subsets I of |det JT_I(x)|^m    + |f(x)|^m

where J_I is the p x p submatrix of the Jacobian of f using the columns in
I, and JT_I is the (p+1) x (p+1) submatrix of the Jacobian of (f, rho)
with rho(x) = |x|^2.  Norms are Euclidean.  When n == p there are no
(p+1)-subsets and the Thom quantity reduces to |f(x)|^m.

The proof works with the split

    u = |f(x)|        v = |x| * sum |det J_I(x)|     w = sum |det JT_I(x)|
    h = v + u         g = w + u

whose parts component_norm (u), kuo_minor_sum (v / |x|, at m = 1) and
thom_minor_sum (w, at m = 1) give at one point or at the rows of an array
of points, as do the float quantities kuo_value and thom_value.

Minors are exact symbolic polynomials from one row-by-row Laplace
recursion over the Jacobian of (f, rho), whose last step expands each
Thom minor along the rho row:

    det JT_I = sum over j in I of +-2 x_j * det J_(I - {j})

The float path evaluates those exact minors and only then takes absolute
values.  For even m the quantities are themselves polynomials, which gives
an exact rational evaluation route that is kept deliberately independent
of the float route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Callable, Iterable, Sequence

import numpy as np

from .poly import Polynomial, _is_rows

IndexTuple = tuple[int, ...]


def rho_polynomial(nvars: int) -> Polynomial:
    """The squared Euclidean norm as a polynomial."""
    acc = Polynomial.zero(nvars)
    for i in range(nvars):
        acc = acc + Polynomial.variable(nvars, i) ** 2
    return acc


@dataclass(frozen=True)
class MapGerm:
    """A polynomial map germ (R^n, 0) -> (R^p, 0), p <= n.

    Every component must vanish at the origin.  `jet_degree` is an
    optional bookkeeping field for the jet a germ is meant to represent;
    no operation here truncates implicitly.
    """

    components: tuple[Polynomial, ...]
    jet_degree: int | None = None

    def __post_init__(self) -> None:
        comps = tuple(self.components)
        object.__setattr__(self, "components", comps)
        if not comps:
            raise ValueError("a map germ needs at least one component")
        nvars = comps[0].nvars
        for c in comps:
            if c.nvars != nvars:
                raise ValueError("all components must share the same variable count")
            if not c.vanishes_at_origin:
                raise ValueError("every component must vanish at the origin")
        if len(comps) > nvars:
            raise ValueError(
                f"target dimension {len(comps)} exceeds source dimension {nvars}"
            )
        if self.jet_degree is not None and self.jet_degree < 1:
            raise ValueError("jet degree must be positive")

    @property
    def n(self) -> int:
        return self.components[0].nvars

    @property
    def p(self) -> int:
        return len(self.components)


def map_germ(components: Iterable[Polynomial], jet_degree: int | None = None) -> MapGerm:
    return MapGerm(tuple(components), jet_degree)


@dataclass(frozen=True)
class MinorCache:
    """Exact Jacobian minors of a germ.

    p_minors has one entry per p-subset of columns (C(n, p) entries) and
    thom_minors one entry per (p+1)-subset of columns of the Jacobian of
    (f, rho) (C(n, p+1) entries, none when n == p).  Index tuples are
    0-based and strictly increasing.
    """

    n: int
    p: int
    p_minors: tuple[tuple[IndexTuple, Polynomial], ...]
    thom_minors: tuple[tuple[IndexTuple, Polynomial], ...]
    rho: Polynomial


@lru_cache(maxsize=256)
def build_minors(germ: MapGerm) -> MinorCache:
    """Compute and cache all Jacobian minors of a germ.

    One Laplace recursion over the rows of the Jacobian of (f, rho), the
    rows of df and then 2x: the minor on the first k rows and the columns
    cols expands along row k into the (k-1)-row minors,

        minor(cols) = sum over j of (-1)^(k-1+j) * row_k[cols[j]] * minor(cols without cols[j]).

    Level p holds the p-minors and level p + 1 the Thom minors.
    """
    n, p = germ.n, germ.p
    rho = rho_polynomial(n)
    levels = [{(): Polynomial.constant(n, 1)}]
    for k, poly in enumerate((*germ.components, rho)):
        row, below = [poly.partial(i) for i in range(n)], levels[-1]
        levels.append({
            cols: sum(
                (row[c] * below[cols[:j] + cols[j + 1:]] * (-1) ** (k + j) for j, c in enumerate(cols)),
                Polynomial.zero(n),
            )
            for cols in combinations(range(n), k + 1)
        })
    return MinorCache(
        n=n, p=p, p_minors=tuple(levels[p].items()), thom_minors=tuple(levels[p + 1].items()), rho=rho
    )


# ---------------------------------------------------------------------------
# Float route: one point, or the rows of an (N, n) array of points
#
# Each function takes either, like Polynomial.eval_float.  A point keeps
# Python float arithmetic and an array numpy's; the two round differently
# in the last bit, so neither is ever converted to the other.


def _zero(x):
    return np.zeros(len(x)) if _is_rows(x) else 0.0


def _check_point(germ: MapGerm, x) -> None:
    width = x.shape[1] if _is_rows(x) else len(x)
    if width != germ.n:
        raise ValueError(f"point has {width} coordinates, germ expects {germ.n}")


def _norm(values: Sequence, x):
    """Euclidean norm of values evaluated at x: math.hypot at a point, the
    root of the summed squares at rows."""
    if _is_rows(x):
        return np.sqrt(sum((v**2 for v in values), _zero(x)))
    return math.hypot(*values)


def component_norm(germ: MapGerm, x):
    """|f| (u in the split above)."""
    return _norm([c.eval_float(x) for c in germ.components], x)


def gradient_norm(germ: MapGerm, x):
    """Euclidean gradient norm of a single-component germ."""
    if germ.p != 1:
        raise ValueError("gradient norm is defined here only for p == 1")
    return _norm([poly.eval_float(x) for _, poly in build_minors(germ).p_minors], x)


def kuo_minor_sum(germ: MapGerm, m: int, x):
    """Sum of |p-minor|^m (v / |x| in the split above, at m = 1)."""
    return sum((abs(poly.eval_float(x)) ** m for _, poly in build_minors(germ).p_minors), _zero(x))


def thom_minor_sum(germ: MapGerm, m: int, x):
    """Sum of |Thom minor|^m (w in the split above, at m = 1)."""
    return sum((abs(poly.eval_float(x)) ** m for _, poly in build_minors(germ).thom_minors), _zero(x))


def kuo_value(germ: MapGerm, m: int, x):
    """The Kuo quantity, float route."""
    if m < 1:
        raise ValueError("m must be a positive integer")
    _check_point(germ, x)
    norm_x = np.sqrt(np.sum(x * x, axis=1)) if _is_rows(x) else math.hypot(*x)
    return norm_x**m * kuo_minor_sum(germ, m, x) + component_norm(germ, x) ** m


def thom_value(germ: MapGerm, m: int, x):
    """The Thom quantity, float route."""
    if m < 1:
        raise ValueError("m must be a positive integer")
    _check_point(germ, x)
    return thom_minor_sum(germ, m, x) + component_norm(germ, x) ** m


QUANTITIES: dict[str, Callable] = {"kuo": kuo_value, "thom": thom_value}


# ---------------------------------------------------------------------------
# Exact route (even m), used as an independent oracle for the float route


def _require_even(m: int) -> None:
    if m < 2 or m % 2:
        raise ValueError("the exact route needs a positive even m")


def kuo_polynomial(germ: MapGerm, m: int) -> Polynomial:
    """For even m the Kuo quantity is the polynomial rho^(m/2) * sum of
    m-th powers of the p-minors plus (sum of squared components)^(m/2)."""
    _require_even(m)
    cache = build_minors(germ)
    half = m // 2
    minors = Polynomial.zero(germ.n)
    for _, poly in cache.p_minors:
        minors = minors + poly**m
    comp_sq = Polynomial.zero(germ.n)
    for c in germ.components:
        comp_sq = comp_sq + c**2
    return cache.rho**half * minors + comp_sq**half


def thom_polynomial(germ: MapGerm, m: int) -> Polynomial:
    """Even-m Thom quantity as an exact polynomial."""
    _require_even(m)
    cache = build_minors(germ)
    half = m // 2
    minors = Polynomial.zero(germ.n)
    for _, poly in cache.thom_minors:
        minors = minors + poly**m
    comp_sq = Polynomial.zero(germ.n)
    for c in germ.components:
        comp_sq = comp_sq + c**2
    return minors + comp_sq**half


def kuo_value_exact(germ: MapGerm, m: int, x: Sequence[object]) -> Fraction:
    """Exact Kuo quantity at a rational point (even m only)."""
    _require_even(m)
    _check_point(germ, x)
    cache = build_minors(germ)
    half = m // 2
    norm_sq = sum((Fraction(c) ** 2 for c in x), Fraction(0))
    minor_sum = sum((poly.eval_exact(x) ** m for _, poly in cache.p_minors), Fraction(0))
    comp_sq = sum((c.eval_exact(x) ** 2 for c in germ.components), Fraction(0))
    return norm_sq**half * minor_sum + comp_sq**half


def thom_value_exact(germ: MapGerm, m: int, x: Sequence[object]) -> Fraction:
    """Exact Thom quantity at a rational point (even m only)."""
    _require_even(m)
    _check_point(germ, x)
    cache = build_minors(germ)
    half = m // 2
    minor_sum = sum((poly.eval_exact(x) ** m for _, poly in cache.thom_minors), Fraction(0))
    comp_sq = sum((c.eval_exact(x) ** 2 for c in germ.components), Fraction(0))
    return minor_sum + comp_sq**half


def kuo_m1_at_least(germ: MapGerm, x: Sequence[object], bound: object) -> bool:
    """Exact decision of kuo(f, 1, x) >= bound at a rational point.

    kuo(f, 1, x) = sqrt(X)*s + sqrt(U) with X = |x|^2, s the (rational)
    sum of absolute p-minors and U = |f(x)|^2, so the comparison against a
    rational bound reduces to rational arithmetic: writing t1 = X*s^2 and
    t2 = U, the inequality sqrt(t1) + sqrt(t2) >= b holds iff b <= 0, or
    b^2 - t1 - t2 <= 0, or 4*t1*t2 >= (b^2 - t1 - t2)^2.
    """
    _check_point(germ, x)
    b = bound if isinstance(bound, Fraction) else Fraction(bound)
    if b <= 0:
        return True
    cache = build_minors(germ)
    xs = [v if isinstance(v, Fraction) else Fraction(v) for v in x]
    norm_sq = sum((v**2 for v in xs), Fraction(0))
    s = sum((abs(poly.eval_exact(xs)) for _, poly in cache.p_minors), Fraction(0))
    t1 = norm_sq * s * s
    t2 = sum((c.eval_exact(xs) ** 2 for c in germ.components), Fraction(0))
    rhs = b * b - t1 - t2
    if rhs <= 0:
        return True
    return 4 * t1 * t2 >= rhs * rhs


# ---------------------------------------------------------------------------
# Ideal generators


def ideal_generators_kuo(germ: MapGerm) -> tuple[Polynomial, ...]:
    """Components of f together with all p-minors of its Jacobian."""
    cache = build_minors(germ)
    return tuple(germ.components) + tuple(poly for _, poly in cache.p_minors)


def ideal_generators_thom(germ: MapGerm) -> tuple[Polynomial, ...]:
    """Components of f together with all (p+1)-minors of the Jacobian of (f, rho)."""
    cache = build_minors(germ)
    return tuple(germ.components) + tuple(poly for _, poly in cache.thom_minors)
