"""Kuo and Thom quantities of a polynomial map germ.

For a germ f = (f_1, ..., f_p): (R^n, 0) -> (R^p, 0) with p <= n, the two
quantities compared throughout this package are

    K_m(x) = |x|^m * sum over p-subsets I of |det J_I(x)|^m + |f(x)|^m
    T_m(x) = sum over (p+1)-subsets I of |det JT_I(x)|^m    + |f(x)|^m

where J_I is the p x p submatrix of the Jacobian of f using the columns in
I, and JT_I is the (p+1) x (p+1) submatrix of the Jacobian of (f, rho)
with rho(x) = |x|^2.  Norms are Euclidean.  When n == p there are no
(p+1)-subsets and the Thom quantity reduces to |f(x)|^m.

Each quantity is written once, as a short tuple of pieces (a, table,
euclidean) whose value at m is the sum of |x|^(a*m) * N_m(G) over them.
G is one of three tables of polynomials: the components of f, its
p-minors or its Thom minors, and N_m(G) is |G|_2^m when euclidean is set
and the sum of |g|^m otherwise.  Besides KUO and THOM the scans read the
gradient norm |grad f| (p = 1), the minor sum of the horn check and |f|
of the horn mask.  Every route reads the same pieces: the float value at
a point or at the rows of an array, the exact polynomial for even m, the
order along an arc at m = 1 and the ideal generators.

Minors are exact symbolic polynomials from one row-by-row Laplace
recursion over the Jacobian of (f, rho), whose last step expands each
Thom minor along the rho row:

    det JT_I = sum over j in I of +-2 x_j * det J_(I - {j})

The float route evaluates those exact minors and only then takes
absolute values.  The routes share the pieces, so their independent
checks live in the tests: a hand-written exact value, the Gram and Schur
identities of the minor sums and the full composition with an arc.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Mapping, Sequence

import numpy as np

from .poly import INF, Polynomial, _is_rows

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
# The quantities, each described once by its pieces


def _table(germ: MapGerm, table: str) -> Sequence[Polynomial]:
    """The polynomials of a table: "components", or the minor table of
    MinorCache named "p_minors" or "thom_minors"."""
    if table == "components":
        return germ.components
    return [poly for _, poly in getattr(build_minors(germ), table)]


@dataclass(frozen=True)
class Quantity:
    """The sum over pieces (a, table, euclidean) of |x|^(a*m) * N_m(G), with
    G the polynomials of the table and N_m(G) = |G|_2^m if euclidean, else
    the sum of |g|^m."""

    pieces: tuple[tuple[int, str, bool], ...]

    def value(self, germ: MapGerm, m: int, x):
        """The float value at one point, or at each row of an (N, n) array.

        A point keeps Python float arithmetic (math.hypot for a Euclidean
        norm) and an array numpy's; the two round differently in the last
        bit, so neither is ever converted to the other.  Minors are exact
        polynomials evaluated before any absolute value is taken, and the
        evaluation checks the width of x.
        """
        if m < 1:
            raise ValueError("m must be a positive integer")
        rows, total = _is_rows(x), None
        for a, table, euclidean in self.pieces:
            if table == "components":  # _table inlined: no list of polynomials on the descent's hot path
                values = [poly.eval_float(x) for poly in germ.components]
            else:
                values = [poly.eval_float(x) for _, poly in getattr(build_minors(germ), table)]
            if euclidean:
                part = (np.sqrt(sum((v**2 for v in values), np.zeros(len(x)))) if rows else math.hypot(*values)) ** m
            else:
                part = sum((abs(v) ** m for v in values), np.zeros(len(x)) if rows else 0.0)
            if a:
                part = (np.sqrt(np.sum(x * x, axis=1)) if rows else math.hypot(*x)) ** (a * m) * part
            total = part if total is None else total + part
        return total

    def polynomial(self, germ: MapGerm, m: int) -> Polynomial:
        """For even m the quantity is exactly a polynomial: |x|^(a*m) is
        rho^(a*m/2), |G|_2^m is (sum of g^2)^(m/2) and |g|^m is g^m."""
        if m < 2 or m % 2:
            raise ValueError("the exact route needs a positive even m")
        zero = total = Polynomial.zero(germ.n)
        for a, table, euclidean in self.pieces:
            if euclidean:
                part = sum((g**2 for g in _table(germ, table)), zero) ** (m // 2)
            else:
                part = sum((g**m for g in _table(germ, table)), zero)
            total = total + (rho_polynomial(germ.n) ** (a * m // 2) * part if a else part)
        return total

    def order(self, ord_norm_x: int, orders: Mapping[str, Sequence[float]]) -> float:
        """The order at t = 0+ along an arc at m = 1 (m times it at m), from
        ord |lambda| and the orders of each table's polynomials along the arc:
        the minimum over pieces of a * ord |lambda| + the least order in G."""
        return min(a * ord_norm_x + min(orders[table], default=INF) for a, table, _ in self.pieces)

    def generators(self, germ: MapGerm) -> tuple[Polynomial, ...]:
        """The polynomials of every piece, in piece order: components first."""
        return tuple(g for _, table, _ in self.pieces for g in _table(germ, table))


KUO = Quantity(((0, "components", True), (1, "p_minors", False)))
THOM = Quantity(((0, "components", True), (0, "thom_minors", False)))
GRADIENT = Quantity(((0, "p_minors", True),))  # |grad f|, for p == 1
MINOR_SUM = Quantity(((0, "p_minors", False),))  # the horn scan, at m = 1
COMPONENTS = Quantity(((0, "components", True),))  # |f|, the horn mask

QUANTITIES: dict[str, Quantity] = {"kuo": KUO, "thom": THOM}
kuo_value, thom_value = KUO.value, THOM.value
kuo_polynomial, thom_polynomial = KUO.polynomial, THOM.polynomial


def kuo_m1_at_least(germ: MapGerm, x: Sequence[object], bound: object) -> bool:
    """Exact decision of kuo(f, 1, x) >= bound at a rational point.

    kuo(f, 1, x) = sqrt(X)*s + sqrt(U) with X = |x|^2, s the (rational)
    sum of absolute p-minors and U = |f(x)|^2, so the comparison against a
    rational bound reduces to rational arithmetic: writing t1 = X*s^2 and
    t2 = U, the inequality sqrt(t1) + sqrt(t2) >= b holds iff b <= 0, or
    b^2 - t1 - t2 <= 0, or 4*t1*t2 >= (b^2 - t1 - t2)^2.
    """
    if len(x) != germ.n:
        raise ValueError(f"point has {len(x)} coordinates, germ expects {germ.n}")
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
