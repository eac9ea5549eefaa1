"""Orders of the Kuo and Thom quantities along analytic test curves.

An arc is a tuple of univariate polynomials through the origin,
lambda(t) = (lambda_1(t), ..., lambda_n(t)) with lambda(0) = 0 and at
least one nonzero component.  Along an arc every ingredient of the two
quantities pulls back to a sum of absolute values of exact univariate
polynomials, and the order of such a sum at t = 0+ is the minimum of the
orders of its parts (the parts are nonnegative near 0, so nothing can
cancel).  That reduces the order of either quantity to integer
bookkeeping over the order ledger below:

    ord K_m = m * min(ord |x| + min over p-minors of ord,  min_j ord f_j)
    ord T_m = m * min(min over Thom minors of ord,          min_j ord f_j)

with ord |lambda| = min_i ord lambda_i.  The zero polynomial has order
INF, and INF propagates through minima and sums in the usual way.

The ledger's orders are exact; poly.compose_order forms only the lowest
coefficients of each composition (poly.compose_arc, the full one, is the
independent oracle).  ord K_m and ord T_m are m times the m = 1 orders, so
one ledger per arc serves every m.

For a polynomial germ the two orders agree on every arc; the probe below
reports them side by side so that any disagreement is visible as an
internal inconsistency rather than hidden.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .poly import INF, UniPoly, compose_order, parse_unipoly
from .quantities import MapGerm, build_minors

Order = float  # int-valued, or INF

_CSV_HEADER = "arc_id,ord_K,ord_T,equal"


@dataclass(frozen=True)
class Arc:
    """An analytic test curve through the origin with polynomial components."""

    components: tuple[UniPoly, ...]

    def __post_init__(self) -> None:
        comps = tuple(self.components)
        object.__setattr__(self, "components", comps)
        if not comps:
            raise ValueError("an arc needs at least one component")
        for q in comps:
            if q.coeffs and q.coeffs[0]:
                raise ValueError("arc components must vanish at t = 0")
        if all(q.is_zero for q in comps):
            raise ValueError("an arc must have at least one nonzero component")

    @property
    def n(self) -> int:
        return len(self.components)

    @property
    def order(self) -> int:
        """Order of |lambda(t)|; finite because some component is nonzero."""
        return int(min(q.order for q in self.components))

    def to_string(self) -> str:
        return "; ".join(q.to_string() for q in self.components)


def parse_arc(text: str, nvars: int | None = None) -> Arc:
    """Parse semicolon-separated t-polynomials, e.g. 't^2; t'."""
    parts = [chunk.strip() for chunk in text.split(";")]
    if nvars is not None and len(parts) != nvars:
        raise ValueError(f"arc has {len(parts)} components, expected {nvars}")
    return Arc(tuple(parse_unipoly(chunk) for chunk in parts))


@dataclass(frozen=True)
class OrderLedger:
    """All orders along one arc: ord K_m = m * ord_h and ord T_m = m * ord_g."""

    ord_f: tuple[Order, ...]
    ord_u: Order
    ord_norm_x: int
    ord_minors: tuple[tuple[tuple[int, ...], Order], ...]
    ord_thom_minors: tuple[tuple[tuple[int, ...], Order], ...]
    ord_v: Order
    ord_w: Order
    ord_h: Order
    ord_g: Order


def ledger(germ: MapGerm, arc: Arc) -> OrderLedger:
    """Exact order ledger of a germ along an arc."""
    if arc.n != germ.n:
        raise ValueError(f"arc has {arc.n} components, germ expects {germ.n}")
    cache = build_minors(germ)
    shared: dict = {}
    comps = arc.components

    ord_f = tuple(compose_order(c, comps, shared) for c in germ.components)
    ord_u = min(ord_f)
    ord_norm_x = arc.order
    ord_minors = tuple((idx, compose_order(poly, comps, shared)) for idx, poly in cache.p_minors)
    ord_thom_minors = tuple(
        (idx, compose_order(poly, comps, shared)) for idx, poly in cache.thom_minors
    )
    best_minor = min((o for _, o in ord_minors), default=INF)
    ord_v = ord_norm_x + best_minor
    ord_w = min((o for _, o in ord_thom_minors), default=INF)
    return OrderLedger(
        ord_f=ord_f,
        ord_u=ord_u,
        ord_norm_x=ord_norm_x,
        ord_minors=ord_minors,
        ord_thom_minors=ord_thom_minors,
        ord_v=ord_v,
        ord_w=ord_w,
        ord_h=min(ord_v, ord_u),
        ord_g=min(ord_w, ord_u),
    )


@dataclass(frozen=True)
class ProbeRow:
    arc_id: int
    ord_kuo: Order
    ord_thom: Order
    equal: bool


@dataclass(frozen=True)
class ProbeReport:
    m: int
    rows: tuple[ProbeRow, ...]
    n_equal: int
    n_total: int

    @property
    def all_equal(self) -> bool:
        return self.n_equal == self.n_total


def equivalence_probes(germ: MapGerm, arcs: Sequence[Arc], ms: Sequence[int]) -> tuple[ProbeReport, ...]:
    """Compare ord K_m and ord T_m over a list of arcs, in order, for each m,
    reading every m off one ledger per arc."""
    if any(m < 1 for m in ms):
        raise ValueError("m must be a positive integer")
    ledgers = [ledger(germ, arc) for arc in arcs]
    reports = []
    for m in ms:
        rows = tuple(ProbeRow(i, m * led.ord_h, m * led.ord_g, led.ord_h == led.ord_g)
                     for i, led in enumerate(ledgers))
        reports.append(ProbeReport(m, rows, sum(r.equal for r in rows), len(rows)))
    return tuple(reports)


def _order_str(o: Order) -> str:
    return "inf" if o == INF else str(int(o))


def probe_csv(report: ProbeReport) -> str:
    """The probe as CSV with columns arc_id, ord_K, ord_T, equal."""
    lines = [_CSV_HEADER]
    for row in report.rows:
        lines.append(
            f"{row.arc_id},{_order_str(row.ord_kuo)},{_order_str(row.ord_thom)},"
            f"{'true' if row.equal else 'false'}"
        )
    return "\n".join(lines) + "\n"


def arc_generator(
    seed: int,
    n: int,
    max_exponent: int = 6,
    max_terms: int = 3,
    coeff_bound: int = 9,
) -> Arc:
    """A seeded random arc; the same seed always yields the same arc.

    Each component gets up to max_terms terms with exponents in
    [1, max_exponent] and nonzero rational coefficients whose numerator
    magnitude and denominator are bounded by coeff_bound.  Components may
    individually be zero; an all-zero draw is redrawn.
    """
    if n < 1 or max_exponent < 1 or max_terms < 1 or coeff_bound < 1:
        raise ValueError("arc generator bounds must be positive")
    rng = random.Random(seed)
    while True:
        comps = []
        for _ in range(n):
            k = rng.randint(0, max_terms)
            k = min(k, max_exponent)
            exps = rng.sample(range(1, max_exponent + 1), k) if k else []
            coeffs = [Fraction(0)] * (max(exps) + 1 if exps else 0)
            for e in exps:
                num = rng.randint(1, coeff_bound) * rng.choice((1, -1))
                den = rng.randint(1, coeff_bound)
                coeffs[e] = Fraction(num, den)
            comps.append(UniPoly(coeffs))
        if any(not q.is_zero for q in comps):
            return Arc(tuple(comps))
