"""Lojasiewicz-type exponent estimation and sufficiency condition verdicts.

Every check in this module decides an inequality of the shape

    F(x) >= C * |x|^target    for some C > 0 near the origin

by scanning minima of F on a decreasing ladder of spheres and fitting the
slope of log(min) against log(radius).  The verdict holds when the fitted
slope is at most target + tolerance.  A verdict is numerical evidence,
never a proof, and every verdict carries that caveat verbatim.

Scan strategy: a dense deterministic angular grid (at least 720 points per
angle dimension for n <= 3), refined by multistart Nelder-Mead descent
from the best grid directions; for n >= 4 the grid is replaced by seeded
scrambled Sobol directions.  Everything is deterministic given the
configuration and seed.

Zero minima mean no positive constant can exist at that scale, so spheres
with a vanishing minimum contribute no log point; when more than half of
the spheres vanish the verdict fails with a diagnostic.  A constrained
scan whose admissible region is empty on every sphere holds vacuously and
says so.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
from scipy import optimize

from . import quantities as qt
from .quantities import MapGerm
from .seeds import subsystem_seed

CAVEAT_NUMERICAL = "numerical evidence, not proof"

DEFAULT_RADII: tuple[float, ...] = tuple(0.1 * 2.0**-k for k in range(8))

_NM_OPTIONS = {"xatol": 1e-12, "fatol": 1e-300, "maxiter": 300, "maxfev": 600}


@dataclass(frozen=True)
class ScanConfig:
    """Sphere scan parameters.

    radii must be strictly decreasing with at least four entries so that a
    slope can be fitted meaningfully.
    """

    radii: tuple[float, ...] = DEFAULT_RADII
    grid_per_angle: int = 720
    hi_dim_directions: int = 4096
    multistarts: int = 16
    seed: int = 0
    tolerance: float = 0.1
    zero_floor: float = 1e-100

    def __post_init__(self) -> None:
        object.__setattr__(self, "radii", tuple(float(r) for r in self.radii))
        if len(self.radii) < 4:
            raise ValueError("at least four radii are needed to fit an exponent")
        if any(r <= 0 for r in self.radii):
            raise ValueError("radii must be positive")
        if any(a <= b for a, b in zip(self.radii, self.radii[1:])):
            raise ValueError("radii must be strictly decreasing")
        if self.grid_per_angle < 8 or self.hi_dim_directions < 8:
            raise ValueError("direction grids are too small to be useful")
        if self.multistarts < 0:
            raise ValueError("multistarts must be nonnegative")
        if self.tolerance < 0 or self.zero_floor <= 0:
            raise ValueError("tolerance must be >= 0 and zero_floor > 0")


@dataclass(frozen=True)
class ScanStrategy:
    kind: str
    grid_points: int
    multistarts: int
    seed: int


@dataclass(frozen=True)
class SphereMinimum:
    """Result of minimizing F over one sphere (or a constrained patch of it)."""

    radius: float
    value: float | None
    point: tuple[float, ...] | None
    feasible: int
    total: int


@dataclass(frozen=True)
class RadialScan:
    """Minima of one function over the configured ladder of spheres."""

    radii: tuple[float, ...]
    min_values: tuple[float | None, ...]
    feasible: tuple[int, ...]
    total: tuple[int, ...]
    strategy: ScanStrategy

    def __post_init__(self) -> None:
        if not (len(self.radii) == len(self.min_values) == len(self.feasible) == len(self.total)):
            raise ValueError("scan columns must have equal length")
        for v in self.min_values:
            if v is not None and v < 0:
                raise ValueError("sphere minima of a nonnegative function cannot be negative")


@dataclass(frozen=True)
class ExponentEstimate:
    """Least squares fit of log(min) against log(radius)."""

    slope: float
    log_constant: float
    r_squared: float
    n_points: int


@dataclass(frozen=True)
class ConditionVerdict:
    condition: str
    holds: bool
    estimate: ExponentEstimate | None
    target_exponent: float
    tolerance: float
    caveat: str
    diagnostics: tuple[str, ...]
    scan: RadialScan


# ---------------------------------------------------------------------------
# Direction grids


@lru_cache(maxsize=32)
def _directions(n: int, grid_per_angle: int, hi_dim: int, seed: int) -> np.ndarray:
    if n == 1:
        dirs = np.array([[1.0], [-1.0]])
    elif n == 2:
        theta = 2.0 * np.pi * np.arange(grid_per_angle) / grid_per_angle
        dirs = np.column_stack([np.cos(theta), np.sin(theta)])
    elif n == 3:
        k = grid_per_angle
        theta = np.pi * np.arange(k) / (k - 1)
        phi = 2.0 * np.pi * np.arange(k) / k
        tt, pp = np.meshgrid(theta, phi, indexing="ij")
        st = np.sin(tt).ravel()
        dirs = np.column_stack([st * np.cos(pp).ravel(), st * np.sin(pp).ravel(), np.cos(tt).ravel()])
    else:
        from scipy.stats import norm, qmc  # deferred: slow to import, and only n >= 4 needs it

        sampler = qmc.Sobol(d=n, scramble=True, seed=seed)
        raw = sampler.random(hi_dim)
        dirs = norm.ppf(np.clip(raw, 1e-12, 1.0 - 1e-12))
        lengths = np.sqrt(np.sum(dirs * dirs, axis=1))
        keep = lengths > 1e-9
        dirs = dirs[keep] / lengths[keep, None]
    dirs.flags.writeable = False
    return dirs


def _strategy_for(n: int, cfg: ScanConfig) -> ScanStrategy:
    if n <= 3:
        count = 2 if n == 1 else (cfg.grid_per_angle if n == 2 else cfg.grid_per_angle**2)
        return ScanStrategy("dense-grid+descent", count, cfg.multistarts, cfg.seed)
    return ScanStrategy("sobol+descent", cfg.hi_dim_directions, cfg.multistarts, cfg.seed)


# ---------------------------------------------------------------------------
# Constraints (used by the horn-restricted scan)


class HornConstraint:
    """Restriction to the horn { |f(x)| <= wbar * |x|^r }."""

    def __init__(self, germ: MapGerm, r: int, wbar: float):
        if wbar <= 0:
            raise ValueError("the horn width wbar must be positive")
        if r < 1:
            raise ValueError("r must be a positive integer")
        self.germ = germ
        self.r = r
        self.wbar = wbar

    def mask(self, pts: np.ndarray, radius: float) -> np.ndarray:
        return qt.COMPONENTS.value(self.germ, 1, pts) <= self.wbar * radius**self.r

    def violation(self, x: Sequence[float], radius: float) -> float:
        bound = self.wbar * radius**self.r
        return max(0.0, (qt.COMPONENTS.value(self.germ, 1, x) - bound) / bound)


# ---------------------------------------------------------------------------
# Sphere minimization


def _refine(
    F: Callable,
    n: int,
    radius: float,
    start: np.ndarray,
    penalty: Callable[[Sequence[float], float], float] | None,
) -> tuple[float, tuple[float, ...]]:
    def wrapped(x: Sequence[float]) -> float:
        if penalty is not None:
            bad = penalty(x, radius)
            if bad > 0.0:
                return 1e100 * (1.0 + bad)
        return F(x)

    # params -> point on the sphere: angles for n = 2, 3, a direction for n >= 4
    if n == 2:
        def point(params: np.ndarray) -> tuple[float, ...] | None:
            th = params[0]
            return (radius * math.cos(th), radius * math.sin(th))

        x0 = np.array([math.atan2(start[1], start[0])])
    elif n == 3:
        def point(params: np.ndarray) -> tuple[float, ...] | None:
            th, ph = params
            st = math.sin(th)
            return (radius * st * math.cos(ph), radius * st * math.sin(ph), radius * math.cos(th))

        x0 = np.array([math.acos(max(-1.0, min(1.0, start[2]))), math.atan2(start[1], start[0])])
    else:
        def point(params: np.ndarray) -> tuple[float, ...] | None:
            length = math.sqrt(float(np.dot(params, params)))
            return tuple(radius * v / length for v in params) if length >= 1e-9 else None

        x0 = np.asarray(start, dtype=float)

    def objective(params: np.ndarray) -> float:
        pt = point(params)
        return 1e100 if pt is None else wrapped(pt)

    res = optimize.minimize(objective, x0, method="Nelder-Mead", options=_NM_OPTIONS)
    pt = point(res.x) or tuple(start * radius)
    return wrapped(pt), pt


def min_on_sphere(
    F: Callable,
    n: int,
    radius: float,
    cfg: ScanConfig,
    constraint: HornConstraint | None = None,
) -> SphereMinimum:
    """Minimize F over the sphere of the given radius.

    F takes an (N, n) array of points to the array of its values at the
    rows, and one point, a tuple of n floats, to its value.  The grid stage
    calls it on the array of grid points, the descent on single points.
    """
    if radius <= 0:
        raise ValueError("the sphere radius must be positive")
    dirs = _directions(n, cfg.grid_per_angle, cfg.hi_dim_directions, cfg.seed)
    pts = radius * dirs
    total = len(pts)
    if constraint is not None:
        feasible_mask = constraint.mask(pts, radius)
        pts = pts[feasible_mask]
    feasible = len(pts)
    if feasible == 0:
        return SphereMinimum(radius=radius, value=None, point=None, feasible=0, total=total)
    values = F(pts)
    order = np.argsort(values, kind="stable")
    best_value = float(values[order[0]])
    best_point = tuple(float(c) for c in pts[order[0]])
    if n > 1:
        penalty = constraint.violation if constraint is not None else None
        for idx in order[: cfg.multistarts]:
            value, pt = _refine(F, n, radius, pts[idx] / radius, penalty)
            if value < best_value:
                best_value, best_point = value, tuple(pt)
    return SphereMinimum(
        radius=radius,
        value=max(best_value, 0.0),
        point=best_point,
        feasible=feasible,
        total=total,
    )


def scan_spheres(
    F: Callable,
    n: int,
    cfg: ScanConfig,
    constraint: HornConstraint | None = None,
) -> RadialScan:
    """Minimize F (as in min_on_sphere) over every sphere in the configured ladder."""
    rows = [min_on_sphere(F, n, r, cfg, constraint) for r in cfg.radii]
    return RadialScan(
        radii=cfg.radii,
        min_values=tuple(row.value for row in rows),
        feasible=tuple(row.feasible for row in rows),
        total=tuple(row.total for row in rows),
        strategy=_strategy_for(n, cfg),
    )


# ---------------------------------------------------------------------------
# Exponent fitting and verdicts


def fit_loglog(xs: Sequence[float], ys: Sequence[float]) -> ExponentEstimate:
    """Least squares slope of log(y) against log(x); needs >= 2 pairs."""
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need at least two (x, y) pairs with matching length")
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    slope, intercept = np.polyfit(lx, ly, 1)
    fitted = slope * lx + intercept
    ss_res = float(np.sum((ly - fitted) ** 2))
    ss_tot = float(np.sum((ly - np.mean(ly)) ** 2))
    r2 = 1.0 if ss_tot < 1e-30 else 1.0 - ss_res / ss_tot
    return ExponentEstimate(
        slope=float(slope), log_constant=float(intercept), r_squared=r2, n_points=len(xs)
    )


def decide_rate(
    points: Sequence[tuple[float, float]],
    target: float,
    tolerance: float,
    zero_floor: float,
    vanished: str,
    skipped: str | None,
    too_few: str,
) -> tuple[bool, ExponentEstimate | None, list[str]]:
    """The rate rule behind every verdict: (holds, estimate, diagnostics).

    `points` are the (scale, minimum) pairs of the scales that produced a
    minimum.  Minima at or below zero_floor are zeros.  When zeros are a
    majority, no positive constant exists and the rate fails; otherwise
    zeros are skipped, fewer than two remaining points fail, and the rate
    holds iff the log-log slope is at most target + tolerance.  The message
    templates may use {zeros} and {present}; a `skipped` of None says
    nothing about skipped zeros.
    """
    zeros = sum(1 for _, v in points if v <= zero_floor)
    counts = {"zeros": zeros, "present": len(points)}
    if zeros and 2 * zeros > len(points):
        return False, None, [vanished.format(**counts)]
    notes = [skipped.format(**counts)] if zeros and skipped else []
    usable = [(x, v) for x, v in points if v > zero_floor]
    if len(usable) < 2:
        return False, None, notes + [too_few]
    estimate = fit_loglog([x for x, _ in usable], [v for _, v in usable])
    return estimate.slope <= target + tolerance, estimate, notes


def verdict_from_scan(
    condition: str,
    scan: RadialScan,
    target: float,
    cfg: ScanConfig,
    constrained: bool = False,
) -> ConditionVerdict:
    """Turn a radial scan into a holds / fails verdict against a target exponent."""
    diagnostics: list[str] = []
    present = [(r, v) for r, v in zip(scan.radii, scan.min_values) if v is not None]
    if constrained and not present:
        holds, estimate = True, None
        diagnostics.append(
            "the admissible region is empty on every scanned sphere; the inequality holds vacuously there"
        )
    else:
        if constrained and len(present) < len(scan.radii):
            diagnostics.append(
                f"admissible region empty on {len(scan.radii) - len(present)} of {len(scan.radii)} spheres"
            )
        holds, estimate, notes = decide_rate(
            present, target, cfg.tolerance, cfg.zero_floor,
            "minimum vanishes on {zeros} of {present} scanned spheres; "
            "no positive constant exists at those scales",
            "minimum vanished on {zeros} of {present} spheres; those spheres were skipped",
            "fewer than two spheres produced a positive minimum; cannot certify a rate",
        )
        diagnostics += notes
    return ConditionVerdict(
        condition=condition,
        holds=holds,
        estimate=estimate,
        target_exponent=target,
        tolerance=cfg.tolerance,
        caveat=CAVEAT_NUMERICAL,
        diagnostics=tuple(diagnostics),
        scan=scan,
    )


# ---------------------------------------------------------------------------
# Quantity scans and the conditions they decide


def scan_quantity(
    germ: MapGerm, quantity: qt.Quantity, m: int, cfg: ScanConfig, constraint: HornConstraint | None = None
) -> RadialScan:
    """Radial scan of a quantity of quantities.py at m."""
    return scan_spheres(lambda x: quantity.value(germ, m, x), germ.n, cfg, constraint=constraint)


def _check_r(r: int) -> None:
    if not isinstance(r, int) or r < 1:
        raise ValueError("r must be a positive integer")


@dataclass(frozen=True)
class Condition:
    """quantity(m) >= C * |x|^target(r) near 0, decided for every r on one scan."""

    name: str
    scan: str  # the name of the scan in reports
    quantity: qt.Quantity
    m: int
    target: Callable[[int], int]

    def verdict(self, scan: RadialScan, r: int, cfg: ScanConfig) -> ConditionVerdict:
        return verdict_from_scan(f"{self.name} r={r}", scan, self.target(r), cfg)


#: The conditions whose scan does not depend on r, in report order.
CONDITIONS: dict[str, Condition] = {c.name: c for c in (
    # |grad f| >= C |x|^(r-1), single equations only
    Condition("kuiper-kuo", "gradient", qt.GRADIENT, 1, lambda r: r - 1),
    # |x| * (minor sum) + |f(x)| >= C |x|^r: the Kuo quantity at m = 1
    Condition("ktilde", "kuo_m1", qt.KUO, 1, lambda r: r),
    # the paired inequalities: Thom and Kuo quantities at m = 2 against |x|^(2r)
    Condition("thom-inequality", "thom_m2", qt.THOM, 2, lambda r: 2 * r),
    Condition("kuo-inequality", "kuo_m2", qt.KUO, 2, lambda r: 2 * r),
)}


def conditions_for(germ: MapGerm) -> list[Condition]:
    """The conditions that apply to a germ: kuiper-kuo needs a single equation."""
    return [c for c in CONDITIONS.values() if germ.p == 1 or c.name != "kuiper-kuo"]


def check_condition(germ: MapGerm, name: str, r: int, cfg: ScanConfig) -> ConditionVerdict:
    """Decide one condition of CONDITIONS at one r, scanning its quantity."""
    _check_r(r)
    condition = CONDITIONS[name]
    if condition not in conditions_for(germ):
        raise ValueError(f"{name} requires a single-component germ")
    return condition.verdict(scan_quantity(germ, condition.quantity, condition.m, cfg), r, cfg)


def check_horn(r: int, wbar: float, cfg: ScanConfig) -> None:
    """Refuse a horn whose bound wbar * radius^r is not a positive finite
    float at every scanned radius; at the default radii it underflows to 0
    once r > 104, and the constrained descent divides by it."""
    _check_r(r)
    try:
        ok = wbar * cfg.radii[-1] ** r > 0.0 and wbar * cfg.radii[0] ** r < math.inf
    except OverflowError:
        ok = False
    if not ok:
        raise ValueError(f"the horn bound wbar * radius^r leaves the float range on the scanned radii at r = {r}")


def check_kuo(germ: MapGerm, r: int, wbar: float, cfg: ScanConfig) -> ConditionVerdict:
    """Minor growth >= C |x|^(r-1), required only inside the horn of width wbar.

    The horn depends on r, so so does the scan.  For p == 1 the sum of
    absolute 1-minors is the l1 gradient norm, which bounds the Euclidean
    norm both ways, so verdicts at exponent level are unaffected by the
    choice.
    """
    check_horn(r, wbar, cfg)
    constraint = HornConstraint(germ, r, wbar)
    scan = scan_quantity(germ, qt.MINOR_SUM, 1, cfg, constraint=constraint)
    return verdict_from_scan(f"kuo r={r} wbar={wbar:g}", scan, r - 1, cfg, constrained=True)


def sufficiency_degree_estimate(gradient: RadialScan, r_max: int, cfg: ScanConfig) -> int | None:
    """Smallest r in 1..r_max at which kuiper-kuo holds on a gradient scan, else None."""
    _check_r(r_max)
    kuiper_kuo = CONDITIONS["kuiper-kuo"]
    return next((r for r in range(1, r_max + 1) if kuiper_kuo.verdict(gradient, r, cfg).holds), None)


# ---------------------------------------------------------------------------
# Bounded-ratio probe


@dataclass(frozen=True)
class RatioProbe:
    """Sampled maxima of K/T at a radius and at a quarter of it.

    Only K/T is informative.  Algebra alone bounds T/K by a constant
    C(n, p, m): 1 when n = p, 2(n - p) at m = 1 (the Thom minor sum is at
    most 2(n - p) |x| times the Kuo one) and 4 at m = 2 (Cauchy-Binet
    gives T_2 - |f|^2 <= 4 (K_2 - |f|^2)), so its maxima are not sampled.
    """

    m: int
    radius: float
    shrunk_radius: float
    points: int
    max_kuo_over_thom: float
    shrunk_max_kuo_over_thom: float

    @property
    def stability_kuo_over_thom(self) -> float:
        a, b = self.max_kuo_over_thom, self.shrunk_max_kuo_over_thom
        return max(a, b) / min(a, b)


def ratio_stability_probe(
    germ: MapGerm,
    m: int,
    radius: float = 0.01,
    points: int = 2000,
    seed: int = 0,
) -> RatioProbe:
    """Sample K/T in a ball and in the 4x shrunken ball.

    Points where either quantity vanishes are excluded from the ratios.
    """
    if m < 1 or points < 16 or radius <= 0:
        raise ValueError("need m >= 1, points >= 16 and a positive radius")
    rng = np.random.default_rng(subsystem_seed(seed, "ratio-probe"))

    def sample_maximum(ball_radius: float) -> float:
        dirs = rng.normal(size=(points, germ.n))
        lengths = np.sqrt(np.sum(dirs * dirs, axis=1))
        lengths[lengths < 1e-12] = 1.0
        radii = ball_radius * rng.uniform(size=points) ** (1.0 / germ.n)
        pts = dirs / lengths[:, None] * radii[:, None]
        kv = qt.KUO.value(germ, m, pts)
        tv = qt.THOM.value(germ, m, pts)
        mask = (kv > 0.0) & (tv > 0.0)
        if not np.any(mask):
            raise ValueError("both quantities vanish at every sampled point")
        return float(np.max(kv[mask] / tv[mask]))

    return RatioProbe(
        m=m,
        radius=radius,
        shrunk_radius=radius / 4.0,
        points=points,
        max_kuo_over_thom=sample_maximum(radius),
        shrunk_max_kuo_over_thom=sample_maximum(radius / 4.0),
    )
