"""Relative sufficiency: bounds against the distance to a singular set.

The relative conditions ask for T_m(f, x) >= c * d(x, Sigma)^(r*m) (or the
same with the Kuo quantity) for x in a small ball around the origin, where
Sigma is a closed set through the origin.  Two representations of Sigma
are supported:

* CoordinateSubspaceUnion: a finite union of coordinate subspaces, each
  given by the variables it retains.  Distances are exact, and symbolic
  jet comparison along Sigma is available.
* AlgebraicSet: the common zero set of polynomial generators.  Distances
  are numeric upper-bound estimates from a penalized projection (recorded
  tolerance PROJECTION_TOL); symbolic jet comparison is refused rather
  than guessed.

The numeric check stratifies a sampled ball into dyadic distance bands,
takes the band minima of the chosen quantity, and fits the decay of those
minima against the band distance.  Verdicts carry the same caveat as the
sphere scans: they certify a single sampled (c, exponent) pair, they do
not prove existence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Sequence, Union

import numpy as np
from scipy import optimize

from . import quantities as qt
from .lojasiewicz import CAVEAT_NUMERICAL, ExponentEstimate, decide_rate
from .poly import Polynomial, _variable_index, _tokenize, parse_polynomial, variable_names
from .quantities import MapGerm, map_germ
from .seeds import subsystem_seed

#: Residual tolerance accepted by the numeric projection onto an algebraic set.
PROJECTION_TOL = 1e-8


class UnsupportedSigmaError(ValueError):
    """Raised when an operation needs a Sigma variant it cannot handle."""


class JetMismatchError(ValueError):
    """Raised when a deformation pair does not agree to the required order."""


@dataclass(frozen=True)
class CoordinateSubspaceUnion:
    """A finite union of coordinate subspaces.

    Each subspace is the strictly increasing tuple of 0-based variable
    indices it retains; all other coordinates vanish on it.  The empty
    tuple is the origin.  Retaining every variable is rejected, since the
    distance would be identically zero.
    """

    nvars: int
    subspaces: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        subs = tuple(tuple(s) for s in self.subspaces)
        object.__setattr__(self, "subspaces", subs)
        if self.nvars < 1:
            raise ValueError("nvars must be at least 1")
        if not subs:
            raise ValueError("the union needs at least one subspace")
        seen = set()
        for sub in subs:
            if any(not 0 <= i < self.nvars for i in sub):
                raise ValueError(f"subspace {sub} has indices outside 0..{self.nvars - 1}")
            if any(a >= b for a, b in zip(sub, sub[1:])):
                raise ValueError(f"subspace {sub} must be strictly increasing")
            if len(sub) >= self.nvars:
                raise ValueError("a subspace retaining every variable has zero distance everywhere")
            if sub in seen:
                raise ValueError(f"duplicate subspace {sub}")
            seen.add(sub)

    @property
    def is_origin_only(self) -> bool:
        return all(len(s) == 0 for s in self.subspaces)

    def _complement(self, sub: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(i for i in range(self.nvars) if i not in sub)

    def distance_many(self, pts: np.ndarray) -> np.ndarray:
        """Exact distance of each row of an (N, nvars) array."""
        pts = np.asarray(pts, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.nvars:
            raise ValueError(f"points must form an (N, {self.nvars}) array, got shape {pts.shape}")
        best = None
        for sub in self.subspaces:
            comp = list(self._complement(sub))
            d = np.sqrt(np.sum(pts[:, comp] ** 2, axis=1))
            best = d if best is None else np.minimum(best, d)
        return best

    def distance_sq_exact(self, x: Sequence[object]) -> Fraction:
        """Exact squared distance at a rational point."""
        if len(x) != self.nvars:
            raise ValueError(f"point has {len(x)} coordinates, expected {self.nvars}")
        xs = [v if isinstance(v, Fraction) else Fraction(v) for v in x]
        best: Fraction | None = None
        for sub in self.subspaces:
            d = sum((xs[i] ** 2 for i in self._complement(sub)), Fraction(0))
            if best is None or d < best:
                best = d
        return best

    def describe(self) -> str:
        names = variable_names(self.nvars)
        chunks = ["[" + ",".join(names[i] for i in sub) + "]" for sub in self.subspaces]
        return "subspaces: " + ", ".join(chunks)


@dataclass(frozen=True)
class AlgebraicSet:
    """The common zero set of polynomial generators (all vanishing at 0)."""

    nvars: int
    generators: tuple[Polynomial, ...]

    def __post_init__(self) -> None:
        gens = tuple(self.generators)
        object.__setattr__(self, "generators", gens)
        if not gens:
            raise ValueError("an algebraic set needs at least one generator")
        for g in gens:
            if g.nvars != self.nvars:
                raise ValueError("generator variable count mismatch")
            if not g.vanishes_at_origin:
                raise ValueError("generators must vanish at the origin")

    def distance(self, x: Sequence[float]) -> float:
        """Numeric upper bound for d(x, Sigma) via penalized projection.

        Candidates whose residual exceeds PROJECTION_TOL are discarded;
        the origin is always an exactly feasible candidate.
        """
        if len(x) != self.nvars:
            raise ValueError(f"point has {len(x)} coordinates, expected {self.nvars}")
        x = np.asarray(x, dtype=float)
        partials = self._partials

        def residual(y: np.ndarray) -> float:
            return math.sqrt(sum(g.eval_float(y) ** 2 for g in self.generators))

        best = float(np.sqrt(np.dot(x, x)))  # y = 0 is always on Sigma
        for start in (x, x / 2.0):
            y = np.asarray(start, dtype=float)
            for mu in (1e4, 1e6, 1e8, 1e10):
                def objective(yv: np.ndarray) -> tuple[float, np.ndarray]:
                    diff = yv - x
                    value = float(np.dot(diff, diff))
                    grad = 2.0 * diff
                    for g, dg in zip(self.generators, partials):
                        gv = g.eval_float(yv)
                        value += mu * gv * gv
                        grad += 2.0 * mu * gv * np.array([q.eval_float(yv) for q in dg])
                    return value, grad

                res = optimize.minimize(objective, y, jac=True, method="L-BFGS-B")
                y = res.x
            if residual(y) <= PROJECTION_TOL:
                best = min(best, float(np.sqrt(np.dot(y - x, y - x))))
        return best

    @cached_property
    def _partials(self) -> tuple[tuple[Polynomial, ...], ...]:
        """The gradient of each generator, built once per set."""
        return tuple(tuple(g.partial(i) for i in range(self.nvars)) for g in self.generators)

    def distance_many(self, pts: np.ndarray) -> np.ndarray:
        return np.array([self.distance(row) for row in np.asarray(pts, dtype=float)])

    def describe(self) -> str:
        return "zeros: " + "; ".join(g.to_string() for g in self.generators)


SigmaSet = Union[CoordinateSubspaceUnion, AlgebraicSet]


def parse_sigma(text: str, nvars: int) -> SigmaSet:
    """Parse a Sigma description.

    Grammar: 'subspaces: [x1], [x1,x2]' (the empty bracket [] is the
    origin) or 'zeros: x2; x3' with polynomial generators.
    """
    body = " ".join(
        line.split("#", 1)[0].strip() for line in text.splitlines()
    ).strip()
    if body.startswith("subspaces:"):
        rest = body[len("subspaces:"):].strip()
        subs: list[tuple[int, ...]] = []
        depth = 0
        current: list[str] | None = None
        for ch in rest:
            if ch == "[":
                if depth:
                    raise ValueError("nested brackets in subspace list")
                depth, current = 1, []
            elif ch == "]":
                if not depth:
                    raise ValueError("unbalanced brackets in subspace list")
                chunk = "".join(current).strip()
                indices = []
                if chunk:
                    for name in chunk.split(","):
                        tok = _tokenize(name.strip())[0]
                        indices.append(_variable_index(tok[1], tok[2], tok[3]))
                subs.append(tuple(sorted(indices)))
                depth, current = 0, None
            elif depth:
                current.append(ch)
            elif ch not in ", ":
                raise ValueError(f"unexpected character {ch!r} between subspaces")
        if depth:
            raise ValueError("unbalanced brackets in subspace list")
        return CoordinateSubspaceUnion(nvars=nvars, subspaces=tuple(subs))
    if body.startswith("zeros:"):
        rest = body[len("zeros:"):].strip()
        gens = tuple(parse_polynomial(part.strip(), nvars) for part in rest.split(";"))
        return AlgebraicSet(nvars=nvars, generators=gens)
    raise ValueError("a Sigma description must start with 'subspaces:' or 'zeros:'")


# ---------------------------------------------------------------------------
# Symbolic jets along Sigma


def jets_equal_on_sigma(f: MapGerm, g: MapGerm, r: int, sigma: SigmaSet) -> bool:
    """Whether all partial derivatives of f and g up to order r agree on Sigma.

    Symbolic and exact; only coordinate subspace unions are supported.
    An algebraic Sigma is refused rather than approximated.  On a subspace
    the jets agree exactly when every monomial of g - f has degree above r
    in the variables that vanish there: a lower degree survives the
    derivative that removes exactly those variables, and distinct monomials
    give distinct derivatives, so nothing cancels.
    """
    if isinstance(sigma, AlgebraicSet):
        raise UnsupportedSigmaError(
            "symbolic jet comparison supports only coordinate subspace unions"
        )
    if f.n != g.n or f.p != g.p:
        raise ValueError("the two germs must share source and target dimensions")
    if sigma.nvars != f.n:
        raise ValueError("Sigma and the germs live in different variable counts")
    if r < 0:
        raise ValueError("the jet order r must be nonnegative")
    for sub in sigma.subspaces:
        vanishing = sigma._complement(sub)
        for fj, gj in zip(f.components, g.components):
            if any(sum(mono[i] for i in vanishing) <= r for mono in (gj - fj).terms):
                return False
    return True


def deformation(f: MapGerm, g: MapGerm, t: object) -> MapGerm:
    """The segment germ f + t*(g - f), exact for rational t."""
    if f.n != g.n or f.p != g.p:
        raise ValueError("the two germs must share source and target dimensions")
    tv = t if isinstance(t, Fraction) else Fraction(t)
    comps = tuple(fi + tv * (gi - fi) for fi, gi in zip(f.components, g.components))
    return map_germ(comps)


# ---------------------------------------------------------------------------
# Band sampling


@dataclass(frozen=True)
class RelativeScanConfig:
    """Configuration for the distance-band scans."""

    delta: float = 0.05
    bands: int = 8
    samples_per_band: int = 256
    anchor_directions: int = 8
    seed: int = 0
    tolerance: float = 0.1
    zero_floor: float = 1e-100

    def __post_init__(self) -> None:
        if self.delta <= 0:
            raise ValueError("the ball radius delta must be positive")
        if self.bands < 4:
            raise ValueError("at least four distance bands are needed to fit an exponent")
        if self.samples_per_band < 8:
            raise ValueError("samples_per_band is too small to be useful")
        if self.tolerance < 0 or self.zero_floor <= 0:
            raise ValueError("tolerance must be >= 0 and zero_floor > 0")

    @property
    def band_top(self) -> float:
        return self.delta / 2.0


@dataclass(frozen=True)
class BandRow:
    low: float
    high: float
    count: int
    min_value: float | None


@dataclass(frozen=True)
class RelativeVerdict:
    condition: str
    r: int
    m: int
    holds: bool
    estimate: ExponentEstimate | None
    target_exponent: float
    tolerance: float
    caveat: str
    diagnostics: tuple[str, ...]
    bands: tuple[BandRow, ...]
    sigma: str


@lru_cache(maxsize=64)
def _band_points(sigma: SigmaSet, cfg: RelativeScanConfig) -> tuple[np.ndarray, ...]:
    """Sampled points of the ball |x| < delta, bucketed by dyadic d(x, Sigma) band.

    Pools: multi-scale uniform ball samples (points near the origin are
    automatically close to Sigma, which contains it), and for subspace
    unions additional offsets y + t*nu with y on a subspace and nu normal
    to it, including the pure normal segments from the origin along every
    complementary axis so that structural zeros on shells are actually hit.
    """
    n = sigma.nvars
    rng = np.random.default_rng(subsystem_seed(cfg.seed, "relative-sampler"))
    top = cfg.band_top
    algebraic = isinstance(sigma, AlgebraicSet)
    per_band = min(cfg.samples_per_band, 96) if algebraic else cfg.samples_per_band

    pools: list[np.ndarray] = []
    for k in range(cfg.bands):
        high = top * 2.0**-k
        ball = min(cfg.delta * 0.999, 2.0 * high)
        dirs = rng.normal(size=(per_band, n))
        lengths = np.sqrt(np.sum(dirs * dirs, axis=1))
        lengths[lengths < 1e-12] = 1.0
        radii = ball * rng.uniform(size=per_band) ** (1.0 / n)
        pools.append(dirs / lengths[:, None] * radii[:, None])

    if isinstance(sigma, CoordinateSubspaceUnion):
        for k in range(cfg.bands):
            high = top * 2.0**-k
            low = high / 2.0
            for sub in sigma.subspaces:
                comp = [i for i in range(n) if i not in sub]
                count = max(8, per_band // max(1, len(sigma.subspaces)))
                pts = np.zeros((count, n))
                if sub:
                    pts[:, list(sub)] = rng.uniform(-cfg.delta / 2, cfg.delta / 2, size=(count, len(sub)))
                nu = rng.normal(size=(count, len(comp)))
                nl = np.sqrt(np.sum(nu * nu, axis=1))
                nl[nl < 1e-12] = 1.0
                mag = rng.uniform(low, high, size=count)
                pts[:, comp] += nu / nl[:, None] * mag[:, None]
                pools.append(pts)
                # pure normal anchors from the origin: these land exactly on
                # the complementary axes, where structural zeros live
                anchors = []
                t = 0.75 * high
                for i in comp:
                    for sign in (1.0, -1.0):
                        row = np.zeros(n)
                        row[i] = sign * t
                        anchors.append(row)
                extra = rng.normal(size=(cfg.anchor_directions, len(comp)))
                el = np.sqrt(np.sum(extra * extra, axis=1))
                el[el < 1e-12] = 1.0
                for row_c in extra / el[:, None] * t:
                    row = np.zeros(n)
                    row[comp] = row_c
                    anchors.append(row)
                pools.append(np.array(anchors))

    pts = np.vstack(pools)
    norms = np.sqrt(np.sum(pts * pts, axis=1))
    pts = pts[norms < cfg.delta]
    dists = sigma.distance_many(pts)

    buckets: list[list[np.ndarray]] = [[] for _ in range(cfg.bands)]
    for row, d in zip(pts, dists):
        if d <= 0 or d > top:
            continue
        k = int(math.floor(math.log2(top / d)))
        if 0 <= k < cfg.bands:
            buckets[k].append(row)
    out = tuple(np.array(rows) if rows else np.zeros((0, n)) for rows in buckets)
    for arr in out:
        arr.flags.writeable = False  # cached: shared by every later caller
    return out


def _band_rows(
    sigma: SigmaSet,
    cfg: RelativeScanConfig,
    value_fn,
) -> tuple[BandRow, ...]:
    buckets = _band_points(sigma, cfg)
    rows = []
    top = cfg.band_top
    for k, bucket in enumerate(buckets):
        high = top * 2.0**-k
        low = high / 2.0
        if len(bucket) == 0:
            rows.append(BandRow(low=low, high=high, count=0, min_value=None))
        else:
            rows.append(
                BandRow(low=low, high=high, count=len(bucket), min_value=float(np.min(value_fn(bucket))))
            )
    return tuple(rows)


def _band_minima(rows: tuple[BandRow, ...]) -> list[tuple[float, float]]:
    """(geometric band distance, minimum) of every band that received samples."""
    return [(math.sqrt(row.low * row.high), row.min_value) for row in rows if row.min_value is not None]


_TOO_FEW_BANDS = "fewer than two usable bands; cannot certify a rate"


def check_relative(
    germ: MapGerm,
    which: str,
    r: int,
    m: int,
    sigma: SigmaSet,
    cfg: RelativeScanConfig,
) -> RelativeVerdict:
    """Evidence for quantity(f, m, x) >= c * d(x, Sigma)^(r*m) near 0."""
    if which not in qt.QUANTITIES:
        raise ValueError(f"unknown quantity {which!r}; expected 'kuo' or 'thom'")
    if sigma.nvars != germ.n:
        raise ValueError("Sigma and the germ live in different variable counts")
    if not isinstance(r, int) or r < 1 or m < 1:
        raise ValueError("r and m must be positive integers")
    rows = _band_rows(sigma, cfg, lambda pts: qt.QUANTITIES[which].value(germ, m, pts))
    diagnostics: list[str] = []
    if isinstance(sigma, CoordinateSubspaceUnion) and sigma.is_origin_only:
        diagnostics.append(
            "Sigma is the origin, so d(x, Sigma) = |x| and this is the non-relative bound"
        )
    if isinstance(sigma, AlgebraicSet):
        diagnostics.append(
            f"distances to the algebraic Sigma are numeric upper bounds (tolerance {PROJECTION_TOL:g})"
        )
    empties = sum(1 for row in rows if row.min_value is None)
    if empties:
        diagnostics.append(f"{empties} of {len(rows)} distance bands received no samples")
    holds, estimate, notes = decide_rate(
        _band_minima(rows), r * m, cfg.tolerance, cfg.zero_floor,
        "band minimum vanishes in {zeros} of {present} bands; "
        "no positive constant exists at those distances",
        "band minimum vanished in {zeros} bands; those bands were skipped",
        _TOO_FEW_BANDS,
    )
    return RelativeVerdict(
        condition=f"relative {which} bound r={r} m={m}",
        r=r,
        m=m,
        holds=holds,
        estimate=estimate,
        target_exponent=r * m,
        tolerance=cfg.tolerance,
        caveat=CAVEAT_NUMERICAL,
        diagnostics=tuple(diagnostics + notes),
        bands=rows,
        sigma=sigma.describe(),
    )


def check_compatibility(
    f: MapGerm,
    g: MapGerm,
    r: int,
    m: int,
    which: str,
    sigma: SigmaSet,
    t_grid: Sequence[object],
    cfg: RelativeScanConfig,
) -> tuple[tuple[Fraction, RelativeVerdict], ...]:
    """Relative verdicts along the deformation f + t*(g - f).

    Requires the two germs to have equal jets of order r on Sigma; a
    mismatch is an error, not a silent degradation.
    """
    if not jets_equal_on_sigma(f, g, r, sigma):
        raise JetMismatchError(
            f"the germs do not share their order-{r} jets on Sigma; "
            "the deformation family is outside the supported setting"
        )
    out = []
    for t in t_grid:
        tv = t if isinstance(t, Fraction) else Fraction(t)
        verdict = check_relative(deformation(f, g, tv), which, r, m, sigma, cfg)
        out.append((tv, verdict))
    return tuple(out)


# ---------------------------------------------------------------------------
# Ellipticity probe for ideal generators


@dataclass(frozen=True)
class GeneratorEllipticity:
    index: int
    generator: str
    estimate: ExponentEstimate | None
    elliptic: bool
    diagnostics: tuple[str, ...]


@dataclass(frozen=True)
class EllipticityReport:
    alpha_max: float
    entries: tuple[GeneratorEllipticity, ...]
    holds: bool


def sigma_elliptic_probe(
    gens: Sequence[Polynomial],
    sigma: SigmaSet,
    alpha_max: float,
    cfg: RelativeScanConfig,
) -> EllipticityReport:
    """Evidence that some generator satisfies |gen(x)| >= C d(x, Sigma)^alpha
    with alpha <= alpha_max; zero generators are skipped with a diagnostic."""
    if alpha_max <= 0:
        raise ValueError("alpha_max must be positive")
    entries = []
    for idx, gen in enumerate(gens):
        if gen.is_zero:
            entries.append(
                GeneratorEllipticity(
                    index=idx,
                    generator="0",
                    estimate=None,
                    elliptic=False,
                    diagnostics=("generator is identically zero; skipped",),
                )
            )
            continue
        if gen.nvars != sigma.nvars:
            raise ValueError("generator variable count does not match Sigma")
        rows = _band_rows(sigma, cfg, lambda pts, g=gen: np.abs(g.eval_float(pts)))
        elliptic, estimate, notes = decide_rate(
            _band_minima(rows), alpha_max, cfg.tolerance, cfg.zero_floor,
            "generator vanishes somewhere in {zeros} of {present} distance bands", None, _TOO_FEW_BANDS,
        )
        entries.append(
            GeneratorEllipticity(
                index=idx,
                generator=gen.to_string(),
                estimate=estimate,
                elliptic=elliptic,
                diagnostics=tuple(notes),
            )
        )
    return EllipticityReport(
        alpha_max=alpha_max,
        entries=tuple(entries),
        holds=any(e.elliptic for e in entries),
    )
