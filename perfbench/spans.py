"""Spans and counters around the public functions of each kuothom module.

Installed from outside the program: `install(recorder)` swaps wrappers
into every kuothom module namespace (and class, and the QUANTITIES table)
that holds one of the wrapped functions, so calls made through
`from .x import f` bindings are caught as well.  The program's files are
not edited.

A span records name, start, end and the index of its parent span.  A
layer's self time is the total duration of its spans minus the part their
child spans cover; `layer_times` maps span names to the per-layer metric
names below.  Hot single-point functions (Polynomial.eval_float, the scan
scalars, kuo_value/thom_value) only increment counters, which keeps the
overhead of a traced run small.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
from collections import Counter
from time import perf_counter

# span name -> per-layer self-time metric
LAYER_OF_SPAN = {
    "cli.main": "cli.command_s",
    "cli.load_config": "cli.load_s",
    "cli.load_germ": "cli.load_s",
    "cli.load_arcs": "cli.load_s",
    "relative.parse_sigma": "cli.load_s",
    "cli._emit": "cli.serialize_s",
    "arcs.probe_csv": "cli.serialize_s",
    "poly.parse_polynomial": "poly.parse_s",
    "poly.parse_unipoly": "poly.parse_s",
    "quantities.build_minors": "quantities.build_minors_s",
    "quantities.kuo_polynomial": "quantities.symbolic_s",
    "quantities.thom_polynomial": "quantities.symbolic_s",
    "quantities.vector": "quantities.vector_s",
    "lojasiewicz.min_on_sphere": "lojasiewicz.sphere_s",
    "lojasiewicz.refine": "lojasiewicz.refine_s",
    "arcs.ledger": "arcs.ledger_s",
    "poly.compose_arc": "poly.compose_arc_s",
    "arcs.arc_generator": "arcs.generate_s",
    "relative.distance_many": "relative.distance_s",
    "relative.check_relative": "relative.check_s",
    "relative.check_compatibility": "relative.check_s",
    "relative.sigma_elliptic_probe": "relative.ellipticity_s",
    "relative.jets_equal_on_sigma": "relative.jets_s",
    "relative.deformation": "relative.jets_s",
}

# Self-time layers, in report order; with trace.uncovered_s they partition
# the traced wall time.
SELF_TIME_LAYERS = tuple(dict.fromkeys(LAYER_OF_SPAN.values()))

COUNTERS = (
    "lojasiewicz.sphere.count",
    "lojasiewicz.refine.runs",
    "lojasiewicz.refine.nfev",
    "lojasiewicz.grid.points",
    "lojasiewicz.refine.spheres",
    "lojasiewicz.refine.wins",
    "quantities.scalar.calls",
    "quantities.vector.points",
    "quantities.build_minors.misses",
    "poly.eval_float.calls",
    "poly.compose_arc.calls",
    "arcs.ledger.count",
    "relative.distance.points",
    "relative.projection.nfev",
    "relative.projection.attempts",
    "relative.projection.accepted",
    "relative.band.samples",
)

VECTOR_FUNCTIONS = (
    "kuo_values",
    "thom_values",
    "minor_abs_sum_values",
    "thom_abs_sum_values",
    "component_norm_values",
    "gradient_norm_values",
    "eval_many",
)


class Recorder:
    """In-memory spans and counters; inactive until `active` is set."""

    def __init__(self) -> None:
        self.active = False
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.scalar_depth = 0
        self.vector_depth = 0

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        self.stack.pop()

    def layer_times(self) -> dict[str, float]:
        """Self time per layer metric, summed over all recorded spans."""
        child = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        out = {layer: 0.0 for layer in SELF_TIME_LAYERS}
        for i, name in enumerate(self.names):
            out[LAYER_OF_SPAN[name]] += self.ends[i] - self.starts[i] - child[i]
        return out

    def total_time(self, name: str) -> float:
        """Inclusive time of the spans with this name (which never nest)."""
        return sum(e - s for n, s, e in zip(self.names, self.starts, self.ends) if n == name)


def spanned(rec: Recorder, name: str, fn, after=None):
    """Wrap fn in a span; `after(args, kwargs, result)` runs once it returns."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        idx = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if after is not None:
            after(args, kwargs, result)
        return result

    return wrapper


def counted(rec: Recorder, counter: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if rec.active:
            rec.counts[counter] += 1
        return fn(*args, **kwargs)

    return wrapper


def _replace_everywhere(original, replacement) -> None:
    """Point every kuothom module attribute bound to `original` at `replacement`."""
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "kuothom" and not mod_name.startswith("kuothom."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


class _OptimizeProxy:
    """Stands in for `scipy.optimize` inside one kuothom module."""

    def __init__(self, real, minimize):
        self._real = real
        self.minimize = minimize

    def __getattr__(self, name):
        return getattr(self._real, name)


def install(rec: Recorder) -> None:
    """Wrap the public functions of poly, quantities, arcs, lojasiewicz,
    relative and cli.  Call once, after `import kuothom.cli`.

    A function or method the program no longer has is skipped, and its
    metrics read 0, so a program that drops one still runs traced.
    """
    from kuothom import arcs, cli, lojasiewicz as lj, poly, quantities as qt, relative as rel

    def swap(module, attr: str, name: str, after=None) -> None:
        original = getattr(module, attr, None)
        if original is not None:
            _replace_everywhere(original, spanned(rec, name, original, after))

    def swap_method(cls, attr: str, make) -> None:
        original = getattr(cls, attr, None)
        if original is not None:
            setattr(cls, attr, make(original))

    def count(counter: str):
        def after(args, kwargs, result) -> None:
            rec.counts[counter] += 1

        return after

    # -- cli and parsing
    swap(cli, "main", "cli.main")
    for attr in ("load_config", "load_germ", "load_arcs", "_emit"):
        swap(cli, attr, f"cli.{attr}")
    swap(rel, "parse_sigma", "relative.parse_sigma")
    swap(poly, "parse_polynomial", "poly.parse_polynomial")
    swap(poly, "parse_unipoly", "poly.parse_unipoly")
    swap(arcs, "probe_csv", "arcs.probe_csv")

    # -- poly
    original_eval_float = getattr(poly.Polynomial, "eval_float", None)
    swap_method(poly.Polynomial, "eval_float", lambda fn: counted(rec, "poly.eval_float.calls", fn))
    swap(poly, "compose_arc", "poly.compose_arc", count("poly.compose_arc.calls"))

    # -- quantities: the minor cache is rebuilt around a spanned body with
    # the original cache parameters, so hits stay in C and cost no span
    build = getattr(qt, "build_minors", None)
    if build is not None and hasattr(build, "cache_parameters"):
        body = spanned(rec, "quantities.build_minors", build.__wrapped__)

        def counting_body(*args, **kwargs):
            if rec.active:
                rec.counts["quantities.build_minors.misses"] += 1
            return body(*args, **kwargs)

        params = build.cache_parameters()
        cached = functools.lru_cache(maxsize=params["maxsize"], typed=params["typed"])(counting_body)
        _replace_everywhere(build, functools.wraps(build.__wrapped__)(cached))
    else:
        swap(qt, "build_minors", "quantities.build_minors", count("quantities.build_minors.misses"))
    swap(qt, "kuo_polynomial", "quantities.kuo_polynomial")
    swap(qt, "thom_polynomial", "quantities.thom_polynomial")

    def vector_wrapper(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            if rec.vector_depth == 0:
                pts = args[-1] if args else kwargs["pts"]
                rec.counts["quantities.vector.points"] += len(pts)
            rec.vector_depth += 1
            idx = rec.open("quantities.vector")
            try:
                return fn(*args, **kwargs)
            finally:
                rec.close(idx)
                rec.vector_depth -= 1

        return wrapper

    table = getattr(qt, "QUANTITIES", {})
    for attr in VECTOR_FUNCTIONS:
        original = getattr(qt, attr, None)
        if original is None:
            continue
        wrapped = vector_wrapper(original)
        _replace_everywhere(original, wrapped)
        for key, value in list(table.items()):
            if value is original:
                table[key] = wrapped

    def point_value(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if rec.active and rec.scalar_depth == 0:
                rec.counts["quantities.scalar.calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    for attr in ("kuo_value", "thom_value"):
        original = getattr(qt, attr, None)
        if original is not None:
            _replace_everywhere(original, point_value(original))

    # -- lojasiewicz: one span per sphere, refinement through the module's
    # own view of scipy.optimize
    if hasattr(lj, "optimize"):
        real_minimize = lj.optimize.minimize

        def refine_minimize(*args, **kwargs):
            if not rec.active:
                return real_minimize(*args, **kwargs)
            idx = rec.open("lojasiewicz.refine")
            try:
                res = real_minimize(*args, **kwargs)
            finally:
                rec.close(idx)
            rec.counts["lojasiewicz.refine.runs"] += 1
            rec.counts["lojasiewicz.refine.nfev"] += int(getattr(res, "nfev", 0))
            return res

        lj.optimize = _OptimizeProxy(lj.optimize, refine_minimize)

    original_sphere = getattr(lj, "min_on_sphere", None)
    if original_sphere is not None:
        _replace_everywhere(original_sphere, _sphere_wrapper(rec, original_sphere))

    # -- arcs
    swap(arcs, "ledger", "arcs.ledger", count("arcs.ledger.count"))
    swap(arcs, "arc_generator", "arcs.arc_generator")

    # -- relative
    def after_check(args, kwargs, result) -> None:
        rec.counts["relative.band.samples"] += sum(row.count for row in getattr(result, "bands", ()))

    swap(rel, "check_relative", "relative.check_relative", after_check)
    swap(rel, "check_compatibility", "relative.check_compatibility")
    swap(rel, "sigma_elliptic_probe", "relative.sigma_elliptic_probe")
    swap(rel, "jets_equal_on_sigma", "relative.jets_equal_on_sigma")
    swap(rel, "deformation", "relative.deformation")

    def after_distance(args, kwargs, result) -> None:
        rec.counts["relative.distance.points"] += len(result)

    for cls in (rel.AlgebraicSet, rel.CoordinateSubspaceUnion):
        swap_method(cls, "distance_many",
                    lambda fn: spanned(rec, "relative.distance_many", fn, after_distance))
    if hasattr(rel, "optimize") and hasattr(rel.AlgebraicSet, "distance"):
        _install_projection_counts(rec, rel, original_eval_float)


def _sphere_wrapper(rec: Recorder, original):
    """Span one sphere minimization; see the grid minimum and count scalar
    calls by wrapping the `F` and `scalar` arguments."""
    signature = inspect.signature(original)

    @functools.wraps(original)
    def min_on_sphere(*args, **kwargs):
        if not rec.active:
            return original(*args, **kwargs)
        bound = signature.bind(*args, **kwargs)
        grid = []
        if "F" in bound.arguments:
            F = bound.arguments["F"]

            def grid_values(pts):
                values = F(pts)
                if not grid:
                    grid.append(float(values.min()) if len(values) else math.inf)
                    rec.counts["lojasiewicz.grid.points"] += len(pts)
                return values

            bound.arguments["F"] = grid_values
        if bound.arguments.get("scalar") is not None:
            scalar = bound.arguments["scalar"]

            def scalar_fn(x):
                rec.counts["quantities.scalar.calls"] += 1
                rec.scalar_depth += 1
                try:
                    return scalar(x)
                finally:
                    rec.scalar_depth -= 1

            bound.arguments["scalar"] = scalar_fn
        runs_before = rec.counts["lojasiewicz.refine.runs"]
        idx = rec.open("lojasiewicz.min_on_sphere")
        try:
            result = original(*bound.args, **bound.kwargs)
        finally:
            rec.close(idx)
        rec.counts["lojasiewicz.sphere.count"] += 1
        if rec.counts["lojasiewicz.refine.runs"] > runs_before:
            rec.counts["lojasiewicz.refine.spheres"] += 1
            value = getattr(result, "value", None)
            if grid and value is not None and value < grid[0]:
                rec.counts["lojasiewicz.refine.wins"] += 1
        return result

    return min_on_sphere


def _install_projection_counts(rec: Recorder, rel, original_eval_float) -> None:
    """Projection attempts onto an algebraic Sigma.

    A chain of minimize calls, each starting where the previous one
    stopped, ends in one candidate; it is accepted when its residual is
    within PROJECTION_TOL.  Residuals use the unwrapped evaluator so they
    do not count as program work.
    """
    chain = {"sigma": None, "last": None}
    tol = getattr(rel, "PROJECTION_TOL", 0.0)

    def finish_chain() -> None:
        if chain["last"] is not None:
            y = chain["last"]
            res = math.sqrt(sum(original_eval_float(g, y) ** 2 for g in chain["sigma"].generators))
            if res <= tol:
                rec.counts["relative.projection.accepted"] += 1
            chain["last"] = None

    real_minimize = rel.optimize.minimize

    def projection_minimize(fun, x0, *args, **kwargs):
        res = real_minimize(fun, x0, *args, **kwargs)
        if rec.active and chain["sigma"] is not None:
            if x0 is not chain["last"]:
                finish_chain()
                rec.counts["relative.projection.attempts"] += 1
            chain["last"] = res.x
            rec.counts["relative.projection.nfev"] += int(getattr(res, "nfev", 0))
        return res

    rel.optimize = _OptimizeProxy(rel.optimize, projection_minimize)
    original_distance = rel.AlgebraicSet.distance

    @functools.wraps(original_distance)
    def distance(self, x):
        if not rec.active:
            return original_distance(self, x)
        chain["sigma"], chain["last"] = self, None
        try:
            return original_distance(self, x)
        finally:
            finish_chain()
            chain["sigma"] = None

    rel.AlgebraicSet.distance = distance
