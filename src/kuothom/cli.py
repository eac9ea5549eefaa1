"""Command-line front end: deterministic JSON and CSV reports.

Commands: `analyze` (minors, symbolic quantities, sphere-scan verdicts,
ratio probes), `arcs` (exact arc-order comparison table), `relative`
(distance-band verdicts against a Sigma set, jet equality, deformation
compatibility, ellipticity probe), `example` (the built-in worked example
end to end).

All randomness flows from the single configured `seed` through named
subsystem streams, so adding a consumer never perturbs existing streams.
Reports carry `schema: 1`, the tool version, the effective configuration
and caveat strings; floats are serialized at 12 significant digits, so a
fixed (config, seed) pair produces byte-identical files.

Exit codes: 0 success; 1 parse or validation failure; 2 violated
precondition (jet mismatch, unsupported Sigma variant); 3 internal
inconsistency (an arc-order mismatch, which a correct build never emits).
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import functools
import json
import math
import sys
from fractions import Fraction
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from . import lojasiewicz as lj
from . import quantities as qt
from . import relative as rel
from .arcs import Arc, ProbeReport, arc_generator, equivalence_probes, parse_arc, probe_csv
from .lojasiewicz import CAVEAT_NUMERICAL, ScanConfig
from .poly import MAX_VARIABLES, ParseError, Polynomial, max_variable_index, parse_polynomial, variable_names
from .quantities import MapGerm, map_germ
from .relative import (
    JetMismatchError,
    PROJECTION_TOL,
    RelativeScanConfig,
    UnsupportedSigmaError,
)
from .seeds import subsystem_seed

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_PRECONDITION = 2
EXIT_INTERNAL = 3


class CliError(ValueError):
    """Invalid command line, config, or input file (exit code 1)."""


class InternalInconsistencyError(RuntimeError):
    """A result that a correct implementation can never produce (exit code 3)."""


class _Parser(argparse.ArgumentParser):
    # argparse would sys.exit(2) on bad flags; 2 is reserved for violated
    # preconditions here, so route parse failures through CliError instead
    def error(self, message: str) -> None:  # type: ignore[override]
        raise CliError(message)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_unit_rational(v) -> bool:
    if not isinstance(v, (str, int, float)) or isinstance(v, bool):
        return False
    try:
        return 0 <= Fraction(v) <= 1
    except (ValueError, ZeroDivisionError, OverflowError):
        return False


def _list_of(test, nonempty: bool = True):
    return lambda v: isinstance(v, list) and (bool(v) or not nonempty) and all(test(x) for x in v)


# Kinds of config value: a test, and what an error says the value must be.
_SEED = (lambda v: v is None or _is_int(v), "an integer")
_POSITIVE = (lambda v: _is_number(v) and v > 0, "a positive number")
_RADIUS = (lambda v: _is_number(v) and 0 < v <= 1, "a number in (0, 1]")
_RADII = (_list_of(_RADIUS[0]), "a nonempty list of numbers in (0, 1]")
_COUNT = (lambda v: _is_int(v) and v >= 1, "a positive integer")
_COUNT0 = (lambda v: _is_int(v) and v >= 0, "a nonnegative integer")
_COUNTS = (_list_of(lambda v: _is_int(v) and v >= 1), "a nonempty list of positive integers")
_WHICH = (_list_of(lambda v: v in ("kuo", "thom")), "a nonempty list of 'kuo' and/or 'thom'")
_T_GRID = (_list_of(_is_unit_rational, nonempty=False), 'a list of rationals in [0, 1], such as "1/4"')
_PATH = (lambda v: v is None or isinstance(v, str), "a germ file path or null")

#: Default, kind and cap (None: no cap) of every config key; the keys of
#: the `relative` section carry its name as a prefix.  Scan settings take
#: their defaults from ScanConfig and RelativeScanConfig.  A cap bounds a
#: size that sets how much work or memory a run takes (of a list: its
#: length); it lies above the default, and a larger one is refused before
#: anything is allocated.
CONFIG_SCHEMA: dict[str, tuple] = {
    "seed": (None, _SEED, None),
    "m": ([1, 2], _COUNTS, 16),
    "r": ([1, 2, 3, 4], _COUNTS, 16),
    "r_max": (6, _COUNT, 64),
    "wbar": (1.0, _POSITIVE, None),
    "tolerance": (ScanConfig.tolerance, _POSITIVE, None),
    "radii": (list(ScanConfig.radii), _RADII, 64),
    "grid_per_angle": (ScanConfig.grid_per_angle, _COUNT, 1440),  # n = 3 scans its square: 2.07M directions at the cap
    "hi_dim_directions": (ScanConfig.hi_dim_directions, _COUNT, 65536),
    "multistarts": (ScanConfig.multistarts, _COUNT, 256),
    "zero_floor": (ScanConfig.zero_floor, _POSITIVE, None),
    "arc_count": (50, _COUNT0, 10000),
    "arc_max_exponent": (6, _COUNT, 64),
    "arc_max_terms": (3, _COUNT, None),
    "arc_coeff_bound": (9, _COUNT, None),
    "ratio_radius": (0.01, _RADIUS, None),
    "ratio_points": (2000, _COUNT, 1000000),
    "relative.delta": (RelativeScanConfig.delta, _POSITIVE, None),
    "relative.bands": (RelativeScanConfig.bands, _COUNT, 32),
    "relative.samples_per_band": (RelativeScanConfig.samples_per_band, _COUNT, 16384),
    "relative.anchor_directions": (RelativeScanConfig.anchor_directions, _COUNT, 1024),
    "relative.alpha_max": (4, _POSITIVE, None),
    "relative.r": ([2], _COUNTS, 16),
    "relative.m": ([1], _COUNTS, 16),
    "relative.which": (["kuo", "thom"], _WHICH, 4),
    "relative.t_grid": (["0", "1/4", "1/2", "3/4", "1"], _T_GRID, 64),
    "relative.deform_germ": (None, _PATH, None),
}


def _defaults() -> dict:
    config: dict = {}
    for key, (default, _, _) in CONFIG_SCHEMA.items():
        section, _, name = key.rpartition(".")
        (config.setdefault(section, {}) if section else config)[name] = copy.deepcopy(default)
    return config


DEFAULT_CONFIG = _defaults()


def load_config(path: Path | None, seed_flag: int | None) -> dict:
    """Merge the config file over the defaults; `--seed` wins over both."""
    config = _defaults()
    if path is not None:
        try:
            loaded = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise CliError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise CliError(f"config {path} must be a JSON object")
        for key, value in loaded.items():
            if key not in config:
                raise CliError(f"unknown config key {key!r}")
            if key == "relative":
                if not isinstance(value, dict):
                    raise CliError("config key 'relative' must be an object")
                for rkey, rvalue in value.items():
                    if rkey not in config["relative"]:
                        raise CliError(f"unknown config key 'relative.{rkey}'")
                    config["relative"][rkey] = rvalue
            else:
                config[key] = value
    if seed_flag is not None:
        config["seed"] = seed_flag
    _validate_config(config)
    return config


def _validate_config(config: dict) -> None:
    for key, (_, (test, kind), cap) in CONFIG_SCHEMA.items():
        section, _, name = key.rpartition(".")
        value = (config[section] if section else config)[name]
        if not test(value):
            raise CliError(f"config key {key!r} must be {kind}, got {value!r}")
        listed = isinstance(value, list)
        if cap is not None and (len(value) if listed else value) > cap:
            said = f"has {len(value)} entries" if listed else f"is {value}"
            raise CliError(f"config key {key!r} {said}, above its cap of {cap}")


def _require_seed(config: dict, why: str) -> int:
    if config["seed"] is None:
        raise CliError(f"a seed is required for {why}; pass --seed or set 'seed' in the config")
    return config["seed"]


def _scan_config(config: dict) -> ScanConfig:
    return ScanConfig(
        radii=tuple(config["radii"]),
        grid_per_angle=config["grid_per_angle"],
        hi_dim_directions=config["hi_dim_directions"],
        multistarts=config["multistarts"],
        seed=config["seed"],
        tolerance=config["tolerance"],
        zero_floor=config["zero_floor"],
    )


def _relative_config(config: dict) -> RelativeScanConfig:
    rc = config["relative"]
    return RelativeScanConfig(
        delta=rc["delta"],
        bands=rc["bands"],
        samples_per_band=rc["samples_per_band"],
        anchor_directions=rc["anchor_directions"],
        seed=config["seed"],
        tolerance=config["tolerance"],
        zero_floor=config["zero_floor"],
    )


# ---------------------------------------------------------------------------
# Input files


def _load_text(path: Path) -> str:
    try:
        return path.read_text()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc


def load_germ(path: Path) -> MapGerm:
    """Read a germ file: optional `nvars:`/`jet:` headers, one polynomial
    per line, `#` comments; the variable count is inferred when absent."""
    nvars: int | None = None
    jet: int | None = None
    lines: list[str] = []
    for lineno, raw in enumerate(_load_text(path).splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("nvars:"):
            nvars = int(line[len("nvars:"):].strip())
            if not 1 <= nvars <= MAX_VARIABLES:
                raise ParseError(f"nvars must be between 1 and {MAX_VARIABLES}", lineno, 1)
        elif line.startswith("jet:"):
            jet = int(line[len("jet:"):].strip())
        else:
            lines.append(line)
    if not lines:
        raise CliError(f"germ file {path} contains no components")
    if nvars is None:
        indices = [max_variable_index(text) for text in lines]
        known = [i for i in indices if i is not None]
        nvars = max(known) + 1 if known else 1
    return map_germ(tuple(parse_polynomial(text, nvars) for text in lines), jet)


def load_arcs(path: Path, nvars: int) -> list[Arc]:
    arcs = []
    for raw in _load_text(path).splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            arcs.append(parse_arc(line, nvars))
    return arcs


def _generated_arcs(config: dict, n: int) -> list[Arc]:
    seed = _require_seed(config, "generated arcs")
    return [
        arc_generator(
            subsystem_seed(seed, f"arc:{j}"),
            n,
            max_exponent=config["arc_max_exponent"],
            max_terms=config["arc_max_terms"],
            coeff_bound=config["arc_coeff_bound"],
        )
        for j in range(config["arc_count"])
    ]


# ---------------------------------------------------------------------------
# Canonical serialization


# Report keys are dataclass field names, except these renames, plus these
# derived properties of some classes.
_RENAMES = {"ord_kuo": "ord_K", "ord_thom": "ord_T"}
_DERIVED = {
    MapGerm: ("n", "p"),
    ProbeReport: ("all_equal",),
    lj.RatioProbe: ("stability_kuo_over_thom",),
}


@functools.cache
def _report_keys(cls: type) -> tuple[tuple[str, str], ...]:
    """(report key, attribute) pairs of a dataclass: its fields, then its derived properties."""
    names = [f.name for f in dataclasses.fields(cls)] + list(_DERIVED.get(cls, ()))
    return tuple((_RENAMES.get(name, name), name) for name in names)


def canonical(obj):
    """Make an object JSON-ready with reproducible float formatting.

    A dataclass becomes the dict of its fields (renamed by _RENAMES, with
    the properties in _DERIVED added), and a Polynomial its text form.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        if math.isnan(obj):
            return "nan"
        return float(f"{obj:.12g}")
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, np.floating):
        return canonical(float(obj))
    if isinstance(obj, (np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    if isinstance(obj, Polynomial):
        return obj.to_string()
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {key: canonical(getattr(obj, attr)) for key, attr in _report_keys(type(obj))}
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _float_str(x: float | None) -> str:
    if x is None:
        return "nan"
    return f"{x:.12g}"


def _sigma_dict(sigma: rel.SigmaSet) -> dict:
    if isinstance(sigma, rel.CoordinateSubspaceUnion):
        return {
            "variant": "subspaces",
            "description": sigma.describe(),
            "distance_method": "exact",
        }
    return {
        "variant": "zeros",
        "description": sigma.describe(),
        "distance_method": f"penalized projection, residual tolerance {PROJECTION_TOL:g}",
    }


def _scan_csv(scan: lj.RadialScan) -> str:
    lines = ["radius,min_value"]
    for r, v in zip(scan.radii, scan.min_values):
        lines.append(f"{_float_str(r)},{_float_str(v)}")
    return "\n".join(lines) + "\n"


def _report_base(command: str, config: dict) -> dict:
    return {
        "schema": 1,
        "tool": {"name": "kuothom", "version": __version__},
        "command": command,
        "config": config,
        "caveats": [CAVEAT_NUMERICAL],
    }


def _emit(out_dir: Path, stem: str, report: dict, csvs: dict[str, str]) -> dict:
    """Write the CSVs and the report; return the report in its written, canonical form."""
    out_dir.mkdir(parents=True, exist_ok=True)
    names = {}
    for name, content in csvs.items():
        fname = f"{stem}_{name}.csv"
        (out_dir / fname).write_text(content)
        names[name] = fname
    report["csv_files"] = names
    path = out_dir / f"{stem}_report.json"
    written = canonical(report)
    path.write_text(json.dumps(written, sort_keys=True, indent=2) + "\n")
    for fname in names.values():
        print(f"wrote {out_dir / fname}")
    print(f"wrote {path}")
    return written


# ---------------------------------------------------------------------------
# Command bodies


def _analyze_results(germ: MapGerm, config: dict, cfg: ScanConfig) -> tuple[dict, dict[str, str]]:
    cache = qt.build_minors(germ)
    names = variable_names(germ.n)
    minors = {
        kind: [{"columns": [names[i] for i in cols], "polynomial": poly} for cols, poly in table]
        for kind, table in (("p_minors", cache.p_minors), ("thom_minors", cache.thom_minors))
    }
    symbolic = {"kuo_m2": qt.kuo_polynomial(germ, 2), "thom_m2": qt.thom_polynomial(germ, 2)}
    for r in config["r"]:
        lj.check_horn(r, config["wbar"], cfg)  # refuse an unusable horn before any scan
    conditions = lj.conditions_for(germ)
    scans = {c.scan: lj.scan_quantity(germ, c.quantity, c.m, cfg) for c in conditions}

    verdicts = []
    csvs: dict[str, str] = {}
    for r in config["r"]:
        horn = lj.check_kuo(germ, r, config["wbar"], cfg)
        csvs[f"scan_horn_r{r}"] = _scan_csv(horn.scan)
        at_r = [c.verdict(scans[c.scan], r, cfg) for c in conditions]
        at_r.insert(int(germ.p == 1), horn)  # the horn check follows kuiper-kuo, if there is one
        verdicts += at_r
    for name, scan in scans.items():
        csvs[f"scan_{name}"] = _scan_csv(scan)

    results = {
        "minors": minors,
        "symbolic": symbolic,
        "verdicts": verdicts,
    }
    if germ.p == 1:
        results["sufficiency_degree"] = lj.sufficiency_degree_estimate(scans["gradient"], config["r_max"], cfg)

    ratios = {}
    for m in config["m"]:
        try:
            ratios[str(m)] = lj.ratio_stability_probe(
                germ,
                m,
                radius=config["ratio_radius"],
                points=config["ratio_points"],
                seed=config["seed"],
            )
        except ValueError as exc:
            ratios[str(m)] = {"error": str(exc)}
    results["ratio_probes"] = ratios
    return results, csvs


def _arcs_results(germ: MapGerm, arcs: Sequence[Arc], ms: Sequence[int]) -> tuple[dict, dict[str, str]]:
    reports = equivalence_probes(germ, arcs, ms)
    csvs = {f"probe_m{rep.m}": probe_csv(rep) for rep in reports}
    return {"probes": reports}, csvs


def _raise_on_mismatch(results: dict, where: str) -> None:
    for probe in results["probes"]:
        if not probe["all_equal"]:
            raise InternalInconsistencyError(
                f"arc-order mismatch at m={probe['m']}: {probe['n_equal']} of "
                f"{probe['n_total']} arcs agree; see {where}"
            )


def cmd_analyze(germ_path: Path, config: dict, out: Path) -> int:
    germ = load_germ(germ_path)
    _require_seed(config, "sphere scans and ratio probes")
    results, csvs = _analyze_results(germ, config, _scan_config(config))
    report = _report_base("analyze", config)
    report["germ"] = germ
    report["results"] = results
    _emit(out, "analyze", report, csvs)
    return EXIT_OK


def cmd_arcs(germ_path: Path, arcs_path: Path | None, config: dict, out: Path) -> int:
    germ = load_germ(germ_path)
    if arcs_path is not None:
        arcs = load_arcs(arcs_path, germ.n)
        source = {"kind": "file", "path": str(arcs_path)}
    else:
        arcs = _generated_arcs(config, germ.n)
        source = {"kind": "generated", "count": len(arcs)}
    results, csvs = _arcs_results(germ, arcs, config["m"])
    report = _report_base("arcs", config)
    report["germ"] = germ
    report["arcs"] = {"source": source, "list": [a.to_string() for a in arcs]}
    report["results"] = results
    written = _emit(out, "arcs", report, csvs)
    _raise_on_mismatch(written["results"], str(out / "arcs_report.json"))
    return EXIT_OK


def cmd_relative(germ_path: Path, sigma_path: Path, config: dict, out: Path) -> int:
    germ = load_germ(germ_path)
    sigma = rel.parse_sigma(_load_text(sigma_path), germ.n)
    _require_seed(config, "relative distance-band scans")
    rcfg = _relative_config(config)
    rc = config["relative"]

    # the deformation table first: a missing file or a jet mismatch fails before any band scan
    results: dict = {}
    if rc["deform_germ"]:
        other = load_germ(Path(rc["deform_germ"]))
        r0, m0 = rc["r"][0], rc["m"][0]
        t_grid = [Fraction(entry) for entry in rc["t_grid"]]
        per_t = {}
        for which in rc["which"]:
            pairs = rel.check_compatibility(germ, other, r0, m0, which, sigma, t_grid, rcfg)
            per_t[which] = [{"t": t, "verdict": v} for t, v in pairs]
        results["compatibility"] = {
            "deform_germ": other,
            "r": r0,
            "m": m0,
            "per_t": per_t,
        }
    results["verdicts"] = [
        rel.check_relative(germ, which, r, m, sigma, rcfg)
        for which in rc["which"] for r in rc["r"] for m in rc["m"]
    ]
    alpha = rc["alpha_max"]
    results["ellipticity"] = {
        "kuo_generators": rel.sigma_elliptic_probe(qt.KUO.generators(germ), sigma, alpha, rcfg),
        "thom_generators": rel.sigma_elliptic_probe(qt.THOM.generators(germ), sigma, alpha, rcfg),
    }
    report = _report_base("relative", config)
    report["caveats"].append("Sigma coherence is assumed, not checked")
    report["germ"] = germ
    report["sigma"] = _sigma_dict(sigma)
    report["results"] = results
    _emit(out, "relative", report, {})
    return EXIT_OK


def cmd_example(config: dict, out: Path) -> int:
    """The built-in worked example: germ (x - y^2, x^2), full pipeline."""
    if config["seed"] is None:
        config = {**config, "seed": 7}
    germ = map_germ((parse_polynomial("x - y^2", 2), parse_polynomial("x^2", 2)))
    analyze, csvs = _analyze_results(germ, config, _scan_config(config))
    arcs = _generated_arcs(config, germ.n)
    arc_results, arc_csvs = _arcs_results(germ, arcs, config["m"])
    csvs.update(arc_csvs)
    sigma = rel.CoordinateSubspaceUnion(nvars=2, subspaces=((),))
    rcfg = _relative_config(config)
    rc = config["relative"]
    relative = {
        "sigma": _sigma_dict(sigma),
        "verdicts": [
            rel.check_relative(germ, which, rc["r"][0], rc["m"][0], sigma, rcfg) for which in rc["which"]
        ],
        "ellipticity": rel.sigma_elliptic_probe(qt.KUO.generators(germ), sigma, rc["alpha_max"], rcfg),
    }
    report = _report_base("example", config)
    report["germ"] = germ
    report["arcs"] = {"source": {"kind": "generated", "count": len(arcs)},
                      "list": [a.to_string() for a in arcs]}
    report["results"] = {"analyze": analyze, "arcs": arc_results, "relative": relative}
    written = _emit(out, "example", report, csvs)
    _raise_on_mismatch(written["results"]["arcs"], str(out / "example_report.json"))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing and dispatch


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="kuothom", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, germ: bool) -> None:
        if germ:
            p.add_argument("--germ", type=Path, required=True, help="germ file")
        p.add_argument("--config", type=Path, help="JSON config file")
        p.add_argument("--seed", type=int, help="master seed (overrides the config)")
        p.add_argument("--out", type=Path, default=Path("."), help="output directory")

    pa = sub.add_parser("analyze", help="minors, symbolic quantities, condition verdicts")
    common(pa, germ=True)

    pb = sub.add_parser("arcs", help="arc-order comparison of the two quantities")
    common(pb, germ=True)
    pb.add_argument("--arcs", type=Path, help="arc file (one arc per line); generated when absent")

    pc = sub.add_parser("relative", help="Sigma-relative verdicts, jets, compatibility")
    common(pc, germ=True)
    pc.add_argument("--sigma", type=Path, required=True, help="Sigma description file")

    pd = sub.add_parser("example", help="run the built-in worked example end to end")
    common(pd, germ=False)
    return parser


def run(args: argparse.Namespace) -> int:
    config = load_config(args.config, args.seed)
    if args.command == "analyze":
        return cmd_analyze(args.germ, config, args.out)
    if args.command == "arcs":
        return cmd_arcs(args.germ, args.arcs, config, args.out)
    if args.command == "relative":
        return cmd_relative(args.germ, args.sigma, config, args.out)
    if args.command == "example":
        return cmd_example(config, args.out)
    raise CliError(f"unknown command {args.command!r}")


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return run(args)
    except (JetMismatchError, UnsupportedSigmaError) as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except InternalInconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (CliError, ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def entry_point() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry_point()
