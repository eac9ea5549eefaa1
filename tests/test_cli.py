"""End-to-end command tests, exit codes, and report serialization."""

import json
import math
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import kuothom
import kuothom.arcs
import kuothom.lojasiewicz
import kuothom.quantities
from kuothom import (
    CAVEAT_NUMERICAL,
    kuo_polynomial,
    map_germ,
    parse_polynomial,
    thom_polynomial,
)
from kuothom.cli import (
    CONFIG_SCHEMA,
    DEFAULT_CONFIG,
    InternalInconsistencyError,
    _raise_on_mismatch,
    canonical,
    load_config,
    load_germ,
    main,
)

FAST_CONFIG = {
    "m": [1, 2],
    "r": [1, 2],
    "r_max": 4,
    "radii": [0.1 * 2.0**-k for k in range(6)],
    "grid_per_angle": 120,
    "hi_dim_directions": 256,
    "multistarts": 4,
    "ratio_points": 200,
    "arc_count": 8,
    "relative": {"bands": 6, "samples_per_band": 64, "anchor_directions": 4},
}


@pytest.fixture()
def ws(tmp_path):
    (tmp_path / "config.json").write_text(json.dumps(FAST_CONFIG))
    return tmp_path


def germ_file(ws: Path, text: str, name: str = "germ.txt") -> Path:
    path = ws / name
    path.write_text(text)
    return path


def run_analyze(ws: Path, germ_text: str, *extra: str) -> int:
    germ = germ_file(ws, germ_text)
    return main(
        ["analyze", "--germ", str(germ), "--config", str(ws / "config.json"),
         "--seed", "7", "--out", str(ws / "out"), *extra]
    )


def read_report(ws: Path, stem: str) -> dict:
    return json.loads((ws / "out" / f"{stem}_report.json").read_text())


# -- analyze -------------------------------------------------------------------


def test_analyze_report_round_trips_symbolic_forms(ws):
    assert run_analyze(ws, "x - y^2\nx^2\n") == 0
    report = read_report(ws, "analyze")
    assert report["schema"] == 1
    assert CAVEAT_NUMERICAL in report["caveats"]
    assert report["config"]["seed"] == 7
    # components echo in descending graded order
    assert report["germ"] == {
        "components": ["-y^2 + x", "x^2"],
        "n": 2,
        "p": 2,
        "jet_degree": None,
    }
    germ = map_germ([parse_polynomial(t, 2) for t in ("x - y^2", "x^2")])
    symbolic = report["results"]["symbolic"]
    assert parse_polynomial(symbolic["kuo_m2"], 2) == kuo_polynomial(germ, 2)
    assert parse_polynomial(symbolic["thom_m2"], 2) == thom_polynomial(germ, 2)
    minors = report["results"]["minors"]
    assert minors["p_minors"] == [{"columns": ["x", "y"], "polynomial": "4*x*y"}]
    assert minors["thom_minors"] == []
    for fname in report["csv_files"].values():
        text = (ws / "out" / fname).read_text()
        assert text.startswith("radius,min_value\n") or text.startswith("arc_id")


def test_analyze_requires_a_seed(ws, capsys):
    germ = germ_file(ws, "x - y^2\n")
    code = main(["analyze", "--germ", str(germ), "--out", str(ws / "out")])
    assert code == 1
    assert "seed" in capsys.readouterr().err


def test_analyze_zero_map_fails_everything(ws):
    assert run_analyze(ws, "nvars: 2\n0\n") == 0
    report = read_report(ws, "analyze")
    verdicts = report["results"]["verdicts"]
    assert verdicts and all(not v["holds"] for v in verdicts)
    assert report["results"]["sufficiency_degree"] is None
    for entry in report["results"]["ratio_probes"].values():
        assert "error" in entry


def test_analyze_identity_map(ws):
    assert run_analyze(ws, "x\ny\n") == 0
    report = read_report(ws, "analyze")
    assert report["results"]["minors"]["thom_minors"] == []
    assert "sufficiency_degree" not in report["results"]
    conditions = [v["condition"] for v in report["results"]["verdicts"]]
    assert not any(c.startswith("kuiper") for c in conditions)


def test_analyze_scans_the_gradient_once(ws, monkeypatch):
    # kuiper-kuo at every r and the sufficiency degree read one gradient
    # scan: one grid evaluation (an array call) per sphere of the ladder
    calls = []
    real = kuothom.quantities.Quantity.value

    def counting(quantity, germ, m, x):
        if quantity is kuothom.quantities.GRADIENT and np.ndim(x) == 2:
            calls.append(len(x))
        return real(quantity, germ, m, x)

    monkeypatch.setattr(kuothom.quantities.Quantity, "value", counting)
    assert run_analyze(ws, "x^3 - 3*x*y^2\n") == 0
    assert len(calls) == len(FAST_CONFIG["radii"])
    assert read_report(ws, "analyze")["results"]["sufficiency_degree"] == 3


# -- germ files ------------------------------------------------------------------


def test_germ_file_comments_and_inference(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("# a comment\n\nx - y^2  # trailing\n")
    germ = load_germ(path)
    assert (germ.n, germ.p) == (2, 1)
    assert germ.components[0] == parse_polynomial("x - y^2", 2)


def test_germ_file_headers(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("nvars: 3\njet: 4\nx - y^2\n")
    germ = load_germ(path)
    assert (germ.n, germ.p) == (3, 1)
    assert germ.jet_degree == 4


def test_missing_germ_file_is_invalid_usage(ws, capsys):
    code = main(["analyze", "--germ", str(ws / "nope.txt"), "--seed", "1",
                 "--out", str(ws / "out")])
    assert code == 1
    assert "cannot read" in capsys.readouterr().err


def test_empty_germ_file_is_invalid_usage(ws, capsys):
    assert run_analyze(ws, "# only a comment\n") == 1
    assert "no components" in capsys.readouterr().err


def test_germ_parse_error_reports_position(ws, capsys):
    assert run_analyze(ws, "2x\n") == 1
    assert "line 1" in capsys.readouterr().err


def test_germ_and_arc_files_above_the_caps_are_refused(ws, capsys):
    # composing x^1500 along an arc recurses once per power, past Python's
    # recursion limit; the parser refuses it, and every input here, before
    # it is built
    arcs = ws / "arcs.txt"
    for germ_text, arc_text, message in (
        ("x^1500 + y^1500\n", "t; -t\n", "degree 1500 is above the cap of 256"),
        ("nvars: 1000000000\nx\n", "t\n", "nvars must be between 1 and 8 (line 1"),
        ("x1000000000\n", "t\n", "above the cap of 8 variables"),
        ("x - y^2\n", "t^1000000000; t\n", "degree 1000000000 is above the cap of 256"),
    ):
        germ = germ_file(ws, germ_text)
        arcs.write_text(arc_text)
        code = main(["arcs", "--germ", str(germ), "--arcs", str(arcs), "--out", str(ws / "out")])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not (ws / "out").exists()


# -- arcs -----------------------------------------------------------------------


def test_arcs_from_explicit_file(ws):
    germ = germ_file(ws, "nvars: 2\nx - y^2\n")
    arcs = ws / "arcs.txt"
    arcs.write_text("t^2; t\n")
    code = main(["arcs", "--germ", str(germ), "--arcs", str(arcs),
                 "--config", str(ws / "config.json"), "--out", str(ws / "out")])
    assert code == 0
    report = read_report(ws, "arcs")
    assert report["arcs"]["source"]["kind"] == "file"
    csv_m1 = (ws / "out" / report["csv_files"]["probe_m1"]).read_text()
    assert csv_m1 == "arc_id,ord_K,ord_T,equal\n0,1,1,true\n"


def test_arcs_generated_all_orders_equal(ws):
    germ = germ_file(ws, "x - y^2\nx^2\n")
    code = main(["arcs", "--germ", str(germ), "--config", str(ws / "config.json"),
                 "--seed", "7", "--out", str(ws / "out")])
    assert code == 0
    report = read_report(ws, "arcs")
    assert len(report["arcs"]["list"]) == 8
    for probe in report["results"]["probes"]:
        assert probe["all_equal"]
        assert probe["n_equal"] == probe["n_total"] == 8
    assert set(report["csv_files"]) == {"probe_m1", "probe_m2"}


def test_arcs_builds_one_ledger_per_arc(ws, monkeypatch):
    calls = []
    real = kuothom.arcs.ledger

    def counting(germ, arc):
        calls.append(arc)
        return real(germ, arc)

    monkeypatch.setattr(kuothom.arcs, "ledger", counting)
    (ws / "config.json").write_text(json.dumps({**FAST_CONFIG, "m": [1, 2, 3, 5]}))
    germ = germ_file(ws, "x*y - z^2\ny^3\n")
    code = main(["arcs", "--germ", str(germ), "--config", str(ws / "config.json"),
                 "--seed", "7", "--out", str(ws / "out")])
    assert code == 0
    report = read_report(ws, "arcs")
    assert [probe["m"] for probe in report["results"]["probes"]] == [1, 2, 3, 5]
    assert [arc.to_string() for arc in calls] == report["arcs"]["list"]


def test_arcs_empty_file(ws):
    germ = germ_file(ws, "nvars: 2\nx - y^2\n")
    arcs = ws / "arcs.txt"
    arcs.write_text("# none\n")
    code = main(["arcs", "--germ", str(germ), "--arcs", str(arcs),
                 "--config", str(ws / "config.json"), "--out", str(ws / "out")])
    assert code == 0
    report = read_report(ws, "arcs")
    assert report["results"]["probes"][0]["n_total"] == 0
    assert report["results"]["probes"][0]["all_equal"] is True


def test_order_mismatch_is_an_internal_error(ws, capsys, monkeypatch):
    broken = {"probes": [{"m": 1, "all_equal": False, "n_equal": 3, "n_total": 5, "rows": []}]}
    with pytest.raises(InternalInconsistencyError):
        _raise_on_mismatch(broken, "here")
    monkeypatch.setattr("kuothom.cli._arcs_results", lambda *a: (broken, {}))
    germ = germ_file(ws, "x - y^2\n")
    code = main(["arcs", "--germ", str(germ), "--seed", "1", "--out", str(ws / "out")])
    assert code == 3
    assert "internal inconsistency" in capsys.readouterr().err


# -- relative --------------------------------------------------------------------


def run_relative(ws: Path, sigma_text: str, germ_text: str = "nvars: 2\ny^2\n", config: dict | None = None) -> int:
    germ = germ_file(ws, germ_text)
    sigma = ws / "sigma.txt"
    sigma.write_text(sigma_text)
    cfg_path = ws / "config.json"
    if config is not None:
        cfg_path.write_text(json.dumps(config))
    return main(["relative", "--germ", str(germ), "--sigma", str(sigma),
                 "--config", str(cfg_path), "--seed", "7", "--out", str(ws / "out")])


def test_relative_axis_verdicts(ws):
    assert run_relative(ws, "subspaces: [x]\n") == 0
    report = read_report(ws, "relative")
    assert report["sigma"]["variant"] == "subspaces"
    verdicts = report["results"]["verdicts"]
    assert {v["condition"].split()[1] for v in verdicts} == {"kuo", "thom"}
    assert all(v["holds"] for v in verdicts)
    assert all(v["r"] == 2 and v["m"] == 1 for v in verdicts)
    assert "Sigma coherence is assumed, not checked" in report["caveats"]


def test_relative_origin_reduction_is_noted(ws):
    assert run_relative(ws, "subspaces: []\n") == 0
    report = read_report(ws, "relative")
    notes = [d for v in report["results"]["verdicts"] for d in v["diagnostics"]]
    assert any("non-relative" in d for d in notes)


def test_relative_jet_mismatch_exits_precondition(ws, capsys):
    other = germ_file(ws, "nvars: 2\ny^2 + x^2\n", name="other.txt")
    config = dict(FAST_CONFIG)
    config["relative"] = {**FAST_CONFIG["relative"], "deform_germ": str(other)}
    assert run_relative(ws, "subspaces: [x]\n", config=config) == 2
    assert "precondition violated" in capsys.readouterr().err


def test_relative_algebraic_sigma_cannot_check_jets(ws, capsys):
    other = germ_file(ws, "nvars: 2\ny^2 + x*y^3\n", name="other.txt")
    config = dict(FAST_CONFIG)
    config["relative"] = {**FAST_CONFIG["relative"], "deform_germ": str(other)}
    assert run_relative(ws, "zeros: x - y^2\n", config=config) == 2
    err = capsys.readouterr().err
    assert "precondition violated" in err
    assert "subspace" in err


def test_relative_compatibility_table(ws):
    other = germ_file(ws, "nvars: 2\ny^2 + x*y^3\n", name="other.txt")
    config = dict(FAST_CONFIG)
    config["relative"] = {
        **FAST_CONFIG["relative"],
        "deform_germ": str(other),
        "t_grid": ["0", "1/2", "1"],
    }
    assert run_relative(ws, "subspaces: [x]\n", config=config) == 0
    table = read_report(ws, "relative")["results"]["compatibility"]
    assert table["r"] == 2 and table["m"] == 1
    for which in ("kuo", "thom"):
        entries = table["per_t"][which]
        assert [e["t"] for e in entries] == ["0", "1/2", "1"]
        assert len({e["verdict"]["holds"] for e in entries}) == 1


@pytest.mark.parametrize(
    "sigma_text, other_text, code",
    [
        ("subspaces: [x]\n", None, 1),
        ("subspaces: [x]\n", "nvars: 2\ny^2 + x^2\n", 2),
        ("zeros: x - y^2\n", "nvars: 2\ny^2 + x*y^3\n", 2),
    ],
    ids=["missing-deform-file", "jet-mismatch", "algebraic-sigma"],
)
def test_relative_checks_preconditions_before_any_band_scan(ws, monkeypatch, sigma_text, other_text, code):
    calls = []
    real = kuothom.relative.check_relative

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(kuothom.relative, "check_relative", counting)
    other = ws / "other.txt" if other_text is None else germ_file(ws, other_text, name="other.txt")
    config = {**FAST_CONFIG, "relative": {**FAST_CONFIG["relative"], "deform_germ": str(other)}}
    assert run_relative(ws, sigma_text, config=config) == code
    assert calls == []
    assert not (ws / "out").exists()


# a 401-digit coefficient: exact arithmetic takes it, float() overflows
HUGE_GERM = f"1{'0' * 400}*x + y^2\n"


@pytest.mark.parametrize("command", ["analyze", "relative"])
def test_coefficient_outside_the_float_range_is_refused(ws, command, capsys):
    if command == "analyze":
        code = run_analyze(ws, HUGE_GERM)
    else:
        code = run_relative(ws, "subspaces: [x]\n", germ_text=HUGE_GERM)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: a coefficient lies outside the float range") and "Traceback" not in err
    assert not (ws / "out").exists()


def test_arcs_takes_a_coefficient_outside_the_float_range(ws):
    germ = germ_file(ws, HUGE_GERM)
    assert main(["arcs", "--germ", str(germ), "--config", str(ws / "config.json"),
                 "--seed", "7", "--out", str(ws / "out")]) == 0
    assert read_report(ws, "arcs")["results"]["probes"]


# -- argument and config validation -------------------------------------------------


def test_missing_required_flag_is_usage_error(ws, capsys):
    # argparse failures must map to exit 1, not its native exit 2
    assert main(["analyze", "--out", str(ws / "out")]) == 1
    assert "--germ" in capsys.readouterr().err


def test_unknown_command_is_usage_error(capsys):
    assert main(["bogus"]) == 1


def test_unknown_config_key(ws, capsys):
    (ws / "config.json").write_text(json.dumps({"grid": 10}))
    assert run_analyze(ws, "x\n") == 1
    assert "unknown config key" in capsys.readouterr().err


@pytest.mark.parametrize(
    "patch",
    [
        {"m": [0]},
        {"radii": []},
        {"tolerance": -1},
        {"relative": {"which": ["norm"]}},
        {"relative": {"t_grid": ["2"]}},
        {"seed": "seven"},
    ],
)
def test_invalid_config_values(ws, patch, capsys):
    (ws / "config.json").write_text(json.dumps(patch))
    germ = germ_file(ws, "x\n")
    code = main(["analyze", "--germ", str(germ), "--config", str(ws / "config.json"),
                 "--out", str(ws / "out")])
    assert code == 1


@pytest.mark.parametrize(
    "patch",
    [
        {"seed": True},
        {"arc_count": True},
        {"m": [True]},
        {"m": 2},
        {"relative": {"deform_germ": 5}},
        {"relative": {"t_grid": "1/2"}},
        {"radii": [1e300, 1e200, 1e100, 1.0]},
        {"ratio_radius": 1e300},
    ],
    ids=["seed-bool", "arc_count-bool", "m-bool-entry", "m-not-a-list", "deform_germ-number", "t_grid-string",
         "radii-above-1", "ratio_radius-above-1"],
)
def test_mistyped_config_values_are_refused(ws, patch, capsys):
    (ws / "config.json").write_text(json.dumps(patch))
    germ = germ_file(ws, "x\n")
    code = main(["arcs", "--germ", str(germ), "--config", str(ws / "config.json"), "--out", str(ws / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config key ")
    assert not (ws / "out").exists()


CAPPED = sorted(key for key, (_, _, cap) in CONFIG_SCHEMA.items() if cap is not None)


@pytest.mark.parametrize("key", CAPPED)
def test_values_above_a_cap_are_refused(ws, key, capsys):
    # one above the cap (of a list: one entry more): refused while the
    # config is read, before any work
    default, _, cap = CONFIG_SCHEMA[key]
    value = default[:1] * (cap + 1) if isinstance(default, list) else cap + 1
    section, _, name = key.rpartition(".")
    patch = {section: {name: value}} if section else {name: value}
    (ws / "config.json").write_text(json.dumps(patch))
    assert run_analyze(ws, "x - y^2\n") == 1
    assert f"above its cap of {cap}" in capsys.readouterr().err
    assert not (ws / "out").exists()


def test_defaults_are_valid_and_below_their_caps():
    assert set(CAPPED) == {
        "r_max", "grid_per_angle", "hi_dim_directions", "multistarts", "arc_count", "arc_max_exponent",
        "ratio_points", "relative.bands", "relative.samples_per_band", "relative.anchor_directions",
        "m", "r", "radii", "relative.r", "relative.m", "relative.which", "relative.t_grid",
    }
    for key in CAPPED:
        default, _, cap = CONFIG_SCHEMA[key]
        assert (len(default) if isinstance(default, list) else default) < cap
    assert load_config(None, None) == DEFAULT_CONFIG


def test_horn_bound_underflow_is_refused_before_any_scan(ws, monkeypatch, capsys):
    # at r = 110 the horn bound underflows to 0 at the smallest radius, and
    # the constrained descent divided by it; every r is checked first
    def no_scan(*args, **kwargs):
        raise AssertionError("a sphere was scanned")

    monkeypatch.setattr(kuothom.lojasiewicz, "min_on_sphere", no_scan)
    (ws / "config.json").write_text(json.dumps({"r": [1, 110], "grid_per_angle": 48, "multistarts": 2}))
    assert run_analyze(ws, "x*y\n") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: the horn bound") and "Traceback" not in err
    assert not (ws / "out").exists()


def test_config_merging_and_seed_override(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"seed": 1, "relative": {"bands": 5}}))
    config = load_config(path, seed_flag=2)
    assert config["seed"] == 2
    assert config["relative"]["bands"] == 5
    assert config["relative"]["delta"] == DEFAULT_CONFIG["relative"]["delta"]
    assert config["m"] == DEFAULT_CONFIG["m"]


# -- canonical serialization ----------------------------------------------------------


def test_canonical_floats():
    assert canonical(math.inf) == "inf"
    assert canonical(-math.inf) == "-inf"
    assert canonical(math.nan) == "nan"
    assert canonical(0.1234567890123456) == 0.123456789012
    assert canonical(1.0) == 1.0


def test_canonical_containers_and_numbers():
    assert canonical(Fraction(1, 3)) == "1/3"
    assert canonical(np.float64(0.5)) == 0.5
    assert canonical(np.int64(4)) == 4
    assert canonical(np.bool_(True)) is True
    assert canonical({"a": (1, 2)}) == {"a": [1, 2]}
    assert canonical(None) is None
    with pytest.raises(TypeError):
        canonical({1, 2})


def test_package_exports_resolve():
    for name in kuothom.__all__:
        assert getattr(kuothom, name, None) is not None, name


# -- the example command ---------------------------------------------------------------


def test_example_command(ws, capsys):
    code = main(["example", "--config", str(ws / "config.json"),
                 "--seed", "7", "--out", str(ws / "out")])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("wrote ") == len(read_report(ws, "example")["csv_files"]) + 1
    report = read_report(ws, "example")
    symbolic = report["results"]["analyze"]["symbolic"]
    germ = map_germ([parse_polynomial(t, 2) for t in ("x - y^2", "x^2")])
    assert parse_polynomial(symbolic["kuo_m2"], 2) == kuo_polynomial(germ, 2)
    assert all(p["all_equal"] for p in report["results"]["arcs"]["probes"])
    assert report["results"]["relative"]["sigma"]["description"] == "subspaces: []"


def test_example_defaults_seed_to_seven(ws):
    code = main(["example", "--config", str(ws / "config.json"), "--out", str(ws / "out")])
    assert code == 0
    assert read_report(ws, "example")["config"]["seed"] == 7


def _module_env() -> dict:
    src = str(Path(kuothom.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_python_m_cli_matches_in_process_main(ws):
    args = ["example", "--config", str(ws / "config.json"), "--seed", "7"]
    assert main(args + ["--out", str(ws / "in_process")]) == 0
    proc = subprocess.run([sys.executable, "-m", "kuothom.cli", *args, "--out", str(ws / "module")],
                          capture_output=True, text=True, env=_module_env())
    assert proc.returncode == 0, proc.stderr
    names = sorted(p.name for p in (ws / "in_process").iterdir())
    assert "example_report.json" in names
    assert sorted(p.name for p in (ws / "module").iterdir()) == names
    for name in names:
        assert (ws / "module" / name).read_bytes() == (ws / "in_process" / name).read_bytes()


_IMPORT_GATE = """
import sys

def loaded():
    print("loaded:", sorted(m for m in ("scipy.optimize", "scipy.stats") if m in sys.modules))

import kuothom
loaded()
import kuothom.cli as cli
loaded()
germ, config, out = sys.argv[1:]
common = ["--germ", germ, "--config", config, "--seed", "7", "--out"]
assert cli.main(["arcs", *common, out + "/arcs"]) == 0
loaded()
assert cli.main(["analyze", *common, out + "/analyze"]) == 0
loaded()
"""


def test_scipy_optimize_loads_at_the_first_descent_only(ws):
    # importing the package and its CLI, and an exact `arcs` run, leave
    # scipy.optimize and scipy.stats unloaded; the first sphere descent of
    # an n = 2 `analyze` loads scipy.optimize (and n = 2 never needs stats)
    germ = germ_file(ws, "x - y^2\nx^2\n")
    (ws / "config.json").write_text(json.dumps({**FAST_CONFIG, "grid_per_angle": 16, "multistarts": 1}))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_GATE, str(germ), str(ws / "config.json"), str(ws)],
                          capture_output=True, text=True, env=_module_env())
    assert proc.returncode == 0, proc.stderr
    marks = [line for line in proc.stdout.splitlines() if line.startswith("loaded:")]
    assert marks == ["loaded: []"] * 3 + ["loaded: ['scipy.optimize']"]


def test_console_script(tmp_path):
    exe = shutil.which("kuothom")
    assert exe, "console script should be installed"
    (tmp_path / "c.json").write_text(json.dumps(FAST_CONFIG))
    proc = subprocess.run(
        [exe, "example", "--seed", "7", "--out", str(tmp_path / "out"),
         "--config", str(tmp_path / "c.json")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "example_report.json").exists()
