"""Tests of the benchmark's own code: input generation, the output checker
and the span bookkeeping.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
from pathlib import Path

import pytest

import checker
import spans
import workloads
from kuothom.cli import EXIT_INVALID, EXIT_PRECONDITION, main

SEEDS = (0, 1, 7, 123)

# Small scan settings: acceptance of an input does not depend on them.
FAST = {
    "r": [1],
    "radii": [0.1 * 2.0**-k for k in range(4)],
    "grid_per_angle": 16,
    "hi_dim_directions": 16,
    "multistarts": 1,
    "ratio_points": 16,
    "arc_count": 4,
    "relative": {"bands": 4, "samples_per_band": 8, "anchor_directions": 1, "t_grid": ["0", "1"]},
}


def write_op(op: workloads.Op, op_dir: Path) -> list[str]:
    op_dir.mkdir(parents=True)
    for name, content in op.files.items():
        (op_dir / name).write_text(content)
    return list(op.args)


def run_cli(argv: list[str], op_dir: Path) -> int:
    with contextlib.chdir(op_dir), contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


def with_fast_config(argv: list[str], op_dir: Path) -> list[str]:
    """The operation's own config merged over FAST, passed as --config."""
    config = copy.deepcopy(FAST)
    if "--config" in argv:
        own = json.loads((op_dir / argv[argv.index("--config") + 1]).read_text())
        config["relative"].update(own.pop("relative", {}))
        config.update(own)
        i = argv.index("--config")
        argv = argv[:i] + argv[i + 2:]
    path = op_dir / "fast.json"
    path.write_text(json.dumps(config))
    return argv + ["--config", str(path)]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_files(workload):
    for seed in SEEDS:
        for batch in (0, 1):
            first = workloads.batch_ops(workload, seed, batch)
            again = workloads.batch_ops(workload, seed, batch)
            assert [(op.op_id, op.files, op.args) for op in first] == [
                (op.op_id, op.files, op.args) for op in again
            ]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_operations_get_distinct_inputs(workload):
    seen = set()
    for batch in (0, 1, 2):
        for op in workloads.batch_ops(workload, 5, batch):
            key = (op.files["germ.txt"], op.args[op.args.index("--seed") + 1])
            assert key not in seen
            seen.add(key)
    other = workloads.batch_ops(workload, 6, 0)
    assert [op.files for op in other] != [op.files for op in workloads.batch_ops(workload, 5, 0)]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_cli_accepts_every_generated_input(workload, tmp_path):
    for seed in SEEDS:
        for op in workloads.batch_ops(workload, seed, 0):
            op_dir = tmp_path / f"{seed}-{op.op_id}"
            argv = with_fast_config(write_op(op, op_dir), op_dir)
            rc = run_cli(argv, op_dir)
            assert rc not in (EXIT_INVALID, EXIT_PRECONDITION), (seed, op.op_id, op.files)
            assert rc == 0


def test_deformations_agree_on_sigma_to_order_r():
    from kuothom import jets_equal_on_sigma, parse_sigma

    for seed in SEEDS:
        op = workloads.relative_batch(seed, 0)[1]
        assert op.compatibility
        f_text, g_text = op.files["germ.txt"], op.files["deform.txt"]
        assert f_text != g_text
        sigma = parse_sigma(op.files["sigma.txt"], workloads.RELATIVE_N)
        f = _germ_from_text(f_text)
        g = _germ_from_text(g_text)
        assert jets_equal_on_sigma(f, g, workloads.RELATIVE_R, sigma)


def _germ_from_text(text: str):
    from kuothom import map_germ, parse_polynomial

    lines = text.splitlines()
    n = int(lines[0].split(":")[1])
    return map_germ(parse_polynomial(line, n) for line in lines[1:])


# ---------------------------------------------------------------------------
# checker


@pytest.fixture()
def arcs_run(tmp_path):
    op = workloads.arcs_batch(3, 0)[4]
    op_dir = tmp_path / "op"
    rc = run_cli(write_op(op, op_dir), op_dir)
    return op, op_dir, rc


def _rewrite(path: Path, edit) -> None:
    report = json.loads(path.read_text())
    edit(report)
    path.write_text(json.dumps(report))


def test_checker_passes_a_real_arcs_report(arcs_run):
    op, op_dir, rc = arcs_run
    assert rc == 0
    assert checker.check_op("arcs", rc, op_dir / "out", op_dir / "germ.txt", op.op_id) == []


def test_checker_fails_an_edited_ord_t(arcs_run):
    op, op_dir, rc = arcs_run
    path = op_dir / "out" / "arcs_report.json"

    def edit(report):
        row = report["results"]["probes"][0]["rows"][0]
        row["ord_T"] = 1000

    _rewrite(path, edit)
    assert checker.check_op("arcs", rc, op_dir / "out", op_dir / "germ.txt", op.op_id)


def test_oracle_catches_orders_edited_consistently(arcs_run):
    op, op_dir, rc = arcs_run
    path = op_dir / "out" / "arcs_report.json"
    report = json.loads(path.read_text())
    i = checker.oracle_sample(report, op.op_id)[0]

    def edit(report):
        probe = next(p for p in report["results"]["probes"] if p["m"] == 2)
        row = probe["rows"][i]
        row["ord_K"] = row["ord_T"] = 999

    _rewrite(path, edit)
    problems = checker.check_op("arcs", rc, op_dir / "out", op_dir / "germ.txt", op.op_id)
    assert problems and "oracle" in problems[0]


def test_checker_fails_missing_or_broken_reports(arcs_run, tmp_path):
    op, op_dir, rc = arcs_run
    assert checker.check_op("arcs", 3, op_dir / "out", op_dir / "germ.txt", op.op_id) == ["exit code 3"]
    assert checker.check_op("arcs", 0, tmp_path / "nowhere", op_dir / "germ.txt", op.op_id)
    (op_dir / "out" / "arcs_report.json").write_text("{not json")
    assert checker.check_op("arcs", 0, op_dir / "out", op_dir / "germ.txt", op.op_id)


def _analyze_report(kuo: bool, thom: bool) -> dict:
    verdicts = []
    for r in (1, 2):
        verdicts.append({"condition": f"thom-inequality r={r}", "holds": thom})
        verdicts.append({"condition": f"kuo-inequality r={r}", "holds": kuo})
    return {"config": {"r": [1, 2]}, "results": {"verdicts": verdicts}}


def test_checker_fails_a_flipped_analyze_verdict(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    report = _analyze_report(True, True)
    (out / "analyze_report.json").write_text(json.dumps(report))
    assert checker.check_op("analyze", 0, out, out / "germ.txt", "op") == []
    report["results"]["verdicts"][1]["holds"] = False
    (out / "analyze_report.json").write_text(json.dumps(report))
    assert checker.check_op("analyze", 0, out, out / "germ.txt", "op")


def _relative_report(kuo: bool, thom: bool, compat: bool) -> dict:
    verdicts = [
        {"condition": f"relative {w} bound r=2 m=1", "r": 2, "m": 1, "holds": h}
        for w, h in (("kuo", kuo), ("thom", thom))
    ]
    results = {"verdicts": verdicts}
    if compat:
        results["compatibility"] = {"per_t": {
            w: [{"t": "0", "verdict": {"holds": True}}] for w in ("kuo", "thom")
        }}
    return {"results": results}


def test_checker_fails_flipped_or_incomplete_relative_reports():
    assert checker.check_relative(_relative_report(True, True, True), True) == []
    assert checker.check_relative(_relative_report(True, True, False), False) == []
    assert checker.check_relative(_relative_report(True, False, True), True)
    assert checker.check_relative(_relative_report(True, True, False), True)
    flipped = _relative_report(False, False, True)
    flipped["results"]["compatibility"]["per_t"]["thom"][0]["verdict"]["holds"] = False
    assert checker.check_relative(flipped, True)


def test_report_digest_sees_every_byte(arcs_run):
    op, op_dir, rc = arcs_run
    out = op_dir / "out"
    digest, size = checker.report_digest(out)
    assert size == sum(p.stat().st_size for p in out.iterdir())
    csv = next(out.glob("*.csv"))
    csv.write_text(csv.read_text() + " ")
    assert checker.report_digest(out)[0] != digest


# ---------------------------------------------------------------------------
# spans


def test_self_times_partition_the_outer_span():
    rec = spans.Recorder()
    rec.names = ["cli.main", "lojasiewicz.min_on_sphere", "lojasiewicz.refine", "quantities.vector"]
    rec.parents = [-1, 0, 1, 1]
    rec.starts = [0.0, 1.0, 2.0, 5.0]
    rec.ends = [10.0, 8.0, 4.0, 6.0]
    layers = rec.layer_times()
    assert layers["cli.command_s"] == pytest.approx(3.0)
    assert layers["lojasiewicz.sphere_s"] == pytest.approx(4.0)
    assert layers["lojasiewicz.refine_s"] == pytest.approx(2.0)
    assert layers["quantities.vector_s"] == pytest.approx(1.0)
    assert sum(layers.values()) == pytest.approx(10.0)
    assert rec.total_time("lojasiewicz.min_on_sphere") == pytest.approx(7.0)


def test_every_span_maps_to_a_layer():
    assert set(spans.LAYER_OF_SPAN.values()) == set(spans.SELF_TIME_LAYERS)


# ---------------------------------------------------------------------------
# result shape


def test_results_name_exactly_the_declared_metrics():
    import run

    declared = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    child = {
        "batch_times": [2.0, 1.0, 3.0],
        "peak_rss_mb": 100.0,
        "ops": [{"failures": [], "report_bytes": 10}],
        "trace": {
            "layers": {name: 0.5 for name in spans.SELF_TIME_LAYERS},
            "counts": {name: 1 for name in spans.COUNTERS},
            "sphere_total_s": 2.0,
            "refine_total_s": 1.5,
            "spans": 4,
        },
    }
    timed = run.timed_metrics(child, [1.0, 1.2, 1.1])
    assert set(timed) == {m["name"] for m in declared["end_to_end"]}
    assert timed["wall_s"]["value"] == 2.0 and timed["setup_s"]["value"] == pytest.approx(1.1)
    layered = run.layer_metrics(child, child, "import time:      5 |    1200000 | kuothom.cli\n")
    assert set(layered) == {m["name"] for m in declared["per_layer"]}
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    for name, value in {**timed, **layered}.items():
        assert value["unit"] == units[name], name
    assert layered["setup.import_s"]["value"] == pytest.approx(1.2)
    assert layered["trace.uncovered_s"]["value"] == pytest.approx(
        6.0 - 0.5 * len(spans.SELF_TIME_LAYERS))
