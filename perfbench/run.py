"""kuothom benchmark: the real CLI on seeded workloads, end to end and per layer.

    python3 perfbench/run.py --workload {numeric,arcs} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  Each run spawns its own child interpreters
(perfbench/child.py) with BLAS/OpenMP capped at one thread; a child runs
one CLI operation at a time (a closed loop with one client) on inputs
generated from the seed (perfbench/workloads.py).

--trace 0 measures the end-to-end metrics with tracing off:
  wall_s       median over batches of the time to run one batch of the
               workload's operations through kuothom.cli.main, reports
               written; batches repeat until --seconds is spent (at least one)
  setup_s      median of several spawns: seconds from spawning a child
               interpreter until kuothom.cli is imported and ready
  peak_rss_mb  peak resident memory of the workload's child during its
               first batch (the whole run's peak is in the record)

--trace 1 runs a fixed number of batches twice, untraced and traced
(perfbench/spans.py), and reports the per-layer metrics: self times that,
with trace.uncovered_s, add up to the traced wall time; exact work counts;
the tracing overhead; import times from -X importtime.

The last line of standard output is the JSON result
{"correct", "attempted", "failed", "metrics"}; the line before it is the
run record (seed, machine facts, versions, per-operation times and
failures).  Reports are checked by perfbench/checker.py.  Report digests
and work counts are kept per source fingerprint under perfbench/.work, and
a later run with the same seed and sources must reproduce them exactly.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

sys.path.insert(0, str(BENCH))

from spans import SELF_TIME_LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SPAWNS = 4  # set-up samples per timed run: 3 probes plus the workload child
TRACE_BATCHES = {"numeric": 3, "arcs": 2}
RUN_LIMIT = 170.0  # seconds a whole run may take before its children are killed
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

# Work counts that must repeat exactly between runs of the same sources.
EXACT_COUNTS = (
    "lojasiewicz.refine.nfev",
    "lojasiewicz.grid.points",
    "arcs.ledger.count",
    "poly.compose_arc.calls",
    "relative.projection.nfev",
    "relative.band.samples",
    "quantities.build_minors.misses",
)


# Counters reported as they are; the rest only feed the ratios below.
COUNT_METRICS = (
    "lojasiewicz.sphere.count",
    "lojasiewicz.refine.runs",
    "lojasiewicz.refine.nfev",
    "lojasiewicz.grid.points",
    "quantities.scalar.calls",
    "poly.eval_float.calls",
    "quantities.vector.points",
    "quantities.build_minors.misses",
    "arcs.ledger.count",
    "poly.compose_arc.calls",
    "relative.distance.points",
    "relative.projection.nfev",
    "relative.band.samples",
)


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for name in THREAD_ENV:
        env[name] = "1"
    return env


def spawn(args: list[str], stderr_path: Path, deadline: float,
          importtime: bool = False) -> tuple[subprocess.Popen, float]:
    """Start a child; returns (process, seconds until it printed ready)."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + [str(BENCH / "child.py")] + args
    with stderr_path.open("wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=err)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != b"ready":
        finish(proc, deadline)
        raise BenchError(f"child did not start: {stderr_path.read_text()[-2000:]}")
    return proc, ready


def finish(proc: subprocess.Popen, deadline: float) -> int:
    """Wait for a child until the run's deadline; kill it otherwise."""
    try:
        proc.communicate(timeout=max(0.1, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("child timed out") from None
    return proc.returncode


def setup_probe(tmp: Path, deadline: float) -> float:
    proc, ready = spawn(["--probe"], tmp / "probe.err", deadline)
    if finish(proc, deadline) != 0:
        raise BenchError("set-up probe failed")
    return ready


def run_child(workload: str, seed: int, tmp: Path, deadline: float, tag: str, seconds: float,
              min_batches: int, max_batches: int, trace: bool) -> tuple[dict, float, str]:
    result_path = tmp / f"{tag}.json"
    err_path = tmp / f"{tag}.err"
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--min-batches", str(min_batches), "--max-batches", str(max_batches),
            "--workdir", str(tmp / f"{tag}-ops"), "--result", str(result_path)]
    proc, ready = spawn(args + (["--trace"] if trace else []), err_path, deadline, importtime=trace)
    rc = finish(proc, deadline)
    if rc != 0 or not result_path.is_file():
        raise BenchError(f"child {tag} failed (exit {rc}): {err_path.read_text()[-2000:]}")
    return json.loads(result_path.read_text()), ready, err_path.read_text()


def import_times(stderr: str) -> dict[str, float]:
    """Cumulative seconds per module from `python -X importtime` output."""
    out = {}
    for line in stderr.splitlines():
        if line.startswith("import time:") and "|" in line:
            parts = [p.strip() for p in line[len("import time:"):].split("|")]
            if parts[1].isdigit():
                out[parts[2]] = int(parts[1]) / 1e6
    return out


def source_facts() -> dict:
    h = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {"src_sha256": h.hexdigest(), "src_lines": lines, "commit": commit}


def reconcile(state_path: Path, digests: dict[str, str], counts: dict[str, int] | None) -> list[str]:
    """Compare with what earlier runs of the same sources and seed recorded,
    then record anything new.  Returns the mismatches."""
    state = json.loads(state_path.read_text()) if state_path.is_file() else {"digests": {}, "counts": None}
    problems = []
    for op_id, digest in digests.items():
        old = state["digests"].setdefault(op_id, digest)
        if old != digest:
            problems.append(f"report bytes of {op_id} differ from an earlier run")
    if counts is not None:
        if state["counts"] is None:
            state["counts"] = counts
        elif state["counts"] != counts:
            diff = {k: (state["counts"].get(k), v) for k, v in counts.items() if state["counts"].get(k) != v}
            problems.append(f"exact work counts differ from an earlier run: {diff}")
    state_path.parent.mkdir(parents=True, exist_ok=True)
    tmp = state_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(state, sort_keys=True))
    tmp.replace(state_path)
    return problems


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed_metrics(result: dict, setups: list[float]) -> dict:
    return {
        "wall_s": metric(statistics.median(result["batch_times"]), "s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(result["peak_rss_mb"], "MB"),
    }


def layer_metrics(plain: dict, traced: dict, stderr: str) -> dict:
    """Per-layer metrics from an untraced and a traced child result."""
    trace = traced["trace"]
    counts = trace["counts"]
    layers = trace["layers"]
    wall = sum(traced["batch_times"])
    untraced_wall = sum(plain["batch_times"])
    imports = import_times(stderr)
    ops = traced["ops"]

    def frac(num: str, den: str) -> float:
        return counts[num] / counts[den] if counts[den] else 0.0

    metrics = {name: metric(layers[name], "s") for name in SELF_TIME_LAYERS}
    metrics.update({name: metric(counts[name], "count") for name in COUNT_METRICS})
    metrics.update({
        "lojasiewicz.grid_s": metric(trace["sphere_total_s"] - trace["refine_total_s"], "s"),
        "lojasiewicz.refine.win_frac": metric(frac("lojasiewicz.refine.wins", "lojasiewicz.refine.spheres"), "ratio"),
        "relative.projection.accept_frac": metric(
            frac("relative.projection.accepted", "relative.projection.attempts"), "ratio"),
        "cli.report_bytes": metric(sum(op["report_bytes"] for op in ops), "bytes"),
        "setup.import_s": metric(imports.get("kuothom.cli", 0.0), "s"),
        "setup.import.lojasiewicz_s": metric(imports.get("kuothom.lojasiewicz", 0.0), "s"),
        "trace.wall_s": metric(wall, "s"),
        "trace.untraced_wall_s": metric(untraced_wall, "s"),
        "trace.overhead_s": metric(wall - untraced_wall, "s"),
        "trace.uncovered_s": metric(wall - sum(layers.values()), "s"),
        "trace.spans": metric(trace["spans"], "count"),
        "bench.failed_frac": metric(sum(1 for op in ops if op["failures"]) / len(ops), "ratio"),
    })
    return metrics


def timed_run(workload: str, seed: int, seconds: float, tmp: Path,
              deadline: float) -> tuple[dict, dict, list[dict]]:
    setups = [setup_probe(tmp, deadline) for _ in range(SETUP_SPAWNS - 1)]
    result, ready, _ = run_child(workload, seed, tmp, deadline, "timed", seconds, 1, 10_000, trace=False)
    setups.append(ready)
    extra = {"versions": result["versions"], "batch_times": result["batch_times"],
             "check_s": result["check_s"], "setup_samples": setups,
             "run_peak_rss_mb": result["run_peak_rss_mb"]}
    return timed_metrics(result, setups), extra, result["ops"]


def traced_run(workload: str, seed: int, tmp: Path,
               deadline: float) -> tuple[dict, dict, list[dict], dict, list[str]]:
    batches = TRACE_BATCHES[workload]
    plain, _, _ = run_child(workload, seed, tmp, deadline, "untraced", 0.0, batches, batches, trace=False)
    traced, _, stderr = run_child(workload, seed, tmp, deadline, "traced", 0.0, batches, batches, trace=True)
    plain_digests = {op["op_id"]: op["digest"] for op in plain["ops"]}
    problems = [f"report bytes of {op['op_id']} change under tracing"
                for op in traced["ops"] if plain_digests.get(op["op_id"]) != op["digest"]]
    extra = {"versions": traced["versions"], "batch_times": traced["batch_times"],
             "untraced_batch_times": plain["batch_times"]}
    exact = {name: traced["trace"]["counts"][name] for name in EXACT_COUNTS}
    return layer_metrics(plain, traced, stderr), extra, traced["ops"], exact, problems


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="kuothom benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + RUN_LIMIT

    if not (SRC / "kuothom" / "cli.py").is_file():
        print(f"error: no kuothom sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    facts = source_facts()
    tmp = WORK / "runs" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        if args.trace:
            metrics, extra, ops, exact, problems = traced_run(args.workload, args.seed, tmp, deadline)
        else:
            metrics, extra, ops = timed_run(args.workload, args.seed, args.seconds, tmp, deadline)
            exact, problems = None, []
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    state = WORK / "state" / facts["src_sha256"][:16] / f"{args.workload}-{args.seed}.json"
    problems += reconcile(state, {op["op_id"]: op["digest"] for op in ops}, exact)
    failed = sum(1 for op in ops if op["failures"])
    workload = WORKLOADS[args.workload]
    record = {
        "workload": args.workload,
        "why": workload.why,
        "shapes": workload.shapes,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **facts,
        "nproc": os.cpu_count(),
        **extra,
        "exact_counts": exact,
        "consistency_problems": problems,
        "failures": {op["op_id"]: op["failures"] for op in ops if op["failures"]},
        "op_seconds": {op["op_id"]: op["seconds"] for op in ops},
    }
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
