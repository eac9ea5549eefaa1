"""One workload run inside its own interpreter (spawned by run.py).

The child imports kuothom.cli, prints `ready` (the parent's set-up clock
stops there), then runs batches of operations one at a time, each through
`kuothom.cli.main` on freshly written inputs.  Only the `main` call is
timed.  It records its peak resident memory after the first batch and
after the last; then it checks every operation's outputs and writes a
JSON result file.

    python3 perfbench/child.py --workload arcs --seed 1 --seconds 10 \
        --min-batches 1 --max-batches 1000 --workdir DIR --result FILE [--trace]
    python3 perfbench/child.py --probe     # import, print ready, exit
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-batches", type=int, default=1)
    parser.add_argument("--max-batches", type=int, default=1)
    parser.add_argument("--workdir", type=lambda text: Path(text).resolve())
    parser.add_argument("--result", type=Path)
    parser.add_argument("--trace", action="store_true")
    return parser.parse_args(argv)


def run_op(cli, argv: list[str], op_dir: Path) -> tuple[int, float, str]:
    """Run one command in its directory, so that reports name the same
    relative paths on every run; returns (exit code, seconds, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.chdir(op_dir), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:  # an escaped exception is a failed operation, not a crashed run
            rc = -1
            traceback.print_exc(file=err)
        elapsed = time.perf_counter() - t0
    return rc, elapsed, err.getvalue()


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    import kuothom.cli as cli

    print("ready", flush=True)
    if args.probe:
        return 0

    import numpy
    import scipy

    from checker import check_op, report_digest
    from workloads import batch_ops

    rec = None
    if args.trace:
        import spans

        rec = spans.Recorder()
        spans.install(rec)

    ops_done = []
    batch_times: list[float] = []
    started = time.perf_counter()
    batch = 0
    while True:
        ops = batch_ops(args.workload, args.seed, batch)
        dirs = []
        for op in ops:
            op_dir = args.workdir / op.op_id
            shutil.rmtree(op_dir, ignore_errors=True)
            op_dir.mkdir(parents=True)
            for name, content in op.files.items():
                (op_dir / name).write_text(content)
            dirs.append(op_dir)
        total = 0.0
        for op, op_dir in zip(ops, dirs):
            if rec is not None:
                rec.active = True
            rc, elapsed, err = run_op(cli, list(op.args), op_dir)
            if rec is not None:
                rec.active = False
            total += elapsed
            ops_done.append((op, op_dir, batch, rc, elapsed, err))
        batch_times.append(total)
        if batch == 0:
            # the first batch is a fixed amount of work, so its peak does not
            # grow with the number of batches a faster program fits in a run
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        batch += 1
        if batch >= args.max_batches:
            break
        spent = time.perf_counter() - started
        if batch >= args.min_batches and spent + statistics.median(batch_times) > args.seconds:
            break

    run_peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    check_started = time.perf_counter()

    records = []
    for op, op_dir, b, rc, elapsed, err in ops_done:
        out_dir = op_dir / "out"
        failures = check_op(op.command, rc, out_dir, op_dir / "germ.txt", op.op_id,
                            expects_compatibility=op.compatibility, oracle=op.oracle)
        if failures and err.strip():
            failures.append("stderr: " + err.strip().splitlines()[-1])
        digest, size = report_digest(out_dir)
        records.append({
            "op_id": op.op_id,
            "batch": b,
            "command": op.command,
            "seconds": elapsed,
            "rc": rc,
            "failures": failures,
            "digest": digest,
            "report_bytes": size,
        })
        shutil.rmtree(op_dir, ignore_errors=True)

    result = {
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "batch_times": batch_times,
        "peak_rss_mb": peak_rss_mb,
        "run_peak_rss_mb": run_peak_rss_mb,
        "check_s": time.perf_counter() - check_started,
        "ops": records,
        "trace": None,
    }
    if rec is not None:
        result["trace"] = {
            "layers": rec.layer_times(),
            "counts": {name: rec.counts[name] for name in spans.COUNTERS},
            "sphere_total_s": rec.total_time("lojasiewicz.min_on_sphere"),
            "refine_total_s": rec.total_time("lojasiewicz.refine"),
            "spans": len(rec.names),
        }
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
