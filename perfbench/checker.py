"""Output checker: decides whether one CLI operation failed.

An operation fails when it exits with a nonzero code, when its report is
missing or does not parse, or when its report breaks the Kuo/Thom
agreement the command is meant to show:

* analyze: the kuo-inequality and thom-inequality verdicts differ at some r;
* arcs: some row has ord_K != ord_T, or the independent exact oracle
  (the order of the even-m polynomial composed with the arc, against the
  m = 2 row) disagrees on a seeded sample of arcs;
* relative: the Kuo and Thom verdicts differ (also per t of the
  compatibility table), or an operation given a deformation germ has no
  compatibility table.

The checker runs outside the timed region.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

ORACLE_ARCS = 3  # arcs per operation checked against the exact oracle


def report_digest(out_dir: Path) -> tuple[str, int]:
    """sha256 over every file the operation wrote, and their total size."""
    h = hashlib.sha256()
    size = 0
    for path in sorted(out_dir.iterdir()) if out_dir.is_dir() else ():
        data = path.read_bytes()
        h.update(path.name.encode() + b"\0" + len(data).to_bytes(8, "big") + data)
        size += len(data)
    return h.hexdigest(), size


def load_report(out_dir: Path, command: str) -> tuple[dict | None, str | None]:
    path = out_dir / f"{command}_report.json"
    try:
        return json.loads(path.read_text()), None
    except FileNotFoundError:
        return None, f"report {path.name} is missing"
    except (OSError, json.JSONDecodeError) as exc:
        return None, f"report {path.name} does not parse: {exc}"


def _holds(verdicts: list[dict]) -> dict[str, bool]:
    return {v["condition"]: v["holds"] for v in verdicts}


def check_analyze(report: dict) -> list[str]:
    holds = _holds(report["results"]["verdicts"])
    problems = []
    for r in report["config"]["r"]:
        kuo = holds.get(f"kuo-inequality r={r}")
        thom = holds.get(f"thom-inequality r={r}")
        if kuo is None or thom is None:
            problems.append(f"kuo/thom inequality verdict missing at r={r}")
        elif kuo != thom:
            problems.append(f"kuo-inequality holds={kuo} but thom-inequality holds={thom} at r={r}")
    return problems


def _order(value) -> float:
    return math.inf if value == "inf" else value


def check_arcs(report: dict) -> list[str]:
    problems = []
    for probe in report["results"]["probes"]:
        bad = [row["arc_id"] for row in probe["rows"] if _order(row["ord_K"]) != _order(row["ord_T"])]
        if bad or not probe["all_equal"]:
            problems.append(f"m={probe['m']}: ord_K != ord_T on arcs {bad}")
    return problems


def oracle_sample(report: dict, op_id: str) -> list[int]:
    count = len(report["arcs"]["list"])
    rng = random.Random(op_id)
    return sorted(rng.sample(range(count), min(ORACLE_ARCS, count)))


def check_arcs_oracle(report: dict, germ_path: Path, op_id: str) -> list[str]:
    """compose_arc(kuo_polynomial(f, 2), arc).order, and the Thom analogue,
    against the m = 2 row of the report."""
    from kuothom import compose_arc, kuo_polynomial, parse_arc, thom_polynomial
    from kuothom.cli import load_germ

    rows = {p["m"]: p["rows"] for p in report["results"]["probes"]}
    if 2 not in rows:
        return ["oracle needs the m = 2 probe, which the report lacks"]
    germ = load_germ(germ_path)
    kuo2, thom2 = kuo_polynomial(germ, 2), thom_polynomial(germ, 2)
    problems = []
    for i in oracle_sample(report, op_id):
        arc = parse_arc(report["arcs"]["list"][i], germ.n)
        row = rows[2][i]
        want_k = compose_arc(kuo2, arc.components).order
        want_t = compose_arc(thom2, arc.components).order
        if _order(row["ord_K"]) != want_k or _order(row["ord_T"]) != want_t:
            problems.append(
                f"arc {i}: report ord_K={row['ord_K']} ord_T={row['ord_T']}, "
                f"oracle {want_k} and {want_t}"
            )
    return problems


def check_relative(report: dict, expects_compatibility: bool) -> list[str]:
    problems = []
    results = report["results"]
    by_key: dict[tuple, dict[str, bool]] = {}
    for v in results["verdicts"]:
        which = v["condition"].split()[1]
        by_key.setdefault((v["r"], v["m"]), {})[which] = v["holds"]
    for (r, m), sides in sorted(by_key.items()):
        if sides.get("kuo") != sides.get("thom"):
            problems.append(f"relative kuo/thom verdicts differ at r={r} m={m}: {sides}")
    compat = results.get("compatibility")
    if expects_compatibility:
        if compat is None:
            problems.append("compatibility table is missing")
        else:
            per_t = compat["per_t"]
            kuo = [e["verdict"]["holds"] for e in per_t.get("kuo", [])]
            thom = [e["verdict"]["holds"] for e in per_t.get("thom", [])]
            if not kuo or kuo != thom:
                problems.append(f"compatibility kuo/thom verdicts differ per t: {kuo} vs {thom}")
    return problems


def check_op(command: str, rc: int, out_dir: Path, germ_path: Path, op_id: str,
             expects_compatibility: bool = False, oracle: bool = True) -> list[str]:
    """Failure reasons of one operation; empty when it passed."""
    if rc != 0:
        return [f"exit code {rc}"]
    report, problem = load_report(out_dir, command)
    if report is None:
        return [problem]
    try:
        if command == "analyze":
            return check_analyze(report)
        if command == "arcs":
            problems = check_arcs(report)
            if oracle and not problems:
                problems = check_arcs_oracle(report, germ_path, op_id)
            return problems
        if command == "relative":
            return check_relative(report, expects_compatibility)
    except (KeyError, TypeError, IndexError) as exc:
        return [f"report lacks an expected field: {exc!r}"]
    return [f"no checker for command {command!r}"]
