"""Seeded workload definitions and input generation.

Standard library only: the parent process generates nothing, the child
writes each batch's files before its timed region starts.  The same
(workload, seed, batch) always gives the same files, and every operation
gets inputs of its own, so no cache entry of the program (minor caches,
band samples, direction grids keyed by seed) is shared between two
operations, just as between two separate CLI processes.

A batch is the unit a run times: a fixed list of operations whose shapes
(variable count, component count, term counts, degrees) do not depend on
the seed, so that batch cost varies little from seed to seed.  The seed
draws the monomials, coefficients, Sigma sets and CLI seeds.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

VARS = ("x", "y", "z", "w")

# Relative deformations are checked at the CLI's default relative order r.
RELATIVE_R = 2


@dataclass(frozen=True)
class Op:
    """One CLI command on one generated input."""

    op_id: str
    command: str
    files: dict[str, str]  # file name -> content, written into the op directory
    args: tuple[str, ...]  # CLI arguments, with paths relative to the op directory
    oracle: bool = False  # check sampled arcs against the exact oracle
    compatibility: bool = False  # a deformation germ is given, so a compatibility table is due


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    shapes: str  # one line, for the result record


def _rng(seed: int, name: str) -> random.Random:
    digest = hashlib.sha256(f"perfbench\x1f{name}\x1f{seed}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _op_seed(seed: int, name: str) -> int:
    digest = hashlib.sha256(f"perfbench-cli\x1f{name}\x1f{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def _monomial(rng: random.Random, n: int, degree: int) -> tuple[int, ...]:
    mono = [0] * n
    for _ in range(degree):
        mono[rng.randrange(n)] += 1
    return tuple(mono)


def random_component(rng: random.Random, n: int, degrees: tuple[int, ...], coeff_bound: int = 5) -> dict:
    """A polynomial with one term per entry of `degrees` (distinct monomials)."""
    terms: dict[tuple[int, ...], int] = {}
    for degree in degrees:
        while True:
            mono = _monomial(rng, n, degree)
            if mono not in terms:
                break
        terms[mono] = rng.randint(1, coeff_bound) * rng.choice((1, -1))
    return terms


def format_polynomial(terms: dict) -> str:
    """Render {monomial: int coefficient} in the CLI's polynomial grammar."""
    chunks = []
    for mono, coeff in sorted(terms.items(), key=lambda kv: (-sum(kv[0]), tuple(-e for e in kv[0]))):
        factors = [VARS[i] if e == 1 else f"{VARS[i]}^{e}" for i, e in enumerate(mono) if e]
        body = "*".join(([str(abs(coeff))] if abs(coeff) != 1 else []) + factors)
        if chunks:
            chunks.append(("- " if coeff < 0 else "+ ") + body)
        else:
            chunks.append(("-" if coeff < 0 else "") + body)
    return " ".join(chunks)


def germ_file(components: list[dict], n: int) -> str:
    return f"nvars: {n}\n" + "".join(format_polynomial(c) + "\n" for c in components)


def random_germ(rng: random.Random, n: int, p: int, degrees: tuple[int, ...]) -> list[dict]:
    return [random_component(rng, n, degrees) for _ in range(p)]


# ---------------------------------------------------------------------------
# analyze


# One germ per variable count; the batch covers p = 1 .. n over the slots
# while keeping a seed-independent cost shape.
ANALYZE_SLOTS = ((2, 2), (3, 1), (4, 1))
ANALYZE_DEGREES = (1, 2, 3)
# Fewer multistarts and a coarser n <= 3 grid than the defaults (16, 720).
# A default-config batch takes 30-47 s, and the Nelder-Mead cost of one germ
# varies several-fold with the germ, so one batch per run spread wall_s by
# a third between seeds; at these settings a run holds six to eight batches.
ANALYZE_CONFIG = {"multistarts": 2, "grid_per_angle": 360}
# Band samples per band for relative (default 256; a zeros: Sigma caps it at 96).
RELATIVE_SAMPLES = 32


def analyze_batch(seed: int, batch: int) -> list[Op]:
    ops = []
    for k, (n, p) in enumerate(ANALYZE_SLOTS):
        name = f"analyze:{batch}:{k}"
        rng = _rng(seed, name)
        germ = random_germ(rng, n, p, ANALYZE_DEGREES)
        ops.append(Op(
            op_id=f"b{batch}-analyze-n{n}p{p}",
            command="analyze",
            files={"germ.txt": germ_file(germ, n), "config.json": json.dumps(ANALYZE_CONFIG) + "\n"},
            args=("analyze", "--germ", "germ.txt", "--config", "config.json",
                  "--seed", str(_op_seed(seed, name)), "--out", "out"),
        ))
    return ops


# ---------------------------------------------------------------------------
# arcs


# Every (n, p) with 2 <= n <= 4 and 1 <= p <= n, twice.
ARCS_SHAPES = tuple((n, p) for n in (2, 3, 4) for p in range(1, n + 1)) * 2
ARCS_DEGREES = (1, 2, 3, 4)
ARCS_M = [1, 2, 3, 5]
ARCS_ORACLE_OPS = 6  # operations of the first batch whose arcs the exact oracle samples


def arcs_batch(seed: int, batch: int) -> list[Op]:
    ops = []
    config = json.dumps({"m": ARCS_M}) + "\n"
    oracle = set()
    if batch == 0:
        oracle = set(_rng(seed, "arcs:oracle").sample(range(len(ARCS_SHAPES)), ARCS_ORACLE_OPS))
    for k, (n, p) in enumerate(ARCS_SHAPES):
        name = f"arcs:{batch}:{k}"
        rng = _rng(seed, name)
        germ = random_germ(rng, n, p, ARCS_DEGREES)
        ops.append(Op(
            op_id=f"b{batch}-arcs-{k}-n{n}p{p}",
            command="arcs",
            files={"germ.txt": germ_file(germ, n), "config.json": config},
            args=("arcs", "--germ", "germ.txt", "--config", "config.json",
                  "--seed", str(_op_seed(seed, name)), "--out", "out"),
            oracle=k in oracle,
        ))
    return ops


# ---------------------------------------------------------------------------
# relative


RELATIVE_N = 3
RELATIVE_DEGREES = (1, 2, 3)


def _zeros_sigma(rng: random.Random, n: int) -> str:
    """One hypersurface generator through the origin: a linear part plus
    higher terms, so the zero set is a smooth germ and projections converge."""
    gen = random_component(rng, n, (1, 2, 3))
    return "zeros: " + format_polynomial(gen) + "\n"


def _subspace_sigma(rng: random.Random, n: int) -> tuple[str, int]:
    """A union of coordinate subspaces that all omit one variable j; returns
    the Sigma text and j."""
    j = rng.randrange(n)
    others = [i for i in range(n) if i != j]
    rng.shuffle(others)
    if rng.random() < 0.5:
        subs = [others[:1], others[1:2]]
    else:
        subs = [sorted(others)]
    text = ", ".join("[" + ",".join(VARS[i] for i in sorted(s)) + "]" for s in subs)
    return f"subspaces: {text}\n", j


def deform(rng: random.Random, germ: list[dict], n: int, j: int, r: int) -> list[dict]:
    """f plus terms divisible by x_j^(r+1): every partial derivative of order
    <= r of the difference vanishes where x_j = 0, so the order-r jets of
    the pair agree on any Sigma inside {x_j = 0}."""
    out = []
    for comp in germ:
        extra = dict(comp)
        mono = list(_monomial(rng, n, rng.randint(0, 1)))
        mono[j] += r + 1
        key = tuple(mono)
        extra[key] = extra.get(key, 0) + rng.randint(1, 5) * rng.choice((1, -1))
        if extra[key] == 0:
            del extra[key]
        out.append(extra)
    return out


def relative_batch(seed: int, batch: int) -> list[Op]:
    n = RELATIVE_N
    ops = []
    name = f"relative:{batch}:zeros"
    rng = _rng(seed, name)
    germ = random_germ(rng, n, 2, RELATIVE_DEGREES)
    config = json.dumps({"relative": {"samples_per_band": RELATIVE_SAMPLES}}) + "\n"
    ops.append(Op(
        op_id=f"b{batch}-relative-zeros",
        command="relative",
        files={"germ.txt": germ_file(germ, n), "sigma.txt": _zeros_sigma(rng, n), "config.json": config},
        args=("relative", "--germ", "germ.txt", "--sigma", "sigma.txt", "--config", "config.json",
              "--seed", str(_op_seed(seed, name)), "--out", "out"),
    ))
    name = f"relative:{batch}:subspaces"
    rng = _rng(seed, name)
    germ = random_germ(rng, n, 2, RELATIVE_DEGREES)
    sigma, j = _subspace_sigma(rng, n)
    other = deform(rng, germ, n, j, RELATIVE_R)
    config = json.dumps({"relative": {"samples_per_band": RELATIVE_SAMPLES, "r": [RELATIVE_R],
                                      "deform_germ": "deform.txt"}}) + "\n"
    ops.append(Op(
        op_id=f"b{batch}-relative-subspaces",
        command="relative",
        files={"germ.txt": germ_file(germ, n), "sigma.txt": sigma,
               "deform.txt": germ_file(other, n), "config.json": config},
        args=("relative", "--germ", "germ.txt", "--sigma", "sigma.txt",
              "--config", "config.json", "--seed", str(_op_seed(seed, name)),
              "--out", "out"),
        compatibility=True,
    ))
    return ops


def numeric_batch(seed: int, batch: int) -> list[Op]:
    return analyze_batch(seed, batch) + relative_batch(seed, batch)


WORKLOADS = {
    "numeric": Workload(
        "numeric",
        "kuothom analyze on one germ per n = 2, 3, 4, then kuothom relative with a zeros: Sigma "
        "and with a subspaces: Sigma plus a jet-compatible deformation germ: every float path "
        "(sphere-scan grid and Nelder-Mead refinement, L-BFGS-B projections, band checks, exact jets)",
        f"analyze slots (n, p) {list(ANALYZE_SLOTS)}, term degrees {list(ANALYZE_DEGREES)}, "
        f"config {ANALYZE_CONFIG}; relative n = {RELATIVE_N}, p = 2, term degrees "
        f"{list(RELATIVE_DEGREES)}, r = {RELATIVE_R}, samples_per_band {RELATIVE_SAMPLES}",
    ),
    "arcs": Workload(
        "arcs",
        "kuothom arcs on 18 germs (n = 2..4, every p) with m = 1, 2, 3, 5: the exact valuation "
        "path only (compose_arc, ledger), no floats and no scipy",
        f"shapes (n, p) {list(ARCS_SHAPES)}, term degrees {list(ARCS_DEGREES)}, 50 generated arcs",
    ),
}

BATCHES = {"numeric": numeric_batch, "arcs": arcs_batch}


def batch_ops(workload: str, seed: int, batch: int) -> list[Op]:
    return BATCHES[workload](seed, batch)
