"""Golden report bytes: a refactor must leave every report and CSV unchanged.

Each case runs one CLI command through `main` on the committed inputs in
tests/golden/inputs (with small scan settings) and compares every file it
writes, byte for byte, with the committed copy in tests/golden/<case>/.
The commands run from tests/golden, so the relative `deform_germ` path
recorded in the relative report is the same on every machine.

A change that alters reports on purpose regenerates the files with

    PYTHONPATH=src python tests/test_golden.py

and says in CHANGES.md which files changed and why.
"""

import os
import shutil
import sys
from pathlib import Path

import pytest

from kuothom.cli import main

GOLDEN = Path(__file__).parent / "golden"
SEED = "11"

CASES = {
    "analyze_n2p2": ["analyze", "--germ", "inputs/germ_n2p2.txt"],
    "analyze_n3p1": ["analyze", "--germ", "inputs/germ_n3p1.txt"],
    "analyze_n4p1": ["analyze", "--germ", "inputs/germ_n4p1.txt"],
    "arcs_n2p1": ["arcs", "--germ", "inputs/germ_arcs_n2p1.txt"],
    "arcs_n3p2": ["arcs", "--germ", "inputs/germ_arcs_n3p2.txt"],
    "arcs_n4p3": ["arcs", "--germ", "inputs/germ_arcs_n4p3.txt"],
    "relative_subspaces": ["relative", "--germ", "inputs/germ_relative.txt",
                           "--sigma", "inputs/sigma_subspaces.txt", "--config", "inputs/config_deform.json"],
    "relative_zeros": ["relative", "--germ", "inputs/germ_relative.txt", "--sigma", "inputs/sigma_zeros.txt"],
    "example": ["example"],
}


def run_case(name: str, out: Path) -> int:
    """Run one case from tests/golden, writing its files into `out`."""
    args = list(CASES[name])
    if "--config" not in args:
        args += ["--config", "inputs/config.json"]
    return main(args + ["--seed", SEED, "--out", str(out)])


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report_bytes(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(GOLDEN)
    assert run_case(name, tmp_path) == 0, capsys.readouterr().err
    expected = GOLDEN / name
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(p.name for p in expected.iterdir())
    for fname in written:
        assert (tmp_path / fname).read_bytes() == (expected / fname).read_bytes(), fname


if __name__ == "__main__":
    os.chdir(GOLDEN)
    for case in sorted(CASES):
        shutil.rmtree(case, ignore_errors=True)
        if run_case(case, Path(case)) != 0:
            sys.exit(f"case {case} failed")
