"""The scripts under scripts/ stay on the package's API."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pflab.bounds import PHOTON_NUMBER_SLACK
from pflab.spectra import model_operators

ROOT = Path(__file__).parent.parent
SRC_DIR = ROOT / "src"
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def python(*args):
    # a subprocess each: solver_crossover.py pins the BLAS threads at import
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC_DIR),
                                                                   os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("script", SCRIPTS, ids=[s.name for s in SCRIPTS])
def test_script_help(script):
    assert "usage:" in python(str(script), "--help")


def test_solver_crossover_reads_the_desk_sector_blocks():
    # the first rows of matrices(): the desk blocks of the sector split
    code = f"""
import importlib.util
spec = importlib.util.spec_from_file_location(
    "solver_crossover", {str(ROOT / "scripts" / "solver_crossover.py")!r})
crossover = importlib.util.module_from_spec(spec)
spec.loader.exec_module(crossover)
rows = crossover.matrices()
for _ in range(3):
    source, H = next(rows)
    print(source, *H.shape, sep=",")
"""
    assert python("-c", code).splitlines() == [
        "desk sector +0.5,73,73", "desk sector +1.5,44,44", "desk sector +2.5,36,36"]


def test_solver_crossover_fits_one_cutoff_to_the_stored_table():
    # the 42 timed rows of BENCH_12.json, at 1, 2 and 6 pairs, fitted without
    # timing anything
    code = f"""
import importlib.util, json
spec = importlib.util.spec_from_file_location(
    "solver_crossover", {str(ROOT / "scripts" / "solver_crossover.py")!r})
crossover = importlib.util.module_from_spec(spec)
spec.loader.exec_module(crossover)
rows = json.loads(open({str(ROOT / "BENCH_12.json")!r}).read())["crossover"]["rows"]
print(json.dumps([len(rows), crossover.least_loss_cutoff(rows)]))
"""
    n_rows, fit = json.loads(python("-c", code))
    assert n_rows == 42
    assert (fit["lowest"], fit["below"]) == (156, 306)
    assert fit["lost_s"] == pytest.approx(2.19e-3, abs=0.01e-3)
    assert [row[:3] for row in fit["slower_rows"]] == [
        ["rung3 sector +2.5", 156, 1], ["rung4 sector +4.5", 330, 2],
        ["rung4 sector +4.5", 330, 6]]
    assert (fit["dense_max_dim"], fit["inside"]) == (300, True)
    assert fit["dense_max_dim_lost_s"] == fit["lost_s"]


def test_convergence_ladder_bound_ratio():
    spec = importlib.util.spec_from_file_location(
        "convergence_ladder", ROOT / "scripts" / "convergence_ladder.py")
    ladder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ladder)
    # the 2-shell rung at N_max = n_max = 2
    cfg = ladder.desk_config(ladder.SHELL_LADDER[0], 0.1, (0.0, 0.0, 0.4))
    dim, chk = ladder.bound_ratio(model_operators(cfg), cfg)
    assert dim == 90
    assert 0.0 < chk.nf_max and 0.0 < chk.ratio < 1.0 + PHOTON_NUMBER_SLACK


def test_term_digests_prints_one_line_per_term_and_matrix():
    config = ROOT / "configs" / "desk_e010.json"
    lines = python(str(ROOT / "scripts" / "term_digests.py"), str(config)).splitlines()
    terms = ["free_diag", "pf", "A[0]", "A[1]", "A[2]", "C", "sigma_B", "A2"]
    upper = ["free_diag", "pf", "A[0]", "C", "sigma_B", "A2", "pattern.indices",
             "pattern.indptr", "pattern.diagonal",
             *(f"pattern.positions[{k}]" for k in range(4))]
    want = [*terms, "hamiltonian(config)", "hamiltonian(off-axis)",
            *(f"sectors.upper.{name}" for name in upper),
            "sectors.labels", "sectors.starts", "sectors.leak_max",
            *(f"sectors.to_linear[{z}]" for z in ("-2.5", "-1.5", "-0.5", "+0.5", "+1.5", "+2.5")),
            *(f"sectors.upper_blocks[{z}]" for z in ("+0.5", "+1.5", "+2.5"))]
    assert [line.split()[:2] for line in lines] == [[str(config), name] for name in want]
    assert all(len(line.split()[2]) == 64 for line in lines)
