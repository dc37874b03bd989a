"""The scripts under scripts/ stay on the package's API."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SRC_DIR = ROOT / "src"
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


@pytest.mark.parametrize("script", SCRIPTS, ids=[s.name for s in SCRIPTS])
def test_script_help(script):
    # a subprocess each: solver_crossover.py pins the BLAS threads at import
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC_DIR),
                                                                   os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(script), "--help"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "usage:" in proc.stdout


def test_convergence_ladder_bound_ratio():
    spec = importlib.util.spec_from_file_location(
        "convergence_ladder", ROOT / "scripts" / "convergence_ladder.py")
    ladder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ladder)
    # the 2-shell rung at N_max = n_max = 2
    cfg = ladder.desk_config(ladder.SHELL_LADDER[0], 0.1, (0.0, 0.0, 0.4))
    cache = {}
    dim, chk = ladder.bound_ratio(cfg, cache)
    assert dim == 90 and len(cache) == 1
    assert 0.0 < chk.nf_max and 0.0 < chk.ratio < 1.0 + chk.slack
