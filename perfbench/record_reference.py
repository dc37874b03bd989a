#!/usr/bin/env python3
"""Record the reference values the benchmark's output checks compare against.

    python3 perfbench/record_reference.py

Writes perfbench/reference.json.  Each reference is cross-checked once when
it is recorded, by an independent path:
- rung3 (dim 1938, dense by default) against the Lanczos solver;
- rung4 (dim 9690, Lanczos by default) against a second Lanczos seed;
- desk_spinless_e020 against the Lanczos solver.
The desk_e010 spectrum needs no entry: it is checked against the
repository's golden spectrum.  Run with BLAS pinned to one thread, as the
benchmark runs.
"""

from __future__ import annotations

import machine  # pins BLAS threads; must load before numpy

import json
import sys

import numpy as np

import harness
from workloads import (DESK_SPINLESS, ENERGY_ATOL, REFERENCE_FILE, RUNG3, RUNG4,
                       WORKLOADS, Op)

SEED = 7
CROSS_SEED = 8


def run(runner: harness.Runner, op: Op, seed: int = SEED) -> dict:
    runner.seed = seed
    out = harness.OUT_ROOT / "reference" / f"seed{seed}" / op.name
    result = runner.run_op(op, check=False, out_dir=out)
    if not result.ok:
        raise SystemExit(f"{op.name} failed while recording: {result.error}")
    name = {"spectrum": "spectrum.json", "sweep": "sweep.json",
            "bounds": "bound_report.json"}[op.command]
    return json.loads((out / name).read_text())


def spectrum_entry(got: dict) -> dict:
    return {"dimension": got["dimension"], "eigenvalues": got["eigenvalues"],
            "degeneracy": got["degeneracy"], "method": got["method"]}


def cross_check(what: str, entry: dict, other: dict, how: str) -> dict:
    diff = float(np.max(np.abs(np.subtract(entry["eigenvalues"], other["eigenvalues"]))))
    if diff > ENERGY_ATOL or entry["degeneracy"] != other["degeneracy"]:
        raise SystemExit(f"{what}: cross-check against {how} failed "
                         f"(max eigenvalue difference {diff:.3e})")
    return {"against": how, "max_eigenvalue_difference": diff,
            "degeneracy": other["degeneracy"]}


def lanczos_entry(runner: harness.Runner, config: str) -> dict:
    from pflab.spectra import detect_ground_cluster, solve_lowest

    H = runner.ctx.hamiltonian(config)
    result = solve_lowest(H, 6, seed=SEED, method="lanczos")
    return {"eigenvalues": result.eigenvalues.tolist(),
            "degeneracy": detect_ground_cluster(result).count}


def main() -> int:
    runner = harness.Runner("reference", SEED, refs={})
    refs: dict = {"recorded_with": machine.describe(SEED)}

    spinless = spectrum_entry(run(runner, Op(DESK_SPINLESS, "spectrum")))
    spinless["cross_check"] = cross_check(
        "desk_spinless_e020", spinless, lanczos_entry(runner, DESK_SPINLESS),
        f"lanczos seed {SEED}")
    desk = {op.name: op for op in WORKLOADS["desk"]}
    sweep = run(runner, desk["desk_spinless_e020/sweep"])
    spinless["sweep_energies"] = [r["E"] for r in sweep["rows"]]
    spinless["bounds"] = {"integral": run(runner, desk["desk_spinless_e020/bounds"])["integral"]}
    refs["desk_spinless_e020"] = spinless

    bounds = run(runner, desk["desk_e010/bounds"])
    refs["desk_e010"] = {"bounds": {k: bounds[k] for k in (
        "photon_integral", "coupling_threshold", "threshold_binding")}}

    rung3 = spectrum_entry(run(runner, Op(RUNG3, "spectrum")))
    rung3["cross_check"] = cross_check("rung3", rung3, lanczos_entry(runner, RUNG3),
                                       f"lanczos seed {SEED}")
    refs["rung3"] = rung3

    rung4 = spectrum_entry(run(runner, Op(RUNG4, "spectrum")))
    other = spectrum_entry(run(runner, Op(RUNG4, "spectrum"), CROSS_SEED))
    rung4["cross_check"] = cross_check("rung4", rung4, other,
                                       f"lanczos seed {CROSS_SEED}")
    refs["rung4"] = rung4

    REFERENCE_FILE.write_text(json.dumps(refs, indent=2) + "\n")
    print(f"wrote {REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
