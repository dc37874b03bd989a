"""The benchmark's workloads: the CLI operations each one runs and the checks
applied to every operation's outputs.

Paths are relative to the repository root.  Every check raises CheckFailed
with a message naming the quantity that disagreed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_FILE = BENCH_DIR / "reference.json"
GOLDEN_DIR = Path("tests/data/golden_spectrum")
DESK_SPIN = "configs/desk_e010.json"
DESK_SPINLESS = "configs/desk_spinless_e020.json"
RUNG3 = "perfbench/configs/rung3.json"
RUNG4 = "perfbench/configs/rung4.json"
DESK_P_GRID = "axis=z;from=-0.5;to=0.5;steps=11"

ENERGY_ATOL = 1e-9        # dense or converged Lanczos energies, across machines
GOLDEN_ATOL = 1e-10       # the repository's own golden-spectrum tolerance
RESIDUAL_MAX = 1e-8
GRAM_DEVIATION_MAX = 1e-8


class CheckFailed(Exception):
    """An operation's output disagrees with its reference or with the physics."""


@dataclass(frozen=True)
class Op:
    config: str
    command: str
    extra: tuple[str, ...] = ()

    @property
    def name(self) -> str:
        return f"{Path(self.config).stem}/{self.command}"

    def argv(self, out_dir: Path, seed: int) -> list[str]:
        return [self.command, "--config", self.config, "--out", str(out_dir),
                "--seed", str(seed), *self.extra]


def _desk_ops(config: str, with_sectors: bool) -> list[Op]:
    ops = [Op(config, "model-check"),
           Op(config, "spectrum", ("--dump-vectors",)),
           Op(config, "sweep", ("--p-grid", DESK_P_GRID)),
           Op(config, "bounds")]
    if with_sectors:
        ops.append(Op(config, "sectors"))
    return ops


# At one BLAS thread this op raises LinAlgError (see README.md).  It runs once
# per run as an untimed probe: counted in attempted and failed, never timed.
DESK_SPIN_SWEEP = Op(DESK_SPIN, "sweep", ("--p-grid", DESK_P_GRID))

# the timed ops of one pass
WORKLOADS: dict[str, tuple[Op, ...]] = {
    "desk": tuple(op for op in _desk_ops(DESK_SPIN, True) + _desk_ops(DESK_SPINLESS, False)
                  if op != DESK_SPIN_SWEEP),
    "rung3": (Op(RUNG3, "spectrum"),),
    "rung4": (Op(RUNG4, "spectrum"),),
}
PROBES: dict[str, tuple[Op, ...]] = {"desk": (DESK_SPIN_SWEEP,), "rung3": (), "rung4": ()}
# Passes a --trace 0 run makes even past --seconds.  A desk pass is short and
# its time swings by a third from one pass to the next on a shared machine, so
# its median needs three; a rung pass is long, and a second one would not fit.
MIN_PASSES: dict[str, int] = {"desk": 3, "rung3": 1, "rung4": 1}

# untimed first operation of every run: loads the lazily imported code paths
WARMUP = Op(DESK_SPINLESS, "spectrum")


def workload_configs(workload: str) -> list[str]:
    return sorted({op.config for op in WORKLOADS[workload]})


# -- checks ---------------------------------------------------------------------


def _read_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except FileNotFoundError as err:
        raise CheckFailed(f"missing output {path.name}") from err


def _close(what: str, got, want, atol: float) -> None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape or not np.allclose(got, want, rtol=0.0, atol=atol):
        raise CheckFailed(f"{what}: got {got.tolist()}, want {want.tolist()} "
                          f"(atol {atol:g})")


def _equal(what: str, got, want) -> None:
    if got != want:
        raise CheckFailed(f"{what}: got {got!r}, want {want!r}")


def _true(what: str, cond: bool) -> None:
    if not cond:
        raise CheckFailed(what)


def _golden() -> tuple[dict, list[str]]:
    spectrum = json.loads((GOLDEN_DIR / "spectrum.json").read_text())
    csv = (GOLDEN_DIR / "spectrum.csv").read_text().splitlines()
    return spectrum, csv


def _expected(op: Op, refs: dict) -> dict:
    """Reference E(p), degeneracy and eigenvalues of the op's configuration."""
    stem = Path(op.config).stem
    if op.config == DESK_SPIN:
        golden, _ = _golden()
        return {"energy": golden["eigenvalues"][0], "degeneracy": golden["degeneracy"],
                "eigenvalues": golden["eigenvalues"], "atol": GOLDEN_ATOL}
    ref = refs[stem]
    return {"energy": ref["eigenvalues"][0], "degeneracy": ref["degeneracy"],
            "eigenvalues": ref["eigenvalues"], "atol": ENERGY_ATOL}


def check_model_check(op: Op, out: Path, refs: dict, ctx) -> None:
    rep = _read_json(out / "model_check.json")
    _true("form factor not normalized", rep["normalized"] is True)
    _true(f"omega_min = {rep['omega_min']} is not a mass gap", rep["omega_min"] > 0.0)
    _true(f"coupling diagnostic c0 = {rep['c0']} >= 1", rep["c0"] < 1.0)
    _true("decay integrals not finite",
          all(np.isfinite(v) for v in rep["decay_integrals"].values()))


def check_spectrum(op: Op, out: Path, refs: dict, ctx) -> None:
    want = _expected(op, refs)
    got = _read_json(out / "spectrum.json")
    _equal(f"{op.name} degeneracy", got["degeneracy"], want["degeneracy"])
    _close(f"{op.name} eigenvalues", got["eigenvalues"], want["eigenvalues"], want["atol"])
    _true(f"{op.name} residual norms {got['residual_norms']} above {RESIDUAL_MAX:g}",
          max(got["residual_norms"]) <= RESIDUAL_MAX)
    _true(f"{op.name} gap above the cluster not positive", got["gap_above"] > 0.0)
    if op.config == DESK_SPIN:
        _, golden_csv = _golden()
        csv = (out / "spectrum.csv").read_text().splitlines()
        _equal("spectrum.csv header", csv[0], golden_csv[0])
        _close("spectrum.csv row", [float(x) for x in csv[1].split(",")],
               [float(x) for x in golden_csv[1].split(",")], GOLDEN_ATOL)
    if "--dump-vectors" in op.extra:
        vecs = ctx.read_eigenvectors(out / "eigenvectors.bin")
        H = ctx.hamiltonian(op.config)
        vals = np.asarray(got["eigenvalues"])
        _equal("eigenvectors.bin shape", vecs.shape, (H.shape[0], len(vals)))
        gram = vecs.conj().T @ vecs
        _true("eigenvectors not orthonormal",
              np.abs(gram - np.eye(len(vals))).max() <= 1e-10)
        resid = np.linalg.norm(H @ vecs - vecs * vals[None, :], axis=0)
        _true(f"eigenvector residuals {resid.tolist()} above {RESIDUAL_MAX:g}",
              resid.max() <= RESIDUAL_MAX)


def check_sweep(op: Op, out: Path, refs: dict, ctx) -> None:
    want = _expected(op, refs)
    rows = _read_json(out / "sweep.json")["rows"]
    pz = np.linspace(-0.5, 0.5, 11)
    _close("sweep momenta", [r["pz"] for r in rows], pz, 1e-12)
    energies = np.array([r["E"] for r in rows])
    _close("sweep E(p) - E(-p)", energies - energies[::-1], np.zeros(len(rows)),
           ENERGY_ATOL)
    at_p = int(np.argmin(np.abs(pz - 0.4)))
    _close("sweep E at the config's p", energies[at_p], want["energy"], ENERGY_ATOL)
    _equal("sweep degeneracies", [r["degeneracy"] for r in rows],
           [want["degeneracy"]] * len(rows))
    _true("sweep gap Delta(p) not positive",
          all(r["delta"] is not None and r["delta"] > 0.0 for r in rows))
    stem = Path(op.config).stem
    if "sweep_energies" in refs.get(stem, {}):
        _close("sweep E(p)", energies, refs[stem]["sweep_energies"], ENERGY_ATOL)
    csv = (out / "sweep.csv").read_text().splitlines()
    _equal("sweep.csv rows", len(csv), len(rows) + 1)


def check_bounds(op: Op, out: Path, refs: dict, ctx) -> None:
    want = _expected(op, refs)
    rep = _read_json(out / "bound_report.json")
    ref = refs[Path(op.config).stem]["bounds"]
    _equal("bounds degeneracy", rep["degeneracy"], want["degeneracy"])
    if rep.get("spinless"):
        _true("spinless uniqueness check did not pass", rep["passed"] is True)
        _true("spinless uniqueness hypothesis does not hold",
              rep["hypothesis_holds"] is True)
        _close("uniqueness integral J(p)", rep["integral"], ref["integral"], 1e-8)
        return
    _close("bounds E(p)", rep["energy"], want["energy"], ENERGY_ATOL)
    _true(f"<N_f> = {rep['nf_expectation']} exceeds e^2 Theta = {rep['nf_bound']}",
          rep["nf_expectation"] <= rep["nf_bound"])
    _true("vacuum overlap below 1 - e^2 Theta",
          rep["vacuum_overlap_min"] >= rep["vacuum_overlap_lower_bound"])
    _true(f"vacuum Gram: a = {rep['a_value']}, deviation = {rep['gram_deviation']}",
          rep["a_value"] > 0.0 and rep["gram_deviation"] <= GRAM_DEVIATION_MAX)
    _close("photon integral Theta(p)", rep["photon_integral"], ref["photon_integral"], 1e-8)
    _close("coupling threshold", rep["coupling_threshold"], ref["coupling_threshold"], 1e-9)
    _equal("threshold binding", rep["threshold_binding"], ref["threshold_binding"])


def check_sectors(op: Op, out: Path, refs: dict, ctx) -> None:
    want = _expected(op, refs)
    rep = _read_json(out / "sector_report.json")
    _equal("sector winners", rep["winners"], [-0.5, 0.5])
    _true("sector check not ok", rep["ok"] is True)
    _equal("sectors degeneracy", rep["degeneracy"], want["degeneracy"])
    _close("winning sector energies",
           [rep["ground_energies"][str(z)] for z in rep["winners"]],
           [want["energy"]] * 2, ENERGY_ATOL)


CHECKS = {
    "model-check": check_model_check,
    "spectrum": check_spectrum,
    "sweep": check_sweep,
    "bounds": check_bounds,
    "sectors": check_sectors,
}


def load_references() -> dict:
    return json.loads(REFERENCE_FILE.read_text())
