"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -v -s`` to see them).

The desk model used throughout: massive dispersion m_ph = 1, gaussian
cutoff lambda = 1, the shipped 4-shell axial mode set on [0, 3.4],
N_max = n_max = 2, momentum on the axis with |p| <= 0.5.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from pflab import bounds as bounds_mod
from pflab.cli import main as cli_main
from pflab.fock import axial_mode_set
from pflab.model import assemble_hamiltonian, build_basis, build_operators
from pflab.spectra import (
    detect_ground_cluster,
    gap_estimate,
    ground_sector_labels,
    model_operators,
    solve_lowest,
    solve_model,
    sweep_energy_curve,
)

from conftest import DESK_EDGES, make_config
from oracles import (FreeEnergyCurve, dense_sector_energies, field_energy, field_momentum,
                     number_operator, rotation_invariance_check)

CONFIG_DIR = Path(__file__).parent.parent / "configs"
COUPLINGS = (0.05, 0.1, 0.2)
DESK_P = (0.0, 0.0, 0.4)


def report(num, ok, text):
    print(f"criterion {num:>2}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num} failed: {text}"


@pytest.fixture(scope="module")
def desk_artifacts(desk_ms):
    """Cluster, energy curve, and photon integral per desk coupling."""
    out = {}
    for e in COUPLINGS:
        cfg = make_config(desk_ms, e=e, p=DESK_P)
        basis = build_basis(cfg)
        H = assemble_hamiltonian(cfg, basis)
        cluster = detect_ground_cluster(solve_lowest(H, 6))
        curve = sweep_energy_curve(model_operators(cfg), cfg)
        integral = bounds_mod.photon_number_integral(cfg, curve)
        out[e] = dict(cfg=cfg, basis=basis, H=H, cluster=cluster, curve=curve,
                      integral=integral)
    return out


def test_c01_free_theory_exactness(desk_ms):
    t0 = time.time()
    checks = []
    for p in ((0.0, 0.0, 0.0), DESK_P, (0.1, -0.2, 0.3)):
        cfg = make_config(desk_ms, e=0.0, p=p)
        cluster = detect_ground_cluster(solve_lowest(assemble_hamiltonian(cfg), 4))
        checks.append(abs(cluster.energy - 0.5 * np.dot(p, p)) <= 1e-12)
        checks.append(cluster.count == 2)
        spinless = cfg.at(with_spin=False)
        cl = detect_ground_cluster(solve_lowest(assemble_hamiltonian(spinless), 4))
        checks.append(abs(cl.energy - 0.5 * np.dot(p, p)) <= 1e-12)
        checks.append(cl.count == 1)
    elapsed = time.time() - t0
    report(1, all(checks) and elapsed < 1.0,
           f"E(p) = |p|^2/2 to 1e-12, degeneracy 2 (spin) / 1 (spinless) "
           f"[{elapsed:.2f} s]")


def test_c02_davidson_matches_dense_oracle(shipped_configs):
    t0 = time.time()
    worst = 0.0
    checked = 0
    for name, cfg in shipped_configs.items():
        basis = build_basis(cfg)
        if basis.dimension > 2000:
            continue
        H = assemble_hamiltonian(cfg, basis)
        dense = solve_lowest(H, 6, method="dense")
        davidson = solve_lowest(H, 6, method="davidson")
        worst = max(worst, float(np.max(np.abs(dense.eigenvalues
                                               - davidson.eigenvalues))))
        checked += 1
    elapsed = time.time() - t0
    report(2, checked >= 7 and worst <= 1e-10 and elapsed < 60.0,
           f"lowest-6 Davidson vs dense over {checked} shipped configs, "
           f"max |diff| = {worst:.2e} [{elapsed:.1f} s]")


def test_c03_twofold_degeneracy_and_gap(desk_artifacts):
    ok = True
    details = []
    for e, art in desk_artifacts.items():
        cluster = art["cluster"]
        scale = max(1.0, abs(cluster.energy))
        gap = gap_estimate(art["cfg"], art["curve"], 3.0, 61)
        rel = abs(cluster.gap_above - gap.delta_p) / gap.delta_p
        ok &= cluster.count == 2
        ok &= cluster.cluster_width < 1e-8 * scale
        ok &= rel <= 0.20
        details.append(f"e={e}: count={cluster.count} width={cluster.cluster_width:.1e} "
                       f"gap/delta off by {100 * rel:.1f}%")
    report(3, ok, "; ".join(details))


def test_c04_vacuum_gram_proportionality(desk_artifacts):
    ok = True
    details = []
    for e, art in desk_artifacts.items():
        gram = bounds_mod.vacuum_gram(art["cluster"], art["basis"])
        floor = 1.0 - e**2 * art["integral"].value
        ok &= gram.deviation < 1e-8
        ok &= gram.a_value > 0.0
        ok &= gram.a_value >= floor
        details.append(f"e={e}: |G-aI|={gram.deviation:.1e} a={gram.a_value:.6f} "
                       f">= {floor:.6f}")
    report(4, ok, "; ".join(details))


def test_c05_photon_number_bound_trend(desk_ms):
    # mode-resolution ladder: 2, 3, 4 radial shells covering the same ball
    ladders = ([0.0, 1.7, 3.4], [0.0, 1.1, 2.2, 3.4], DESK_EDGES)
    ratios = []
    for edges in ladders:
        cfg = make_config(axial_mode_set(edges), e=0.1, p=DESK_P)
        basis = build_basis(cfg)
        cluster = detect_ground_cluster(solve_lowest(assemble_hamiltonian(cfg, basis), 6))
        integral = bounds_mod.photon_number_integral(
            cfg, sweep_energy_curve(model_operators(cfg), cfg))
        chk = bounds_mod.photon_number_check(cluster, basis, cfg, integral)
        ratios.append(chk.ratio)
    monotone = all(a >= b - 1e-12 for a, b in zip(ratios, ratios[1:]))
    final_ok = ratios[-1] <= 1.10

    nf = {}
    for e in (0.025, 0.05, 0.1):
        cfg = make_config(axial_mode_set(DESK_EDGES), e=e, p=DESK_P)
        basis = build_basis(cfg)
        cluster = detect_ground_cluster(solve_lowest(assemble_hamiltonian(cfg, basis), 6))
        integral = bounds_mod.photon_number_integral(
            cfg, sweep_energy_curve(model_operators(cfg), cfg))
        nf[e] = bounds_mod.photon_number_check(cluster, basis, cfg, integral).nf_max
    scaled = [nf[e] / e**2 for e in (0.025, 0.05, 0.1)]
    scaling_ok = max(scaled) / min(scaled) <= 1.05
    report(5, monotone and final_ok and scaling_ok,
           f"ratio ladder {[f'{r:.3f}' for r in ratios]} (non-increasing, "
           f"last <= 1.1); <N_f>/e^2 spread "
           f"{100 * (max(scaled) / min(scaled) - 1):.2f}% <= 5%")


def test_c06_ground_sector_labels(desk_artifacts):
    ok = True
    details = []
    for e, art in desk_artifacts.items():
        cfg = art["cfg"]
        ops = build_operators(cfg, art["basis"])
        result = solve_model(ops, cfg.p, cfg.e, 6)
        analysis = ground_sector_labels(result)
        ok &= analysis.ok and set(analysis.winners) == {-0.5, 0.5}
        # the sector split's energies against the dense J_axis decomposition
        oracle = dense_sector_energies(cfg)
        e_min = min(oracle.values())
        ok &= sorted(z for z, ez in oracle.items() if ez - e_min <= 1e-8) == [-0.5, 0.5]
        ok &= sorted(oracle) == sorted(analysis.sector_energies)
        worst = max(abs(oracle[z] - ez) for z, ez in analysis.sector_energies.items())
        ok &= worst < 1e-10
        details.append(f"e={e}: winners={analysis.winners} "
                       f"|E_z - dense E_z| <= {worst:.1e}")
    report(6, ok, "; ".join(details))


def test_c07_spinless_uniqueness(desk_ms):
    ok = True
    details = []
    for e in (0.1, 0.2):
        cfg = make_config(desk_ms, e=e, p=DESK_P, with_spin=False)
        ops = model_operators(cfg)
        rep = bounds_mod.spinless_uniqueness_check(cfg, sweep_energy_curve(ops, cfg),
                                                   solve_model(ops, cfg.p, cfg.e, 6))
        ok &= rep.hypothesis_holds
        ok &= rep.count == 1 and rep.gap_above is not None and rep.gap_above > 0.0
        details.append(f"e={e}: count={rep.count} gap={rep.gap_above:.3f}")
    report(7, ok, "hypothesis satisfied and " + "; ".join(details))


def test_c08_symmetry_suite(desk_ms, pair_ms):
    cfg = make_config(desk_ms, e=0.2, p=DESK_P)
    parity = rotation_invariance_check(cfg, [-np.eye(3)])
    parity_ok = parity.max_discrepancy <= 1e-10

    free = make_config(desk_ms, e=0.0)
    thetas = [bounds_mod.photon_number_integral(free.at(p=p), FreeEnergyCurve()).value
              for p in [(0, 0, 0.4), (0.4, 0, 0), (0, -0.4, 0), (0, 0, -0.4)]]
    theta_ok = len(set(thetas)) == 1

    basis = build_basis(cfg)
    ops = [number_operator(basis),
           field_energy(basis, [float(cfg.dispersion.omega(np.linalg.norm(k)))
                                for k in cfg.mode_set.k_points]),
           *field_momentum(basis)]
    commute_ok = all((a @ b - b @ a).nnz == 0 for a in ops for b in ops)
    report(8, parity_ok and theta_ok and commute_ok,
           f"E(p)=E(-p) off by {parity.max_discrepancy:.1e}; Theta bitwise "
           f"rotation-invariant; counting operators commute exactly")


def test_c09_gap_formula_sanity(desk_ms):
    cfg = make_config(desk_ms, e=0.0, p=(0.0, 0.0, 0.0))
    rep0 = gap_estimate(cfg, FreeEnergyCurve(), 3.0, 61)
    at_rest_ok = abs(rep0.delta_p - 1.0) <= 1e-12    # k = 0 is on the grid
    positive_ok = True
    for z in np.linspace(0.0, 0.5, 6):
        rep = gap_estimate(cfg.at(p=(0.0, 0.0, z)), FreeEnergyCurve(), 3.0, 61)
        positive_ok &= rep.delta_p > 0.0
    report(9, at_rest_ok and positive_ok,
           f"Delta(0) = {rep0.delta_p!r} = m_ph; Delta(p) > 0 for |p| <= 0.5")


def test_c10_determinism(tmp_path):
    def tree(root):
        return {p.name: p.read_bytes() for p in sorted(Path(root).iterdir())
                if p.name != "manifest.json"}

    for sub in ("a", "b"):
        code = cli_main(["spectrum", "--config", str(CONFIG_DIR / "desk_e020.json"),
                         "--out", str(tmp_path / sub), "--seed", "11",
                         "--dump-vectors"])
        assert code == 0
        code = cli_main(["sweep", "--config", str(CONFIG_DIR / "desk_e010.json"),
                         "--out", str(tmp_path / f"s{sub}"), "--seed", "11",
                         "--p-grid", "axis=z;from=0;to=0.4;steps=3"])
        assert code == 0
    same = (tree(tmp_path / "a") == tree(tmp_path / "b")
            and tree(tmp_path / "sa") == tree(tmp_path / "sb"))
    manifests = [json.loads((tmp_path / d / "manifest.json").read_text())
                 for d in ("a", "b")]
    hashes_match = manifests[0]["config_hash"] == manifests[1]["config_hash"]
    report(10, same and hashes_match,
           "repeated runs byte-identical (timestamps only in the manifest)")
