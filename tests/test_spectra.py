import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pflab.bounds as bounds_mod
import pflab.cli as cli_mod
import pflab.spectra as spectra_mod
from pflab.errors import DomainError, IndeterminateDegeneracy, NonHermitianError, SolverError
from pflab.model import assemble_hamiltonian, build_operators
from pflab.spectra import (
    DEFAULT_TOL,
    EPS_DEG,
    EPS_SEP,
    RadialEnergyCurve,
    SpectralResult,
    detect_ground_cluster,
    energy_sweep,
    gap_estimate,
    solve_lowest,
    sweep_energy_curve,
)

from conftest import CONFIG_DIR, make_config
from oracles import FreeEnergyCurve
from oracles import perturbative_energy_and_number


# -- solve_lowest -----------------------------------------------------------------


def test_diagonal_matrix_both_methods():
    H = np.diag([0.0, 0.0, 1.0, 3.0]).astype(complex)
    for method in ("dense", "davidson"):
        res = solve_lowest(H, 3, method=method)
        assert np.allclose(res.eigenvalues, [0.0, 0.0, 1.0], atol=1e-12)
        assert res.method == method


def test_free_ground_pair(desk_ms):
    cfg = make_config(desk_ms, e=0.0, p=(0.0, 0.0, 0.0))
    res = solve_lowest(assemble_hamiltonian(cfg), 4)
    assert res.eigenvalues[0] == pytest.approx(0.0, abs=1e-14)
    assert res.eigenvalues[1] == pytest.approx(0.0, abs=1e-14)
    assert res.eigenvalues[2] > 0.5


def test_davidson_matches_dense_oracle(desk_ms):
    cfg = make_config(desk_ms, e=0.2, p=(0.0, 0.0, 0.4))
    H = assemble_hamiltonian(cfg)
    dense = solve_lowest(H, 4, method="dense")
    davidson = solve_lowest(H, 4, method="davidson")
    assert np.max(np.abs(dense.eigenvalues - davidson.eigenvalues)) < 1e-10


def test_davidson_resolves_exact_degeneracy():
    # block diagonal with an exactly threefold lowest eigenvalue
    rng = np.random.default_rng(0)
    Q, _ = np.linalg.qr(rng.standard_normal((40, 40))
                        + 1j * rng.standard_normal((40, 40)))
    vals = np.concatenate([[-2.0, -2.0, -2.0], np.linspace(-1.0, 5.0, 37)])
    H = (Q * vals) @ Q.conj().T
    H = 0.5 * (H + H.conj().T)
    res = solve_lowest(H, 5, method="davidson")
    assert np.allclose(res.eigenvalues[:3], -2.0, atol=1e-9)
    gram = res.eigenvectors.conj().T @ res.eigenvectors
    assert np.max(np.abs(gram - np.eye(5))) < 1e-10


def test_residuals_and_gram(desk_ms):
    cfg = make_config(desk_ms, e=0.1, p=(0.0, 0.0, 0.4))
    H = assemble_hamiltonian(cfg)
    res = solve_lowest(H, 6, method="davidson")
    norm = float(np.abs(H).max() * H.shape[0]) ** 0.5  # generous norm bound
    assert np.all(res.residual_norms <= 1e-11 * max(1.0, norm))
    gram = res.eigenvectors.conj().T @ res.eigenvectors
    assert np.max(np.abs(gram - np.eye(6))) < 1e-10


def test_determinism_bit_identical(desk_ms):
    cfg = make_config(desk_ms, e=0.15, p=(0.0, 0.0, 0.2))
    H = assemble_hamiltonian(cfg)
    a = solve_lowest(H, 5, method="davidson", seed=123)
    b = solve_lowest(H, 5, method="davidson", seed=123)
    assert a.eigenvalues.tolist() == b.eigenvalues.tolist()
    assert np.array_equal(a.eigenvectors, b.eigenvectors)


def _oracle_case(kind: str, n: int, complex_: bool, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)

    def gaussian(*shape):
        g = rng.standard_normal(shape)
        return g + 1j * rng.standard_normal(shape) if complex_ else g

    if kind == "random":                 # no diagonal dominance at all
        H = gaussian(n, n)
    elif kind == "degenerate":           # an exactly threefold lowest eigenvalue
        Q = np.linalg.qr(gaussian(n, n))[0]
        H = (Q * np.concatenate([[-1.0] * 3, rng.uniform(0.0, 3.0, n - 3)])) @ Q.conj().T
    else:                                # "trap": the lowest eigenvector lives on the
        H = np.diag(np.arange(n, dtype=float)).astype(complex if complex_ else float)
        t = max(2, n // 5)               # largest diagonal entries, far from the start
        H[-t:, -t:] -= 2.0 * n / t       # block's unit vectors
    return 0.5 * (H + H.conj().T)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["random", "degenerate", "trap"]), n=st.integers(6, 60),
       pairs=st.integers(1, 6), complex_=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_davidson_matches_dense_eigh(kind, n, pairs, complex_, seed):
    _assert_davidson_matches_dense_eigh(kind, n, pairs, complex_, seed)


@pytest.mark.parametrize("kind", ["random", "degenerate", "trap"])
def test_davidson_matches_dense_eigh_on_a_fixed_sweep(kind):
    # 100 seeds per kind, n and pairs drawn from the seed, real and complex
    # alternating: a step that fails one case in 40 passes all 300 cases of
    # the three kinds with probability below 1e-3
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n, pairs = int(rng.integers(6, 61)), int(rng.integers(1, 7))
        _assert_davidson_matches_dense_eigh(kind, n, pairs, seed % 2 == 1, seed)


def _assert_davidson_matches_dense_eigh(kind, n, pairs, complex_, seed):
    H = _oracle_case(kind, n, complex_, seed)
    pairs = min(pairs, n - 1)
    got = solve_lowest(H, pairs, method="davidson", seed=seed)
    want = np.linalg.eigvalsh(H)[:pairs]
    assert got.eigenvectors.dtype == H.dtype
    assert np.max(np.abs(got.eigenvalues - want)) < 1e-10
    assert np.all(got.residual_norms <= DEFAULT_TOL * np.maximum(1.0, np.abs(want)))
    gram = got.eigenvectors.conj().T @ got.eigenvectors
    assert np.max(np.abs(gram - np.eye(pairs))) < 1e-10


def test_davidson_converges_when_its_search_space_fills_the_space():
    # 20 rows, 2 pairs: the last two corrections are nearly dependent, and
    # one QR of that block alone leaves V 5e-10 from orthonormal, where the
    # residual stalls above DEFAULT_TOL
    H = _oracle_case("degenerate", 20, False, 0)
    got = solve_lowest(H, 2, method="davidson", seed=0)
    assert np.max(np.abs(got.eigenvalues - np.linalg.eigvalsh(H)[:2])) < 1e-10


def test_davidson_gives_up_at_its_iteration_cap(desk_ms, monkeypatch):
    monkeypatch.setattr(spectra_mod, "MAX_ITERATIONS", 1)
    H = assemble_hamiltonian(make_config(desk_ms, e=0.2, p=(0.0, 0.0, 0.4)))
    with pytest.raises(SolverError, match="within 1 iterations") as err:
        solve_lowest(H, 4, method="davidson")
    assert len(err.value.residuals) == 4
    assert max(err.value.residuals) > DEFAULT_TOL


def test_lapack_failure_in_davidson_is_a_solver_error(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    H = _oracle_case("random", 20, False, 0)
    # Davidson's Rayleigh-Ritz step diagonalizes with numpy's eigh
    monkeypatch.setattr(np.linalg, "eigh", no_convergence)
    with pytest.raises(SolverError, match="LAPACK failed on the dimension-20 problem: "
                                          "Eigenvalues did not converge"):
        solve_lowest(H, 2, method="davidson")


def test_non_hermitian_rejected():
    H = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(NonHermitianError):
        solve_lowest(H, 1)


def test_n_eig_bounds():
    H = np.eye(4, dtype=complex)
    with pytest.raises(ValueError, match="n_eig"):
        solve_lowest(H, 4)
    with pytest.raises(ValueError, match="n_eig"):
        solve_lowest(H, 0)


@pytest.mark.parametrize("shape", [(12, 5), (11, 1)], ids=["too_many_columns", "wrong_rows"])
def test_start_of_the_wrong_shape_is_refused_before_any_solve(monkeypatch, shape):
    def no_solve(*args, **kwargs):
        raise AssertionError("solve with a start of the wrong shape")

    monkeypatch.setattr(spectra_mod, "_davidson_lowest", no_solve)
    H = np.diag(np.arange(12.0)) + np.diag(np.full(11, 0.1), 1) + np.diag(np.full(11, 0.1), -1)
    start = np.linalg.qr(np.ones(shape) + np.eye(*shape))[0]
    message = f"12 rows and at most 4 columns; got shape {shape}"
    with pytest.raises(ValueError, match=re.escape(message)):
        solve_lowest(H, 2, method="davidson", start=start)


# -- ground cluster detection -------------------------------------------------------


def _result(evs):
    evs = np.asarray(evs, dtype=float)
    return SpectralResult(evs, np.eye(len(evs), dtype=complex),
                          np.zeros(len(evs)), "dense")


def test_cluster_counts_exact_pair():
    cluster = detect_ground_cluster(_result([0.0, 1e-13, 0.7, 1.1]))
    assert cluster.count == 2
    assert cluster.gap_above == pytest.approx(0.7, rel=1e-12)


def test_cluster_separates_near_degeneracy():
    cluster = detect_ground_cluster(_result([0.5, 0.5 + 1e-4, 1.0]))
    assert cluster.count == 1
    assert cluster.gap_above == pytest.approx(1e-4, rel=1e-6)


def test_cluster_indeterminate_when_gap_inside_band():
    with pytest.raises(IndeterminateDegeneracy):
        detect_ground_cluster(_result([0.0, 5e-6, 1.0]))


def test_cluster_indeterminate_when_everything_clusters():
    with pytest.raises(IndeterminateDegeneracy):
        detect_ground_cluster(_result([0.0, 1e-13, 2e-13]))


def test_cluster_projector_algebra(desk_ms):
    cfg = make_config(desk_ms, e=0.2, p=(0.0, 0.0, 0.4))
    H = assemble_hamiltonian(cfg)
    res = solve_lowest(H, 6)
    cluster = detect_ground_cluster(res)
    P = cluster.basis @ cluster.basis.conj().T
    assert np.max(np.abs(P @ P - P)) < 1e-10
    assert np.max(np.abs(P - P.conj().T)) < 1e-10
    assert np.trace(P).real == pytest.approx(cluster.count, abs=1e-10)
    HP = H.toarray() @ P
    assert np.linalg.norm(HP - HP.conj().T, 2) <= cluster.cluster_width + 1e-9


def test_spinless_small_coupling_unique_ground(desk_ms):
    cfg = make_config(desk_ms, e=0.1, p=(0.0, 0.0, 0.3), with_spin=False)
    cluster = detect_ground_cluster(solve_lowest(assemble_hamiltonian(cfg), 5))
    assert cluster.count == 1


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-5, 5, allow_nan=False), min_size=3, max_size=12))
def test_cluster_detection_properties(values):
    evs = np.sort(np.asarray(values))
    try:
        cluster = detect_ground_cluster(_result(evs))
    except IndeterminateDegeneracy:
        return
    scale = max(1.0, abs(evs[0]))
    assert 1 <= cluster.count < len(evs)
    assert cluster.cluster_width <= EPS_DEG * scale
    assert cluster.gap_above > EPS_SEP * scale


# -- sweeps and curves -----------------------------------------------------------


def test_free_sweep_is_exact_parabola(desk_ms):
    cfg = make_config(desk_ms, e=0.0)
    ps = [(0.0, 0.0, z) for z in np.linspace(-0.5, 0.5, 5)]
    rows = energy_sweep(build_operators(cfg), ps, cfg.e)
    for row in rows:
        assert row.energy == pytest.approx(0.5 * row.p[2] ** 2, abs=1e-12)
        assert row.count == 2


def test_sweep_parity_symmetry(desk_ms):
    cfg = make_config(desk_ms, e=0.2)
    rows = energy_sweep(build_operators(cfg), [(0, 0, 0.3), (0, 0, -0.3)], cfg.e)
    assert abs(rows[0].energy - rows[1].energy) < 1e-10


# energy-only solves of ``pflab bounds``: 25 per energy curve, one per k-point
# of the pull-through (8 on the desk mode set); the curve at the config's own
# coupling is solved once, and the threshold's probe at e = 0 solves none
BOUNDS_ENERGY_SOLVES = {"desk_e010.json": 5 * 25 + 8, "desk_e000.json": 6 * 25 + 8,
                        "desk_spinless_e020.json": 25}


def _bounds_energy_solves(monkeypatch, config_path, out, *options) -> list[tuple]:
    """The positional arguments of each ``ground_energy`` call of one ``pflab bounds``."""
    calls = []
    solve = spectra_mod.ground_energy

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    for module in (spectra_mod, bounds_mod):
        monkeypatch.setattr(module, "ground_energy", counted)
    assert cli_mod.main(["bounds", "--config", str(config_path), "--out", str(out),
                         *options]) == 0
    return calls


@pytest.mark.parametrize("name, want", BOUNDS_ENERGY_SOLVES.items(),
                         ids=BOUNDS_ENERGY_SOLVES.keys())
def test_bounds_solves_each_energy_curve_once(tmp_path, monkeypatch, name, want):
    assert len(_bounds_energy_solves(monkeypatch, CONFIG_DIR / name, tmp_path)) == want


def test_bounds_at_negative_coupling_solves_each_energy_curve_once(tmp_path, monkeypatch):
    # the threshold's probes run at |e|: the config's own curve serves the
    # probe at |config.e| whatever the sign of config.e
    config = json.loads((CONFIG_DIR / "desk_e010.json").read_text())
    config["e"] = -config["e"]
    path = tmp_path / "desk_e-010.json"
    path.write_text(json.dumps(config))
    want = BOUNDS_ENERGY_SOLVES["desk_e010.json"]
    assert len(_bounds_energy_solves(monkeypatch, path, tmp_path / "out")) == want


def test_bounds_passes_its_seed_to_every_energy_solve(tmp_path, monkeypatch):
    # the pull-through's gap gate included
    calls = _bounds_energy_solves(monkeypatch, CONFIG_DIR / "desk_e010.json", tmp_path,
                                  "--seed", "11")
    assert [args[3] for args in calls] == [11] * BOUNDS_ENERGY_SOLVES["desk_e010.json"]


def test_interacting_curvature_against_perturbation_oracle(desk_ms):
    # effective mass grows with coupling: the p^2/2 coefficient drops below
    # the free value, quantitatively as second-order theory predicts
    e = 0.2
    delta = 0.2
    cfg = make_config(desk_ms, e=e)
    rows = energy_sweep(build_operators(cfg), [(0, 0, -delta), (0, 0, 0.0), (0, 0, delta)],
                        cfg.e)
    d2_model = (rows[0].energy - 2 * rows[1].energy + rows[2].energy) / delta**2
    assert d2_model < 1.0 - 2e-5
    pt = [perturbative_energy_and_number(cfg.at(p=(0, 0, z)))[0]
          for z in (-delta, 0.0, delta)]
    d2_pt = (pt[0] - 2 * pt[1] + pt[2]) / delta**2
    # p-independent quartic corrections cancel in the second difference, so
    # the match is far inside e^4; 1e-7 carries a ~50x margin over observed
    assert abs(d2_model - d2_pt) < 1e-7


def test_radial_curve_domain_guard():
    curve = RadialEnergyCurve(q=np.linspace(0, 2, 5), values=np.zeros(5), spacing=0.5)
    with pytest.raises(DomainError):
        curve(2.5)


def test_sweep_curve_free_theory_exact(desk_ms):
    # at e = 0 every point is the lowest diagonal entry of H_0(q u); the
    # vacuum, at q^2/2, is the ground state only up to q ~ 1.94 on this mode
    # set, above which a state with one photon lies lower
    cfg = make_config(desk_ms, e=0.0)
    ops = build_operators(cfg)
    axis = np.asarray(desk_ms.axis)
    curve = sweep_energy_curve(ops, cfg, q_max=3.0)
    exact = [ops.linear.free_diagonal(q * axis).min() for q in curve.q]
    assert np.allclose(curve.values, exact, atol=1e-12)
    low = curve.q < 1.9
    assert np.allclose(curve.values[low], 0.5 * curve.q[low] ** 2, atol=1e-12)
    assert np.all(curve.values[curve.q > 2.0] < 0.5 * curve.q[curve.q > 2.0] ** 2)


# -- the gap formula ---------------------------------------------------------------


def test_gap_free_massive_at_rest(desk_ms):
    cfg = make_config(desk_ms, e=0.0, p=(0.0, 0.0, 0.0))
    rep = gap_estimate(cfg, FreeEnergyCurve(), 3.0, 61)
    assert rep.delta_p == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(rep.argmin_k, 0.0)


def test_gap_free_massive_moving(desk_ms):
    cfg = make_config(desk_ms, e=0.0, p=(0.0, 0.0, 0.5))
    rep = gap_estimate(cfg, FreeEnergyCurve(), 3.0, 121)
    assert 0.0 < rep.delta_p < 1.0
    # refinement pass must not be worse than the raw grid minimum
    coarse = gap_estimate(cfg, FreeEnergyCurve(), 3.0, 13)
    assert rep.E_c_p <= coarse.E_c_p + 1e-12


def test_gap_domain_rejection(desk_ms):
    cfg = make_config(desk_ms, e=0.0, p=(0.0, 0.0, 0.5))
    curve = RadialEnergyCurve(q=np.linspace(0, 1, 5),
                              values=0.5 * np.linspace(0, 1, 5) ** 2, spacing=0.25)
    with pytest.raises(DomainError):
        gap_estimate(cfg, curve, 3.0, 31)


def test_gap_crosschecks_cluster_gap(desk_ms):
    cfg = make_config(desk_ms, e=0.2, p=(0.0, 0.0, 0.4))
    cluster = detect_ground_cluster(solve_lowest(assemble_hamiltonian(cfg), 6))
    curve = sweep_energy_curve(build_operators(cfg), cfg, q_max=3.5)
    rep = gap_estimate(cfg, curve, 3.0, 61)
    assert rep.delta_p > 0
    assert abs(cluster.gap_above - rep.delta_p) <= 0.2 * rep.delta_p


# -- variational monotonicity --------------------------------------------------------


def test_energy_nonincreasing_along_cutoff_ladder(pair_ms):
    energies = []
    for N in (1, 2, 3):
        cfg = make_config(pair_ms, e=0.3, p=(0.0, 0.0, 0.2), N_max=N, n_max=N)
        energies.append(solve_lowest(assemble_hamiltonian(cfg), 2).ground_energy)
    assert energies[0] >= energies[1] - 1e-12
    assert energies[1] >= energies[2] - 1e-12


def test_energy_nonincreasing_in_per_mode_cutoff(pair_ms):
    energies = []
    for n in (1, 2, 3):
        cfg = make_config(pair_ms, e=0.4, p=(0.0, 0.0, 0.0), N_max=3, n_max=n)
        energies.append(solve_lowest(assemble_hamiltonian(cfg), 2).ground_energy)
    assert energies[0] >= energies[1] - 1e-12
    assert energies[1] >= energies[2] - 1e-12
