import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad

from pflab import bounds, quadrature, spectra
from pflab.errors import GapTooSmallError, PflabError, SolverError
from pflab.io import load_config
from pflab.model import PHI_HAT_ZERO, assemble_hamiltonian, build_basis, build_operators
from pflab.quadrature import gauss_legendre
from pflab.spectra import (
    detect_ground_cluster,
    model_operators,
    solve_lowest,
    solve_model,
    sweep_energy_curve,
)

from conftest import CONFIG_DIR, make_config
from oracles import FreeEnergyCurve, annihilation_matrix, number_operator

# Refined-quadrature oracle for the photon-number integral at e = 0, p = 0,
# gaussian cutoff lambda = 1, photon mass 1:
#   Theta(0) = 2 int (k^2/4) / (k^2/2 + omega)^2 * phi_hat^2 / omega dk,
# computed with adaptive scipy quadrature to ~1e-14 (see the derivation in
# this test module's history); frozen here as the reference value.
THETA0_FREE_ORACLE = 0.0017925809604928697
PERF_CONFIG_DIR = CONFIG_DIR.parent / "perfbench" / "configs"


@pytest.fixture(scope="module")
def desk_cluster(desk_ms):
    cfg = make_config(desk_ms, e=0.1, p=(0.0, 0.0, 0.4))
    basis = build_basis(cfg)
    H = assemble_hamiltonian(cfg, basis)
    cluster = detect_ground_cluster(solve_lowest(H, 6))
    curve = sweep_energy_curve(model_operators(cfg), cfg)
    integral = bounds.photon_number_integral(cfg, curve)
    return cfg, basis, cluster, curve, integral


# -- vacuum projector and the diagonal inequality -----------------------------------


def _vacuum_diagonal(basis):
    # the diagonal of the projector P0 onto (spin factor) x vacuum
    diag = np.zeros(basis.dimension)
    diag[list(basis.vacuum_indices())] = 1.0
    return diag


def test_vacuum_projector_rank(desk_ms):
    cfg = make_config(desk_ms, e=0.0)
    basis = build_basis(cfg)
    assert _vacuum_diagonal(basis).sum() == 2.0
    assert np.all(number_operator(basis).diagonal()[list(basis.vacuum_indices())] == 0.0)
    spinless = build_basis(cfg.at(with_spin=False))
    assert _vacuum_diagonal(spinless).sum() == 1.0


def test_vacuum_plus_number_is_at_least_one(desk_ms):
    # P0 + N_f is diagonal with integer entries; its minimum is exactly 1
    cfg = make_config(desk_ms, e=0.0)
    basis = build_basis(cfg)
    diag = _vacuum_diagonal(basis) + number_operator(basis).diagonal().real
    assert diag.min() == 1.0
    assert np.all(diag == np.round(diag))


# -- the photon-number integral ------------------------------------------------------


def test_photon_integral_against_refined_quadrature(desk_ms):
    cfg = make_config(desk_ms, e=0.0, p=(0.0, 0.0, 0.0))
    integ = bounds.photon_number_integral(cfg, FreeEnergyCurve())

    def integrand(r):
        om = np.sqrt(r * r + 1.0)
        phi2 = (PHI_HAT_ZERO * np.exp(-r * r / 2.0)) ** 2
        return 4 * np.pi * r * r * (r * r / 4.0) / (r * r / 2.0 + om) ** 2 * phi2 / om

    fresh, _ = quad(integrand, 0, np.inf, epsabs=1e-14, epsrel=1e-13)
    assert 2 * fresh == pytest.approx(THETA0_FREE_ORACLE, rel=1e-12)
    assert integ.value == pytest.approx(THETA0_FREE_ORACLE, rel=1e-6)


def test_photon_integral_rotation_invariant_bitwise(desk_ms):
    cfg = make_config(desk_ms, e=0.0)
    vals = [bounds.photon_number_integral(cfg.at(p=p), FreeEnergyCurve()).value
            for p in [(0, 0, 0.4), (0.4, 0, 0), (0, -0.4, 0)]]
    assert vals[0] == vals[1] == vals[2]


def test_photon_integral_monotone_in_ground_energy(desk_ms):
    # shifting the whole energy curve upward leaves the denominators alone
    # and raises the 6 E(p) numerator
    cfg = make_config(desk_ms, e=0.0, p=(0.0, 0.0, 0.3))

    class Shifted(FreeEnergyCurve):
        def __call__(self, q):
            return super().__call__(q) + 0.05

    lo = bounds.photon_number_integral(cfg, FreeEnergyCurve()).value
    hi = bounds.photon_number_integral(cfg, Shifted()).value
    assert hi > lo


def test_photon_integral_gap_floor(desk_ms):
    cfg = make_config(desk_ms, e=0.0, p=(0.0, 0.0, 0.0))

    class Dropping(FreeEnergyCurve):
        # E(k) + omega(k) - E(0) = omega(k) - 2k crosses zero at k = 1/sqrt(3)
        def __call__(self, q):
            q = np.asarray(q, dtype=float)
            out = -2.0 * q
            return out if out.ndim else float(out)

    with pytest.raises(GapTooSmallError):
        bounds.photon_number_integral(cfg, Dropping())


def test_pull_through_gap_refused_before_the_shifted_solve(shipped_configs, monkeypatch):
    # an energy at or above the bottom of H(p - k) + omega_k, or within the
    # floor below it, leaves the shifted resolvent no room; every k-point is
    # checked before any shifted solve, and the first without room is named
    cfg = shipped_configs["desk_e010.json"]
    ops = build_operators(cfg)
    psi = detect_ground_cluster(solve_model(ops, cfg.p, cfg.e, 6)).basis[:, 0]
    p = np.asarray(cfg.p)
    bottoms = [solve_model(ops, p - np.asarray(k), cfg.e, 1).ground_energy
               + cfg.dispersion.omega(float(np.linalg.norm(k)))
               for k in cfg.mode_set.k_points]
    mode = 5
    bottom = bottoms[cfg.mode_set.k_point_index[mode]]

    def no_solve(*args, **kwargs):
        raise AssertionError("shifted system solved")

    monkeypatch.setattr(bounds.spla, "cg", no_solve)
    for energy in (bottom + 0.1, bottom, bottom - 0.5 * bounds.DENOMINATOR_FLOOR):
        first = next(i for i, b in enumerate(bottoms) if b - energy < bounds.DENOMINATOR_FLOOR)
        with pytest.raises(GapTooSmallError, match=f"k-point {first} .* is nearly singular") as err:
            bounds.pull_through_residual(psi, cfg, energy, ops)
        assert "np.float64" not in str(err.value)


def test_pull_through_unconverged_solve_is_a_solver_error(shipped_configs, monkeypatch):
    cfg = shipped_configs["desk_e010.json"]
    ops = build_operators(cfg)
    cluster = detect_ground_cluster(solve_model(ops, cfg.p, cfg.e, 6))

    def no_convergence(A, b, **kwargs):
        return np.zeros_like(b), 7          # info > 0: maxiter reached

    monkeypatch.setattr(bounds.spla, "cg", no_convergence)
    with pytest.raises(SolverError, match=r"mode 0 at k-point 0 .*\(info 7\)"):
        bounds.pull_through_residual(cluster.basis[:, 0], cfg, cluster.energy, ops)


# -- the number bound ----------------------------------------------------------------


def test_number_bound_trivial_at_zero_coupling(desk_ms):
    cfg = make_config(desk_ms, e=0.0, p=(0.0, 0.0, 0.0))
    basis = build_basis(cfg)
    cluster = detect_ground_cluster(solve_lowest(assemble_hamiltonian(cfg, basis), 6))
    integ = bounds.photon_number_integral(cfg, FreeEnergyCurve())
    chk = bounds.photon_number_check(cluster, basis, cfg, integ)
    assert chk.nf_max == pytest.approx(0.0, abs=1e-20)
    assert chk.bound == 0.0
    assert chk.passed


def test_number_bound_holds_on_desk_model(desk_cluster):
    cfg, basis, cluster, curve, integral = desk_cluster
    chk = bounds.photon_number_check(cluster, basis, cfg, integral)
    assert chk.passed
    assert 0.0 < chk.ratio < 1.0


@pytest.mark.parametrize("path", [*(CONFIG_DIR / f"{stem}.json" for stem in (
    "desk_e000", "desk_e005", "desk_e010", "desk_e020", "desk_p0_e010", "massless_e010")),
    PERF_CONFIG_DIR / "rung3.json"], ids=lambda path: path.stem)
def test_number_check_equals_the_number_operator_path(path):
    # n (.) V against the oracle's sparse N_f V, bit for bit
    cfg = load_config(path)
    ops = model_operators(cfg)
    cluster = detect_ground_cluster(solve_model(ops, cfg.p, cfg.e, 6))
    integral = bounds.PhotonIntegral(value=0.25, min_denominator=1.0)
    chk = bounds.photon_number_check(cluster, ops.basis, cfg, integral)
    V = cluster.basis
    M = V.conj().T @ (number_operator(ops.basis) @ V)
    nf_max = max(float(np.linalg.eigvalsh(0.5 * (M + M.conj().T)).max()), 0.0)
    bound = cfg.e**2 * integral.value
    ratio = nf_max / bound if bound > 0.0 else (0.0 if nf_max == 0.0 else math.inf)
    assert (chk.nf_max, chk.bound, chk.ratio) == (nf_max, bound, ratio)


def test_number_expectation_scales_as_coupling_squared(desk_ms):
    vals = {}
    for e in (0.025, 0.05, 0.1):
        cfg = make_config(desk_ms, e=e, p=(0.0, 0.0, 0.4))
        basis = build_basis(cfg)
        cluster = detect_ground_cluster(solve_lowest(assemble_hamiltonian(cfg, basis), 6))
        integ = bounds.photon_number_integral(
            cfg, sweep_energy_curve(model_operators(cfg), cfg))
        vals[e] = bounds.photon_number_check(cluster, basis, cfg, integ).nf_max
    assert vals[0.05] / vals[0.025] == pytest.approx(4.0, rel=0.05)
    assert vals[0.1] / vals[0.05] == pytest.approx(4.0, rel=0.05)


# -- pull-through residual -----------------------------------------------------------


def test_pull_through_residual_zero_at_zero_coupling(desk_ms):
    cfg = make_config(desk_ms, e=0.0, p=(0.0, 0.0, 0.2))
    ops = build_operators(cfg)
    cluster = detect_ground_cluster(solve_lowest(assemble_hamiltonian(cfg, ops.basis), 6))
    res = bounds.pull_through_residual(cluster.basis[:, 0], cfg, cluster.energy, ops)
    assert res.shape == (len(desk_ms),)
    assert np.all(np.abs(res) <= 1e-14)


@pytest.mark.parametrize("name", ["desk_e010.json", "desk_spinless_e020.json"])
def test_annihilated_vectors_match_the_sparse_ladders(shipped_configs, name):
    # a_m psi from the ladder entries, one spin block at a time, against a_m
    # built through the {tuple: index} dictionary and tensored with the spin
    basis = build_basis(shipped_configs[name])
    rng = np.random.default_rng(3)
    psi = rng.standard_normal(basis.dimension) + 1j * rng.standard_normal(basis.dimension)
    got = bounds._annihilated(psi, basis)
    assert got.shape == (len(basis.mode_set), basis.dimension)
    for m in range(len(basis.mode_set)):
        assert np.array_equal(got[m], annihilation_matrix(m, basis) @ psi), m


def test_pull_through_residual_decreases_along_ladder(tiny_ms):
    residuals = []
    for N in (1, 2, 3):
        cfg = make_config(tiny_ms, e=0.1, p=(0.0, 0.0, 0.2), N_max=N, n_max=N)
        ops = build_operators(cfg)
        cluster = detect_ground_cluster(
            solve_lowest(assemble_hamiltonian(cfg, ops.basis), 4, method="dense"))
        residuals.append(bounds.pull_through_residual(
            cluster.basis[:, 0], cfg, cluster.energy, ops)[0])
    assert residuals[0] > residuals[1] > residuals[2]
    assert residuals[2] < 1e-4


def test_pull_through_residual_coupling_scaling(tiny_ms):
    # the identity carries one power of e and breaks only through the
    # truncation boundary, whose amplitude is O(e^N_max); the measured
    # residual therefore scales as e^(N_max + 1)
    for N, n_eig in ((1, 3), (2, 4)):
        vals = []
        for e in (0.05, 0.1):
            cfg = make_config(tiny_ms, e=e, p=(0.0, 0.0, 0.2), N_max=N, n_max=N)
            ops = build_operators(cfg)
            cluster = detect_ground_cluster(
                solve_lowest(assemble_hamiltonian(cfg, ops.basis), n_eig, method="dense"))
            vals.append(bounds.pull_through_residual(
                cluster.basis[:, 0], cfg, cluster.energy, ops)[0])
        assert vals[1] / vals[0] == pytest.approx(2.0 ** (N + 1), rel=0.02)


# -- upper bound, overlap, Gram ------------------------------------------------------


def test_upper_bound_arithmetic():
    # the displayed chain at theta = 5, e = 0.1: hypothesis 1/sqrt(15), bound
    # 2/(1 - 0.05); and at theta = 12 the hypothesis cutoff is exactly 1/6
    from pflab.bounds import PhotonIntegral
    from pflab.spectra import GroundCluster

    cluster = GroundCluster(count=2, eigenvalues=np.zeros(2),
                            basis=np.eye(4, 2, dtype=complex),
                            cluster_width=0.0, gap_above=1.0)
    integ5 = PhotonIntegral(value=5.0, min_denominator=1.0)
    integ12 = PhotonIntegral(value=12.0, min_denominator=1.0)

    class E:
        e = 0.1
    chk = bounds.degeneracy_upper_bound(cluster, E, integ5)
    assert chk.hypothesis_limit == pytest.approx(1.0 / math.sqrt(15.0), rel=1e-12)
    assert chk.hypothesis_holds
    assert chk.bound_value == pytest.approx(2.0 / (1.0 - 0.05), rel=1e-12)
    assert chk.passed
    chk12 = bounds.degeneracy_upper_bound(cluster, E, integ12)
    assert chk12.hypothesis_limit == pytest.approx(1.0 / 6.0, rel=1e-12)


def test_upper_bound_on_desk_model(desk_cluster):
    cfg, basis, cluster, curve, integral = desk_cluster
    chk = bounds.degeneracy_upper_bound(cluster, cfg, integral)
    assert chk.hypothesis_holds and chk.passed and chk.count == 2
    assert chk.bound_value < 3.0


def test_vacuum_overlap_exact_at_zero_coupling(desk_ms):
    cfg = make_config(desk_ms, e=0.0, p=(0.0, 0.0, 0.0))
    basis = build_basis(cfg)
    cluster = detect_ground_cluster(solve_lowest(assemble_hamiltonian(cfg, basis), 6))
    integ = bounds.photon_number_integral(cfg, FreeEnergyCurve())
    ov = bounds.vacuum_overlap(cluster, basis, 0.0, integ)
    assert ov.minimum == pytest.approx(1.0, abs=1e-12)
    assert ov.lower_bound == 1.0


def test_vacuum_overlap_bound_on_desk_model(desk_cluster):
    cfg, basis, cluster, curve, integral = desk_cluster
    ov = bounds.vacuum_overlap(cluster, basis, cfg.e, integral)
    assert ov.passed
    assert ov.minimum >= ov.lower_bound > 0.9


def test_vacuum_overlap_trace_is_basis_invariant(desk_cluster):
    cfg, basis, cluster, curve, integral = desk_cluster
    rng = np.random.default_rng(5)
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    U, _ = np.linalg.qr(z)
    mixed = cluster.__class__(count=2, eigenvalues=cluster.eigenvalues,
                              basis=cluster.basis @ U,
                              cluster_width=cluster.cluster_width,
                              gap_above=cluster.gap_above)
    a = bounds.vacuum_overlap(cluster, basis, cfg.e, integral)
    b = bounds.vacuum_overlap(mixed, basis, cfg.e, integral)
    assert a.trace == pytest.approx(b.trace, abs=1e-12)


def test_vacuum_gram_identity_at_zero_coupling(desk_ms):
    cfg = make_config(desk_ms, e=0.0, p=(0.0, 0.0, 0.3))
    basis = build_basis(cfg)
    cluster = detect_ground_cluster(solve_lowest(assemble_hamiltonian(cfg, basis), 6))
    gram = bounds.vacuum_gram(cluster, basis)
    assert np.allclose(gram.matrix, np.eye(2), atol=1e-12)
    assert gram.a_value == pytest.approx(1.0, abs=1e-12)


def test_vacuum_gram_proportional_to_identity(desk_cluster):
    cfg, basis, cluster, curve, integral = desk_cluster
    gram = bounds.vacuum_gram(cluster, basis)
    assert gram.deviation < 1e-8
    assert gram.a_value > 0.0
    assert gram.a_value >= 1.0 - cfg.e**2 * integral.value
    evs = np.linalg.eigvalsh(gram.matrix)
    assert np.all(evs >= -1e-14)


def test_vacuum_gram_refuses_wrong_count(desk_ms):
    cfg = make_config(desk_ms, e=0.1, p=(0.0, 0.0, 0.3), with_spin=False)
    basis = build_basis(cfg)
    cluster = detect_ground_cluster(solve_lowest(assemble_hamiltonian(cfg, basis), 5))
    assert cluster.count == 1
    with pytest.raises(PflabError):
        bounds.vacuum_gram(cluster, basis)


def test_bound_chain_arithmetic(desk_cluster):
    # trace(Pg P0) >= (1 - e^2 Theta) * count forces count <= 2/(1 - e^2 Theta)
    cfg, basis, cluster, curve, integral = desk_cluster
    ov = bounds.vacuum_overlap(cluster, basis, cfg.e, integral)
    e2t = cfg.e**2 * integral.value
    assert ov.trace >= (1.0 - e2t) * cluster.count - 1e-12
    assert cluster.count <= 2.0 / (1.0 - e2t) + 1e-12


# -- coupling threshold ---------------------------------------------------------------


def test_coupling_threshold_grid_bound(tiny_ms):
    cfg = make_config(tiny_ms, e=0.1, p=(0.0, 0.0, 0.0), N_max=1, n_max=1)
    ops = model_operators(cfg)
    th = bounds.coupling_threshold(ops, cfg, sweep_energy_curve(ops, cfg),
                                   e_values=np.linspace(0.0, 0.3, 4))
    assert th.value == pytest.approx(0.3)
    assert th.binding == "grid"


def test_coupling_threshold_relative_bound_binds(tiny_ms):
    # a wide sharp cutoff inflates the decay integrals so that c0 crosses 1
    # already near e ~ 0.42, where the integral probes stay well conditioned
    from pflab.model import FormFactor, coupling_bound

    cfg = make_config(tiny_ms, e=0.1, p=(0.0, 0.0, 0.0), N_max=1, n_max=1).at(
        form_factor=FormFactor(kind="sharp", lam=4.0))
    ops = model_operators(cfg)
    th = bounds.coupling_threshold(ops, cfg, sweep_energy_curve(ops, cfg),
                                   e_values=np.array([0.0, 0.3, 0.6]))
    assert th.binding == "relative-bound"
    assert coupling_bound(cfg.at(e=th.value)) < 1.0
    assert coupling_bound(cfg.at(e=th.value + 0.01)) >= 1.0


def test_coupling_threshold_empty_grid_warns(tiny_ms):
    cfg = make_config(tiny_ms, e=0.1, p=(0.0, 0.0, 0.0), N_max=1, n_max=1)
    ops = model_operators(cfg)
    curve = sweep_energy_curve(ops, cfg)
    with pytest.warns(UserWarning, match="no admissible coupling"):
        th = bounds.coupling_threshold(ops, cfg, curve, e_values=np.array([5.0, 6.0]))
    assert th.value == 0.0


# -- spinless uniqueness ---------------------------------------------------------------


def _spinless_check(cfg, curve=None):
    # the model's ground spectrum and, unless given, its energy curve
    ops = model_operators(cfg)
    curve = sweep_energy_curve(ops, cfg) if curve is None else curve
    return bounds.spinless_uniqueness_check(cfg, curve, solve_model(ops, cfg.p, cfg.e, 6))


def test_spinless_uniqueness_at_zero_coupling(desk_ms):
    cfg = make_config(desk_ms, e=0.0, p=(0.0, 0.0, 0.0), with_spin=False)
    rep = _spinless_check(cfg, FreeEnergyCurve())
    assert rep.hypothesis_holds
    assert rep.e_squared_limit == np.inf   # E(0) = 0 makes the condition vacuous
    assert rep.count == 1 and rep.passed


def test_spinless_uniqueness_desk_model(desk_ms):
    cfg = make_config(desk_ms, e=0.2, p=(0.0, 0.0, 0.4), with_spin=False)
    rep = _spinless_check(cfg)
    assert rep.integral > 0.0
    assert rep.hypothesis_holds
    assert rep.count == 1
    assert rep.gap_above > 0.0
    assert rep.passed


def test_spinless_uniqueness_solves_nothing(desk_ms, monkeypatch):
    cfg = make_config(desk_ms, e=0.2, p=(0.0, 0.0, 0.4), with_spin=False)
    ops = model_operators(cfg)
    curve = sweep_energy_curve(ops, cfg)
    result = solve_model(ops, cfg.p, cfg.e, 6)

    def refuse(*args, **kwargs):
        raise AssertionError("the check solved")

    monkeypatch.setattr(spectra, "solve_lowest", refuse)
    monkeypatch.setattr(bounds, "sweep_energy_curve", refuse)
    rep = bounds.spinless_uniqueness_check(cfg, curve, result)
    assert rep.count == 1 and rep.passed


def test_spinless_uniqueness_refuses_spin(desk_ms):
    cfg = make_config(desk_ms, e=0.1, with_spin=True)
    with pytest.raises(PflabError):
        _spinless_check(cfg, FreeEnergyCurve())


def test_gauss_legendre_computes_each_order_once_and_returns_new_arrays(monkeypatch):
    calls = []

    def counted(n):
        calls.append(n)
        return leggauss(n)

    monkeypatch.setattr(quadrature, "leggauss", counted)
    gauss_legendre(0.0, 1.0, 41)
    gauss_legendre(-1.0, 2.0, 41)
    assert len(calls) <= 1
    x, w = leggauss(24)
    first = gauss_legendre(0.5, 6.0, 24)
    second = gauss_legendre(0.5, 6.0, 24)
    assert first[0].tobytes() == (0.5 * (x + 1.0) * (6.0 - 0.5) + 0.5).tobytes()
    assert first[1].tobytes() == (0.5 * (6.0 - 0.5) * w).tobytes()
    for a, b in zip(first, second):
        assert a is not b and a.flags.writeable and np.array_equal(a, b)
    first[0][:] = 0.0
    assert gauss_legendre(0.5, 6.0, 24)[0].tobytes() == second[0].tobytes()
