import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from pflab import bounds
from pflab.errors import BasisMismatchError, ConfigError, NonHermitianError
from pflab.fock import (FockBasis, Mode, ModeSet, axial_mode_set, enumerate_basis,
                        explicit_mode_set)
from pflab.model import (
    PHI_HAT_ZERO,
    Dispersion,
    FormFactor,
    ModelConfig,
    _boson_fields,
    assemble_hamiltonian,
    build_basis,
    build_operators,
    check_dispersion_axioms,
    coupling_bound,
    field_amplitudes,
    polarization_vectors,
)
from pflab.fock import hermiticity_defect
from pflab.spectra import solve_model

from conftest import CONFIG_DIR, DESK_EDGES, make_config
from oracles import (OccupationState, dense_hamiltonian, ladder_fields, rank,
                     sparse_sum_hamiltonian, sparse_sum_interaction,
                     vacuum_interaction_expectation)

SHIPPED = sorted(path.name for path in CONFIG_DIR.glob("*.json"))
TILTED_AXIS = np.array([1.0, 1.0, 0.5]) / 1.5


# -- dispersion and form factor --------------------------------------------------


def test_massive_dispersion_matches_formula():
    d = Dispersion(kind="massive", m_ph=0.7)
    r = np.array([0.0, 1.0, 2.5])
    assert np.allclose(d.omega(r), np.sqrt(r * r + 0.49))


def test_massless_needs_override(tiny_ms):
    with pytest.raises(ConfigError, match="massless"):
        ModelConfig(dispersion=Dispersion(kind="massless"),
                    form_factor=FormFactor(kind="gaussian", lam=1.0),
                    e=0.0, p=(0, 0, 0), with_spin=True,
                    mode_set=tiny_ms, N_max=1, n_max=1)
    cfg = ModelConfig(dispersion=Dispersion(kind="massless"),
                      form_factor=FormFactor(kind="gaussian", lam=1.0),
                      e=0.1, p=(0, 0, 0), with_spin=True,
                      mode_set=tiny_ms, N_max=1, n_max=1, allow_massless=True)
    assert assemble_hamiltonian(cfg).shape == (6, 6)


def test_unknown_kinds_rejected():
    with pytest.raises(ConfigError):
        Dispersion(kind="tachyonic")
    with pytest.raises(ConfigError):
        FormFactor(kind="box", lam=1.0)


def test_form_factor_normalization_constant():
    f = FormFactor(kind="gaussian", lam=2.0)
    assert f.phi_hat(0.0) == pytest.approx((2 * np.pi) ** -1.5, abs=1e-15)
    assert f.phi_hat(0.0) == pytest.approx(0.0634936359, abs=1e-9)
    s = FormFactor(kind="sharp", lam=1.5)
    assert s.phi_hat(1.5) == s.phi_hat(0.0) and s.phi_hat(1.6) == 0.0


def test_dispersion_axioms_massive_pass():
    rep = check_dispersion_axioms(Dispersion(kind="massive", m_ph=1.0), rng_seed=1)
    assert rep.gap_holds and rep.omega_min >= 1.0
    assert rep.subadditive and rep.isotropic


def test_dispersion_axioms_massless_gap_fails():
    rep = check_dispersion_axioms(Dispersion(kind="massless"), rng_seed=1)
    assert not rep.gap_holds
    assert rep.subadditive and rep.isotropic


def test_dispersion_axioms_quadratic_subadditivity_fails():
    rs = np.linspace(0.0, 12.0, 241)
    table = tuple((float(r), float(r * r)) for r in rs)
    custom = Dispersion(kind="custom", samples=table)
    # explicit counterexample k1 = k2 = (1,0,0): 1 + 1 < 4
    k = np.array([1.0, 0.0, 0.0])
    lhs = custom.omega(np.linalg.norm(k)) * 2
    rhs = custom.omega(np.linalg.norm(2 * k))
    assert lhs < rhs
    rep = check_dispersion_axioms(custom, rng_seed=3)
    assert rep.subadditivity_margin < 0.0


# -- polarization gauge -----------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.tuples(st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3)))
def test_polarization_frame_properties(k):
    kv = np.asarray(k)
    if np.linalg.norm(kv) < 1e-6:
        return
    e1, e2 = polarization_vectors(kv)
    khat = kv / np.linalg.norm(kv)
    assert abs(e1 @ e2) < 1e-12
    assert abs(e1 @ kv) < 1e-12 * max(1, np.linalg.norm(kv))
    assert abs(e2 @ kv) < 1e-12 * max(1, np.linalg.norm(kv))
    assert abs(np.linalg.norm(e1) - 1) < 1e-12
    assert abs(np.linalg.norm(e2) - 1) < 1e-12
    assert np.allclose(np.cross(e1, e2), khat, atol=1e-12)


def test_polarization_on_axis():
    e1, e2 = polarization_vectors((0.0, 0.0, 2.0))
    assert np.allclose(e1, [1, 0, 0]) and np.allclose(e2, [0, 1, 0])
    e1m, e2m = polarization_vectors((0.0, 0.0, -2.0))
    assert np.allclose(e1m, [1, 0, 0]) and np.allclose(e2m, [0, -1, 0])


def test_polarization_rejects_k_zero():
    with pytest.raises(ConfigError):
        polarization_vectors((0.0, 0.0, 0.0))


def test_transversality_of_amplitudes(desk_ms):
    cfg = make_config(desk_ms, e=0.2)
    g, h = field_amplitudes(cfg)
    karr = cfg.mode_set.k_array()
    assert np.max(np.abs(np.sum(g * karr, axis=1))) < 1e-14


# -- field operators ---------------------------------------------------------------
# A and B on the boson factor, as every term of H is built from them; with
# spin, a spin-up state's full index is its boson index.


def _fields(cfg, basis=None):
    return _boson_fields(basis or build_basis(cfg), *field_amplitudes(cfg))


def test_vector_potential_vacuum_expectation_zero(tiny_ms):
    cfg = make_config(tiny_ms, e=0.3, N_max=1, n_max=1)
    A, _, _ = _fields(cfg)
    for op in A:
        assert op[0, 0] == 0.0
        assert hermiticity_defect(op) == 0.0


def test_one_mode_amplitude_hand_value(tiny_ms):
    cfg = make_config(tiny_ms, e=0.3, N_max=1, n_max=1)
    basis = build_basis(cfg)
    A, _, _ = _fields(cfg, basis)
    # |1 photon, j=1> (x) spin up against the vacuum (x) spin up
    i = rank(basis, OccupationState((1, 0), 0))
    omega = np.sqrt(2.0)                       # |k| = 1, m_ph = 1
    phi = PHI_HAT_ZERO * np.exp(-0.5)
    want = phi * np.sqrt(0.5 / (2.0 * omega))  # V_m = 0.5, e1 = x
    assert A[0][i, 0] == pytest.approx(want, rel=1e-14)
    assert A[1][i, 0] == 0.0


def test_vector_potential_z_component_vanishes_axially(desk_ms):
    cfg = make_config(desk_ms, e=0.1)
    A, _, _ = _fields(cfg)
    assert A[2].nnz == 0


def test_magnetic_field_geometry(tiny_ms):
    cfg = make_config(tiny_ms, e=0.3, N_max=1, n_max=1)
    basis = build_basis(cfg)
    _, B, _ = _fields(cfg, basis)
    j1 = rank(basis, OccupationState((1, 0), 0))
    j2 = rank(basis, OccupationState((0, 1), 0))
    # k x e1 = y for k = +z: only B_y couples the j=1 photon
    assert B[1][j1, 0] != 0.0 and B[0][j1, 0] == 0.0 and B[2][j1, 0] == 0.0
    # k x e2 = -x: only B_x couples the j=2 photon
    assert B[0][j2, 0] != 0.0 and B[1][j2, 0] == 0.0 and B[2][j2, 0] == 0.0
    for op in B:
        dense = op.toarray()
        assert np.allclose(dense, dense.conj().T, atol=0.0)
        assert op[0, 0] == 0.0


# (mode set, N_max = n_max) of each model whose fields are checked against
# sparse arithmetic on the ladders
FIELD_CASES = {
    "tiny": ("tiny_ms", 2),
    "pair": ("pair_ms", 2),
    "desk": ("desk_ms", 2),
    "shell8": ([0.0, 0.3, 0.6, 0.9, 1.2, 1.7, 2.2, 2.8, 3.4], 3),
    "tilted": ("tilted", 2),
}


@pytest.mark.parametrize("amplitudes", ["linear", "complex"])
@pytest.mark.parametrize("case", sorted(FIELD_CASES))
def test_fields_from_the_entries_are_bitwise_the_sparse_arithmetic(case, amplitudes, request):
    modes, cutoff = FIELD_CASES[case]
    if modes == "tilted":
        ms = axial_mode_set(DESK_EDGES, axis=(1.0, 2.0, 2.0))
    elif isinstance(modes, str):
        ms = request.getfixturevalue(modes)
    else:
        ms = axial_mode_set(modes)
    cfg = make_config(ms, e=0.1, N_max=cutoff, n_max=cutoff)
    basis = build_basis(cfg)
    g, h = field_amplitudes(cfg)
    if amplitudes == "complex":     # as in the circular frame, with a phase on every mode
        phase = np.exp(2j * np.pi * np.random.default_rng(1).random((2, len(ms), 1)))
        g, h = g * phase[0], h * phase[1]
    A, B, C = _boson_fields(basis, g, h)
    A_want, B_want, C_want = ladder_fields(basis, g, h)
    for name, got, want in (*((f"A[{mu}]", A[mu], A_want[mu]) for mu in range(3)),
                            *((f"B[{mu}]", B[mu], B_want[mu]) for mu in range(3)),
                            ("C", C, C_want)):
        assert got.dtype == want.dtype == np.complex128, name
        for part in ("data", "indices", "indptr"):
            g_part, w_part = getattr(got, part), getattr(want, part)
            assert g_part.dtype == w_part.dtype and g_part.tobytes() == w_part.tobytes(), \
                (name, part)
    assert C.nnz > 0 or case != "tilted"


def test_field_amplitudes_reject_k_zero():
    modes = tuple(Mode(k=(0.0, 0.0, 0.0), weight=1.0, polarization_index=j)
                  for j in (1, 2))
    cfg = make_config(ModeSet(modes=modes), e=0.1, N_max=1, n_max=1)
    with pytest.raises(ConfigError, match="k = 0"):
        field_amplitudes(cfg)


# -- Hamiltonian assembly -----------------------------------------------------------


def test_free_hamiltonian_ground_values(desk_ms):
    for p, want in (((0.0, 0.0, 0.0), 0.0), ((0.0, 0.0, 0.4), 0.08)):
        cfg = make_config(desk_ms, e=0.0, p=p)
        H = assemble_hamiltonian(cfg)
        evs = np.linalg.eigvalsh(H.toarray())
        assert evs[0] == pytest.approx(want, abs=1e-12)
        assert evs[1] == pytest.approx(want, abs=1e-12)
        assert evs[2] > want + 1e-3


def test_assembly_matches_independent_dense_oracle(tiny_ms):
    cfg = make_config(tiny_ms, e=0.3, p=(0.0, 0.0, 0.2), N_max=2, n_max=2)
    H = assemble_hamiltonian(cfg).toarray()
    H_oracle = dense_hamiltonian(cfg)
    assert np.max(np.abs(H - H_oracle)) < 1e-12
    ours = np.linalg.eigvalsh(H)
    oracle = np.linalg.eigvalsh(H_oracle)
    assert abs(ours[0] - oracle[0]) < 1e-12


def test_assembly_matches_oracle_on_desk_model(desk_ms):
    cfg = make_config(desk_ms, e=0.2, p=(0.0, 0.0, 0.4))
    H = assemble_hamiltonian(cfg).toarray()
    H_oracle = dense_hamiltonian(cfg)
    assert np.max(np.abs(H - H_oracle)) < 1e-12


@pytest.mark.parametrize("with_spin", [True, False])
@pytest.mark.parametrize("mode_set", ["tiny_ms", "pair_ms"])
def test_assembly_matches_oracle_off_axis(mode_set, with_spin, request):
    # p_x, p_y != 0 exercise the -e p.A term through A_x and A_y
    cfg = make_config(request.getfixturevalue(mode_set), e=0.3, p=(0.1, -0.2, 0.3),
                      with_spin=with_spin)
    H = assemble_hamiltonian(cfg).toarray()
    assert np.max(np.abs(H - dense_hamiltonian(cfg))) < 1e-12


def test_spectrum_invariant_under_charge_reversal(pair_ms):
    # U = (-1)^N_f flips A and B and keeps P_f, so U H(p, e) U = H(p, -e)
    cfg = make_config(pair_ms, e=0.3, p=(0.1, -0.2, 0.3))
    basis = build_basis(cfg)
    H = assemble_hamiltonian(cfg, basis).toarray()
    H_rev = assemble_hamiltonian(cfg.at(e=-0.3), basis).toarray()
    parity = np.tile((-1.0) ** basis.occupation_array().sum(axis=1), 2)
    assert np.max(np.abs(parity[:, None] * H * parity[None, :] - H_rev)) < 1e-14
    evs = np.linalg.eigvalsh(H)
    assert np.max(np.abs(evs - np.linalg.eigvalsh(H_rev))) < 1e-12


def test_both_frames_share_one_field_pattern(shipped_configs, monkeypatch):
    # the ladder entries and their sort are made once per basis, for the
    # circular terms, the split's probe, the linear terms and the
    # pull-through's a_m psi alike
    calls = []
    lowering = FockBasis.lowering

    def counted(basis):
        calls.append(basis)
        return lowering(basis)

    monkeypatch.setattr(FockBasis, "lowering", counted)
    cfg = shipped_configs["desk_e010.json"]
    ops = build_operators(cfg)
    ops.sectors
    ops.linear
    ground = solve_model(ops, cfg.p, cfg.e, 1)
    bounds.pull_through_residual(ground.eigenvectors[:, 0], cfg, ground.ground_energy, ops)
    assert calls == [ops.basis]


def test_operator_set_is_exactly_hermitian(desk_ms):
    ops = build_operators(make_config(desk_ms, e=0.2))
    for op in (*ops.linear.A, ops.linear.C, ops.linear.sigma_B, ops.linear.A2):
        assert hermiticity_defect(op) == 0.0


@pytest.mark.parametrize("name", ["A", "sigma_B", "A2"])
def test_term_off_hermitian_is_refused_at_construction(desk_ms, name):
    # one off-diagonal entry scaled by 1 + 1e-12; C is empty on the z axis
    ops = build_operators(make_config(desk_ms, e=0.2))
    op = (ops.linear.A[0] if name == "A" else getattr(ops.linear, name)).copy()
    rows = np.repeat(np.arange(op.shape[0]), np.diff(op.indptr))
    op.data[np.flatnonzero((op.indices != rows) & (op.data != 0.0))[0]] *= 1.0 + 1e-12
    term = (op, *ops.linear.A[1:]) if name == "A" else op
    with pytest.raises(NonHermitianError, match=f"term {name}.* of H is not exactly Hermitian"):
        dataclasses.replace(ops.linear, **{name: term})


def test_one_operator_set_serves_every_point(pair_ms):
    cfg = make_config(pair_ms, e=0.3, p=(0.0, 0.0, 0.2))
    ops = build_operators(cfg)
    for p, e in (((0.1, -0.2, 0.3), 0.3), ((0.0, 0.0, -0.5), 0.15), ((0.4, 0.0, 0.0), 0.0)):
        direct = assemble_hamiltonian(cfg.at(p=p, e=e), ops.basis)
        diff = ops.linear.hamiltonian(p, e) - direct
        assert diff.nnz == 0 or np.abs(diff.data).max() == 0.0


def test_interaction_zero_at_e_zero(desk_ms):
    cfg = make_config(desk_ms, e=0.0)
    ops = build_operators(cfg)
    assert sparse_sum_interaction(ops.linear, cfg.p, cfg.e).nnz == 0
    H = assemble_hamiltonian(cfg)
    H0 = sp.diags(ops.linear.free_diagonal(cfg.p), format="csr")
    assert (H - H0).nnz == 0


def test_splitting_identity_is_exact(desk_ms):
    cfg = make_config(desk_ms, e=0.3, p=(0.0, 0.0, 0.4))
    basis = build_basis(cfg)
    ops = build_operators(cfg, basis)
    H = assemble_hamiltonian(cfg, basis)
    H0 = sp.diags(ops.linear.free_diagonal(cfg.p), format="csr")
    HI = sparse_sum_interaction(ops.linear, cfg.p, cfg.e)
    diff = H0 + HI - H
    assert diff.nnz == 0 or np.abs(diff.data).max() == 0.0


def _formation_models(shipped_configs):
    tilted = axial_mode_set([0.0, 0.6, 1.2, 2.2], axis=TILTED_AXIS)
    scattered = explicit_mode_set([((0.3, 0.1, 0.5), 0.4), ((-0.2, 0.6, 0.1), 0.3)])
    desk = shipped_configs["desk_e010.json"]
    return {**shipped_configs, "tilted": make_config(tilted, e=0.2),
            "scattered": desk.at(mode_set=scattered)}


@pytest.mark.parametrize("name", [*SHIPPED, "tilted", "scattered"])
def test_hamiltonian_is_bitwise_the_sparse_sum(shipped_configs, name):
    cfg = _formation_models(shipped_configs)[name]
    ops = build_operators(cfg)
    axis = np.asarray(cfg.mode_set.axis if cfg.mode_set.axial else (0.0, 0.0, 1.0))
    for p in (0.4 * axis, (0.1, -0.2, 0.3), (0.0, 0.0, 0.0)):
        for e in (0.0, 0.1, -0.2):
            got, want = ops.linear.hamiltonian(p, e), sparse_sum_hamiltonian(ops.linear, p, e)
            for part in ("data", "indices", "indptr"):
                assert getattr(got, part).dtype == getattr(want, part).dtype
                assert np.array_equal(getattr(got, part), getattr(want, part))


def test_vacuum_interaction_expectation_hand_sum(desk_ms):
    cfg = make_config(desk_ms, e=0.3)
    HI = sparse_sum_interaction(build_operators(cfg).linear, cfg.p, cfg.e)
    want = vacuum_interaction_expectation(cfg)
    assert want > 0.0
    assert HI[0, 0].real == pytest.approx(want, rel=1e-12)


def test_hermiticity_is_exact(desk_ms):
    cfg = make_config(desk_ms, e=0.25, p=(0.0, 0.0, 0.3))
    assert hermiticity_defect(assemble_hamiltonian(cfg)) == 0.0


def test_basis_mismatch_rejected(desk_ms, pair_ms):
    cfg = make_config(desk_ms, e=0.1)
    foreign = enumerate_basis(pair_ms, 2, 2, True)
    with pytest.raises(BasisMismatchError):
        assemble_hamiltonian(cfg, foreign)


def test_spin_doubling_at_zero_coupling(pair_ms):
    spin_cfg = make_config(pair_ms, e=0.0, p=(0.0, 0.0, 0.3), with_spin=True)
    spinless_cfg = make_config(pair_ms, e=0.0, p=(0.0, 0.0, 0.3), with_spin=False)
    spin_evs = np.sort(np.linalg.eigvalsh(assemble_hamiltonian(spin_cfg).toarray()))
    sl_evs = np.sort(np.linalg.eigvalsh(assemble_hamiltonian(spinless_cfg).toarray()))
    doubled = np.sort(np.concatenate([sl_evs, sl_evs]))
    assert np.allclose(spin_evs, doubled, atol=1e-12)


def test_parity_spectrum_symmetry(pair_ms):
    cfg = make_config(pair_ms, e=0.3, p=(0.0, 0.0, 0.35))
    cfg_m = cfg.at(p=(0.0, 0.0, -0.35))
    evs = np.linalg.eigvalsh(assemble_hamiltonian(cfg).toarray())
    evs_m = np.linalg.eigvalsh(assemble_hamiltonian(cfg_m).toarray())
    assert np.max(np.abs(evs - evs_m)) < 1e-10


# -- coupling bound -----------------------------------------------------------------


def test_coupling_bound_zero_at_zero(desk_ms):
    assert coupling_bound(make_config(desk_ms, e=0.0)) == 0.0


def test_coupling_bound_functional_form(desk_ms):
    cfg1 = make_config(desk_ms, e=0.1)
    cfg2 = make_config(desk_ms, e=0.2)

    def omega(r):
        return np.sqrt(r * r + 1.0)

    def phi2(r):
        return (PHI_HAT_ZERO * np.exp(-r * r / 2.0)) ** 2

    i2, _ = quad(lambda r: 4 * np.pi * r * r * (omega(r) ** -2 + 1.0) * phi2(r),
                 0, np.inf, epsabs=1e-15)
    got = coupling_bound(cfg2) - 2.0 * coupling_bound(cfg1)
    assert got == pytest.approx(2.0 * 0.1**2 * i2, rel=1e-9)


def test_coupling_bound_against_refined_quadrature(desk_ms):
    cfg = make_config(desk_ms, e=0.1)

    def omega(r):
        return np.sqrt(r * r + 1.0)

    def phi2(r):
        return (PHI_HAT_ZERO * np.exp(-r * r / 2.0)) ** 2

    i1, _ = quad(lambda r: 4 * np.pi * r * r * (omega(r) ** -2 + omega(r)) * phi2(r),
                 0, np.inf, epsabs=1e-15)
    i2, _ = quad(lambda r: 4 * np.pi * r * r * (omega(r) ** -2 + 1.0) * phi2(r),
                 0, np.inf, epsabs=1e-15)
    oracle = 0.1 * np.sqrt(i1) + 0.01 * i2
    assert coupling_bound(cfg) == pytest.approx(oracle, rel=1e-6)


def test_coupling_bound_divergent_reports_inf(tiny_ms):
    # omega vanishing on a whole interval puts zeros on the quadrature nodes
    rs = np.linspace(0.0, 12.0, 25)
    table = tuple((float(r), max(0.0, float(r) - 1.0)) for r in rs)
    cfg = make_config(tiny_ms, e=0.1, N_max=1, n_max=1).at(
        dispersion=Dispersion(kind="custom", samples=table), allow_massless=True)
    assert coupling_bound(cfg) == np.inf
