import numpy as np
import pytest

from pflab.errors import NotAxialError, PflabError
from pflab.fock import (
    Mode,
    ModeSet,
    enumerate_basis,
    hermiticity_defect,
)
from pflab.model import (
    assemble_hamiltonian,
    build_basis,
    build_operators,
    circular_labels,
    helicity_rotation,
    rotation_matrix,
)
from pflab.spectra import detect_ground_cluster, ground_sector_labels, solve_lowest, solve_model

from conftest import make_config
from oracles import (
    OccupationState,
    adjoint,
    dense_sector_energies,
    helicity_operator,
    rank,
    rotation_invariance_check,
    total_jz,
)


@pytest.fixture(scope="module")
def scattered_ms():
    pts = [((0.3, 0.1, 0.9), 0.4), ((-0.5, 0.2, 0.1), 0.3)]
    modes = []
    for k, w in pts:
        for j in (1, 2):
            modes.append(Mode(k=k, weight=w, polarization_index=j))
    return ModeSet(modes=tuple(modes))


# -- helicity ---------------------------------------------------------------------


def test_helicity_annihilates_vacuum(pair_ms):
    basis = enumerate_basis(pair_ms, 2, 2, True)
    S = helicity_operator(basis)
    assert hermiticity_defect(S) == 0.0
    vac = np.zeros(basis.dimension)
    vac[0] = 1.0
    assert np.linalg.norm(S @ vac) == 0.0


def test_circular_photon_is_helicity_eigenstate(pair_ms):
    basis = enumerate_basis(pair_ms, 2, 2, False)
    S = helicity_operator(basis)
    j1 = rank(basis, OccupationState((1, 0, 0, 0), None))   # +z, linear 1
    j2 = rank(basis, OccupationState((0, 1, 0, 0), None))   # +z, linear 2
    state = np.zeros(basis.dimension, dtype=complex)
    state[j1] = 1.0 / np.sqrt(2.0)
    state[j2] = 1.0j / np.sqrt(2.0)
    assert np.linalg.norm(S @ state - state) < 1e-14
    # at the -z point the same combination has the opposite helicity
    m1 = rank(basis, OccupationState((0, 0, 1, 0), None))
    m2 = rank(basis, OccupationState((0, 0, 0, 1), None))
    state_m = np.zeros(basis.dimension, dtype=complex)
    state_m[m1] = 1.0 / np.sqrt(2.0)
    state_m[m2] = 1.0j / np.sqrt(2.0)
    assert np.linalg.norm(S @ state_m + state_m) < 1e-14


def test_helicity_spectrum_bounded_by_photon_number(pair_ms):
    basis = enumerate_basis(pair_ms, 2, 2, False)
    evs = np.linalg.eigvalsh(helicity_operator(basis).toarray())
    assert np.max(np.abs(evs - np.round(evs))) < 1e-12
    assert set(np.round(evs).astype(int)) <= {-2, -1, 0, 1, 2}


def test_helicity_refuses_scattered_modes(scattered_ms):
    basis = enumerate_basis(scattered_ms, 1, 1, True)
    with pytest.raises(NotAxialError):
        helicity_operator(basis)


# -- total angular momentum ----------------------------------------------------------


def test_vacuum_spin_labels(pair_ms):
    basis = enumerate_basis(pair_ms, 2, 2, True)
    J = total_jz(basis)
    vac_up, vac_down = basis.vacuum_indices()
    up = np.zeros(basis.dimension)
    up[vac_up] = 1.0
    down = np.zeros(basis.dimension)
    down[vac_down] = 1.0
    assert np.allclose(J @ up, 0.5 * up, atol=1e-14)
    assert np.allclose(J @ down, -0.5 * down, atol=1e-14)


def test_helicity_plus_spin_additivity(pair_ms):
    basis = enumerate_basis(pair_ms, 2, 2, True)
    J = total_jz(basis)
    j1 = rank(basis, OccupationState((1, 0, 0, 0), 1))   # +helicity photon, spin down
    j2 = rank(basis, OccupationState((0, 1, 0, 0), 1))
    state = np.zeros(basis.dimension, dtype=complex)
    state[j1] = 1.0 / np.sqrt(2.0)
    state[j2] = 1.0j / np.sqrt(2.0)
    assert np.linalg.norm(J @ state - 0.5 * state) < 1e-14


def test_total_jz_spectrum_is_half_integer(pair_ms):
    basis = enumerate_basis(pair_ms, 2, 2, True)
    evs = np.linalg.eigvalsh(total_jz(basis).toarray())
    twice = 2.0 * evs
    assert np.max(np.abs(twice - np.round(twice))) < 1e-12
    assert np.all(np.abs(np.round(twice).astype(int) % 2) == 1)


def test_total_jz_spinless_is_integer(pair_ms):
    basis = enumerate_basis(pair_ms, 2, 2, False)
    evs = np.linalg.eigvalsh(total_jz(basis).toarray())
    assert np.max(np.abs(evs - np.round(evs))) < 1e-12


# -- the circular-basis rotation -------------------------------------------------------


def test_helicity_rotation_is_unitary(pair_ms):
    basis = enumerate_basis(pair_ms, 2, 2, True)
    W = helicity_rotation(basis)
    eye = np.eye(basis.dimension)
    assert np.max(np.abs((adjoint(W) @ W).toarray() - eye)) < 1e-12
    assert np.max(np.abs((W @ adjoint(W)).toarray() - eye)) < 1e-12


def test_helicity_rotation_diagonalizes_jz(pair_ms):
    basis = enumerate_basis(pair_ms, 2, 2, True)
    W = helicity_rotation(basis)
    J = total_jz(basis)
    rotated = (adjoint(W) @ J @ W).toarray()
    off = rotated - np.diag(np.diag(rotated))
    assert np.max(np.abs(off)) < 1e-12
    assert np.allclose(np.diag(rotated).real, circular_labels(basis), atol=1e-12)


def test_helicity_rotation_needs_room_for_mixing(pair_ms):
    basis = enumerate_basis(pair_ms, N_max=2, n_max=1, with_spin=True)
    with pytest.raises(PflabError, match="n_max >= N_max"):
        helicity_rotation(basis)


# -- sector analysis --------------------------------------------------------------------


def _sector_analysis(cfg, require_half_pair=True):
    ops = build_operators(cfg)
    result = solve_model(ops, cfg.p, cfg.e, 6)
    return ground_sector_labels(result, require_half_pair=require_half_pair)


def test_sector_decomposition_free_theory(pair_ms):
    cfg = make_config(pair_ms, e=0.0, p=(0.0, 0.0, 0.0))
    analysis = _sector_analysis(cfg)
    assert analysis.winners == (-0.5, 0.5)
    assert analysis.ok
    assert analysis.sector_energies == pytest.approx(dense_sector_energies(cfg), abs=1e-12)
    for z, e_z in analysis.sector_energies.items():
        if z in (-0.5, 0.5):
            assert e_z == pytest.approx(0.0, abs=1e-12)
        else:
            assert e_z > 0.5


def test_sector_minimum_matches_global_energy(desk_ms):
    cfg = make_config(desk_ms, e=0.2, p=(0.0, 0.0, 0.4))
    H = assemble_hamiltonian(cfg)
    cluster = detect_ground_cluster(solve_lowest(H, 6))
    analysis = _sector_analysis(cfg)
    assert analysis.winners == (-0.5, 0.5)
    assert analysis.sector_energies == pytest.approx(dense_sector_energies(cfg), abs=1e-10)
    assert min(analysis.sector_energies.values()) == pytest.approx(
        cluster.energy, abs=1e-10)


def test_ground_sector_labels_needs_a_sector_solve(desk_ms):
    cfg = make_config(desk_ms, e=0.2, p=(0.1, 0.0, 0.4))
    result = solve_model(build_operators(cfg), cfg.p, cfg.e, 4)
    with pytest.raises(PflabError, match="not solved by angular-momentum sectors"):
        ground_sector_labels(result)


def test_commutator_vanishes_for_all_couplings(desk_ms):
    for e in (0.0, 0.2, 2.0):
        cfg = make_config(desk_ms, e=e, p=(0.0, 0.0, 0.4))
        basis = build_basis(cfg)
        H = assemble_hamiltonian(cfg, basis)
        J = total_jz(basis)
        comm = (H @ J - J @ H).tocoo()
        worst = np.abs(comm.data).max() if comm.nnz else 0.0
        assert worst < 1e-10


def test_ground_sector_labels_ungated_reports_without_failure(pair_ms):
    cfg = make_config(pair_ms, e=2.0, p=(0.0, 0.0, 0.2))
    analysis = _sector_analysis(cfg, require_half_pair=False)
    assert analysis.ok
    assert len(analysis.winners) >= 1


# -- rotation invariance ----------------------------------------------------------------


def test_rotation_about_axis_is_exact(desk_ms):
    cfg = make_config(desk_ms, e=0.2, p=(0.0, 0.0, 0.4))
    R = rotation_matrix((0, 0, 1), 0.83)
    chk = rotation_invariance_check(cfg, [R])
    assert chk.max_discrepancy < 1e-10


def test_point_reflection_symmetry(desk_ms):
    cfg = make_config(desk_ms, e=0.2, p=(0.0, 0.0, 0.4))
    chk = rotation_invariance_check(cfg, [-np.eye(3)])
    assert chk.max_discrepancy < 1e-10


def test_free_theory_rotated_momentum(desk_ms):
    # at e = 0 the energy is |p|^2/2 for any momentum, including off-axis
    # ones, so axis rotations moving p are exact symmetries of the spectrum
    cfg = make_config(desk_ms, e=0.0, p=(0.3, 0.0, 0.1))
    R = rotation_matrix((0, 0, 1), 1.2)
    chk = rotation_invariance_check(cfg, [R, R @ R])
    assert chk.max_discrepancy < 1e-12


def test_non_symmetry_rotation_rejected(desk_ms):
    cfg = make_config(desk_ms, e=0.1, p=(0.0, 0.0, 0.2))
    R = rotation_matrix((1, 0, 0), 0.4)   # tilts the axis off the mode set
    with pytest.raises(PflabError, match="not a symmetry"):
        rotation_invariance_check(cfg, [R])
