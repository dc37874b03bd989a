"""The antiunitary Theta = (-1)^N_2 K that makes the on-axis sector blocks
real, and the real sector path that rests on it.

K is complex conjugation in the linear basis and N_2 the photon number in
polarization-2 modes.  On the z axis Theta is time reversal composed with a
pi rotation about the polarization-2 line (the y axis): on the spin the two
cancel, (-i sigma_y)(i sigma_y K) = K.  Theta commutes with every term of
H(t z, e) and keeps each J_z sector, and the helicity rotation W satisfies
W W^T = 1 (x) (-1)^N_2, that is W+ Theta W = K.  Each sector term, built
in the circular frame and equal to W_z+ O W_z (``rotated_sector_terms``),
is therefore real, and ``ModelOperators.sectors`` stores the sector terms
as float64.  On a tilted axis the spin frame carries phases, and the terms
of a model with spin stay complex."""

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

import pflab.spectra as spectra_mod
from pflab.fock import axial_mode_set, spin_tensor
from pflab.model import build_operators, helicity_rotation
from pflab.spectra import solve_lowest, solve_model

from conftest import make_config
from oracles import rotated_sector_terms

TILTED_AXIS = np.array([1.0, 1.0, 0.5]) / 1.5
SHIPPED = ["desk_e000.json", "desk_e005.json", "desk_e010.json", "desk_e020.json",
           "desk_p0_e010.json", "desk_spinless_e020.json", "massless_e010.json"]
THETA_MODELS = ["desk_e010.json", "desk_spinless_e020.json", "rung3"]


@pytest.fixture(scope="module")
def operator_sets(shipped_configs):
    configs = dict(shipped_configs)
    # the N_max = n_max = 3 rung of the cutoff ladder (dimension 1938)
    configs["rung3"] = shipped_configs["desk_e010.json"].at(N_max=3, n_max=3)
    tilted = axial_mode_set([0.0, 0.6, 1.2, 2.2], axis=TILTED_AXIS)
    configs["tilted"] = make_config(tilted, e=0.2, p=tuple(0.3 * TILTED_AXIS))
    configs["tilted spinless"] = configs["tilted"].at(with_spin=False)
    return {name: (cfg, build_operators(cfg)) for name, cfg in configs.items()}


def theta_parity(basis) -> sp.csr_matrix:
    """1 (x) (-1)^N_2: Theta = theta_parity K."""
    second = np.array([m.polarization_index == 2 for m in basis.mode_set.modes])
    parity = (-1.0) ** basis.occupation_array()[:, second].sum(axis=1)
    return spin_tensor(sp.diags(parity.astype(complex), format="csr"), basis)


def theta_conjugate(P: sp.csr_matrix, op: sp.spmatrix) -> sp.csr_matrix:
    """Theta O Theta^-1 = P conj(O) P."""
    return (P @ op.conjugate() @ P).tocsr()


def _max_entry(op: sp.spmatrix) -> float:
    return float(np.abs(op.tocsr().data).max(initial=0.0))


@pytest.mark.parametrize("name", THETA_MODELS)
def test_theta_is_conjugation_in_the_circular_frame(operator_sets, name):
    _, ops = operator_sets[name]
    W = helicity_rotation(ops.basis)
    assert _max_entry(W @ W.T - theta_parity(ops.basis)) < 1e-15


@pytest.mark.parametrize("name", THETA_MODELS)
def test_theta_commutes_with_the_on_axis_terms(operator_sets, name):
    _, ops = operator_sets[name]
    P = theta_parity(ops.basis)
    # A_z and C vanish here (transverse polarizations, P_f along z); sigma.B
    # (with spin) and A^2 do not
    terms = (ops.linear.A[2], ops.linear.C, ops.linear.sigma_B, ops.linear.A2)
    assert _max_entry(ops.linear.A2) > 0.0
    assert (_max_entry(ops.linear.sigma_B) > 0.0) == ops.basis.with_spin
    for op in terms:
        assert _max_entry(theta_conjugate(P, op) - op) == 0.0
    # the diagonals are real, so Theta keeps them too
    assert ops.free_diag.dtype == ops.pf.dtype == np.float64


def test_theta_flips_the_off_axis_potential(operator_sets):
    # A_y is built from the polarization-2 modes, whose vectors lie along y:
    # H(t z) does not contain it, but a momentum off the axis would
    _, ops = operator_sets["desk_e010.json"]
    P = theta_parity(ops.basis)
    A_y = ops.linear.A[1]
    assert _max_entry(A_y) > 0.0
    assert _max_entry(theta_conjugate(P, A_y) + A_y) == 0.0


@pytest.mark.parametrize("name", [*SHIPPED, "rung3"])
def test_on_axis_sector_terms_are_real(operator_sets, name):
    cfg, ops = operator_sets[name]
    upper = ops.sectors.upper
    assert upper.C.dtype == np.float64
    assert all(op.dtype == np.float64 for op in (*upper.A, upper.sigma_B, upper.A2))
    t = ops.axis_coordinate(cfg.p)
    assert all(block.dtype == np.float64 for block in ops.sectors.upper_blocks(t, cfg.e))


@pytest.mark.parametrize("name", [*SHIPPED, "tilted", "tilted spinless"])
def test_sector_terms_match_the_rotated_linear_terms(operator_sets, name):
    # the terms built in the circular frame against the linear-frame terms
    # conjugated by the helicity rotation, block by block
    _, ops = operator_sets[name]
    split = ops.sectors
    upper = split.upper
    expected, _ = rotated_sector_terms(ops)
    for k, term in enumerate((upper.A[0], upper.C, upper.sigma_B, upper.A2)):
        want = sla.block_diag(*(blocks[k] for blocks in expected))
        assert np.abs(term.toarray() - want).max() <= 1e-14 * np.abs(want).max()
    if ops.basis.mode_set.axis == (0.0, 0.0, 1.0):
        assert all(op.dtype == np.float64 for op in (*upper.A, upper.C, upper.sigma_B, upper.A2))
        assert split.leak_max == 0.0


def test_real_blocks_are_the_rotated_hamiltonian(operator_sets):
    cfg, ops = operator_sets["desk_e010.json"]
    split = ops.sectors
    t = ops.axis_coordinate(cfg.p)
    H = ops.linear.hamiltonian(cfg.p, cfg.e)
    for z, block in zip(split.labels[split.first_upper:], split.upper_blocks(t, cfg.e)):
        W_z = split.to_linear[split.labels.index(z)]
        rotated = (W_z.conj().T @ H @ W_z).toarray()
        assert np.abs(rotated - block.toarray()).max() < 1e-13


def test_eigenvectors_turn_complex_only_in_the_linear_basis(operator_sets, monkeypatch):
    cfg, ops = operator_sets["desk_e010.json"]
    dtypes = []

    def recorded(H, n_eig, **kwargs):
        result = solve_lowest(H, n_eig, **kwargs)
        dtypes.append((H.dtype, result.eigenvectors.dtype))
        return result

    monkeypatch.setattr(spectra_mod, "solve_lowest", recorded)
    got = solve_model(ops, cfg.p, cfg.e, 6)
    assert dtypes and all(d == (np.float64, np.float64) for d in dtypes)
    assert got.eigenvectors.dtype == np.complex128


def test_tilted_axis_keeps_complex_sector_terms():
    ms = axial_mode_set([0.0, 0.6, 1.2, 2.2], axis=TILTED_AXIS)
    cfg = make_config(ms, e=0.2, p=tuple(0.3 * TILTED_AXIS))
    upper = build_operators(cfg).sectors.upper
    assert upper.C.dtype == np.complex128
    assert all(op.dtype == np.complex128 for op in (*upper.A, upper.sigma_B, upper.A2))
    # the phases of the spin frame along the tilted axis
    assert np.abs(upper.sigma_B.data.imag).max() > 0.05
    # without spin those phases are gone, and the photon part alone is real
    spinless = build_operators(cfg.at(with_spin=False)).sectors.upper
    assert spinless.C.dtype == np.float64
