"""The mirror that maps angular-momentum sector z onto -z, and the sector
solve that uses it: only the sectors with label >= 0 are kept and solved.

The package applies the mirror in the circular frame, as the phased index
permutation P of ``model.circular_mirror``; each sector -z maps its
coordinates back through W_-z P_z (W the helicity rotation).  The reference
is the linear-frame reflection U = (n.sigma) (x) (-1)^N_2 of
``oracles.mirror_operator``: it is unitary, reverses J_axis and commutes
with H, and U W_z is what W_-z P_z must equal."""

import numpy as np
import pytest
import scipy.sparse as sp

import pflab.model as model_mod
import pflab.spectra as spectra_mod
from pflab.errors import PflabError
from pflab.fock import PAULI, axial_mode_set
from pflab.model import build_operators, circular_mirror
from pflab.spectra import solve_lowest, solve_model

from conftest import make_config
from oracles import adjoint, mirror_operator, total_jz

TILTED_AXIS = np.array([1.0, 1.0, 0.5]) / 1.5


def _models(shipped_configs):
    desk = shipped_configs["desk_e010.json"]
    tilted = axial_mode_set([0.0, 0.6, 1.2, 2.2], axis=TILTED_AXIS)
    return {
        "desk_e010": desk,
        "desk_e010 spinless": desk.at(with_spin=False),
        "desk_spinless_e020": shipped_configs["desk_spinless_e020.json"],
        "tilted": make_config(tilted, e=0.2, p=tuple(0.3 * TILTED_AXIS)),
        "tilted spinless": make_config(tilted, e=0.2, p=tuple(-0.3 * TILTED_AXIS),
                                       with_spin=False),
    }


MODELS = ["desk_e010", "desk_e010 spinless", "desk_spinless_e020", "tilted",
          "tilted spinless"]


@pytest.fixture(scope="module")
def models(shipped_configs):
    out = {}
    for name, cfg in _models(shipped_configs).items():
        ops = build_operators(cfg)
        out[name] = (cfg, ops, mirror_operator(ops.basis))
    return out


def _max_entry(op: sp.spmatrix) -> float:
    return float(np.abs(op.tocsr().data).max(initial=0.0))


@pytest.mark.parametrize("name", MODELS)
def test_mirror_is_unitary(models, name):
    _, ops, U = models[name]
    eye = sp.identity(ops.basis.dimension, dtype=complex, format="csr")
    assert _max_entry(adjoint(U) @ U - eye) < 1e-15
    assert _max_entry(U @ adjoint(U) - eye) < 1e-15


@pytest.mark.parametrize("name", MODELS)
def test_mirror_reverses_the_angular_momentum(models, name):
    _, ops, U = models[name]
    J = total_jz(ops.basis)
    assert _max_entry(J) > 0.5
    assert _max_entry(U @ J @ adjoint(U) + J) < 1e-12


@pytest.mark.parametrize("name", MODELS)
def test_mirror_commutes_with_the_hamiltonian(models, name):
    cfg, ops, U = models[name]
    H = ops.linear.hamiltonian(cfg.p, cfg.e)
    assert _max_entry(U @ H @ adjoint(U) - H) < 1e-12


@pytest.mark.parametrize("name", [*MODELS, "rung3"])
def test_negative_sectors_map_back_through_the_mirror(models, shipped_configs, name):
    # W_-z P_z against U W_z: bitwise on the z axis, to rounding on the tilted one
    if name == "rung3":
        ops = build_operators(shipped_configs["desk_e010.json"].at(N_max=3, n_max=3))
        U = mirror_operator(ops.basis)
    else:
        _, ops, U = models[name]
    split = ops.sectors
    for i in range(split.first_upper):
        got, want = split.to_linear[i], U @ split.to_linear[-1 - i]
        assert split.labels[i] == -split.labels[-1 - i] < 0.0
        if name.startswith("tilted"):
            assert _max_entry(got - want) <= 1e-15
            continue
        want.sort_indices()
        for part in ("indices", "indptr", "data"):
            assert np.array_equal(getattr(got, part), getattr(want, part))
        for part in (np.real, np.imag):
            assert np.array_equal(np.signbit(part(got.data)), np.signbit(part(want.data)))


def _wrong_mirrors():
    def identity(basis):
        return np.arange(basis.dimension), np.ones(basis.dimension)

    def unphased_spin_flip(basis):
        # the right index map, but the spin flip without F's phases: sigma.B
        # changes sign in its spin-flipping part
        index, _ = circular_mirror(basis)
        return index, np.ones(basis.dimension)

    return {"identity": (identity, "mapping angular-momentum sector z onto -z"),
            "unphased spin flip": (unphased_spin_flip, "changes the term sigma.B")}


@pytest.mark.parametrize("wrong", _wrong_mirrors().values(), ids=_wrong_mirrors().keys())
def test_wrong_mirror_is_refused_before_any_solve(shipped_configs, monkeypatch, wrong):
    mirror, message = wrong
    solves = []

    def recorded(*args, **kwargs):
        solves.append(1)
        return solve_lowest(*args, **kwargs)

    monkeypatch.setattr(model_mod, "circular_mirror", mirror)
    monkeypatch.setattr(spectra_mod, "solve_lowest", recorded)
    cfg = shipped_configs["desk_e010.json"]
    ops = build_operators(cfg)
    with pytest.raises(PflabError, match=message):
        solve_model(ops, cfg.p, cfg.e, 6)
    assert solves == []
    with pytest.raises(PflabError, match=message):
        ops.sectors


def test_sector_leak_is_refused_before_any_solve(shipped_configs, monkeypatch):
    # sigma_y (x) 1 commutes with U = sigma_y (x) (-1)^N_2, so the mirror keeps
    # every term, but it flips u.sigma and so couples sector z to z +- 1; the
    # sector terms, and the mirror check on them, are in the circular frame,
    # so the probe that ties them to the linear terms is what sees it: the
    # defect is added to the linear sigma.B where the probe applies it
    solves = []

    def recorded(*args, **kwargs):
        solves.append(1)
        return solve_lowest(*args, **kwargs)

    linear_products = model_mod.linear_products

    def with_defect(basis, g, h, X):
        *A, C, sigma_B, A2 = linear_products(basis, g, h, X)
        eye_b = sp.identity(basis.boson_dimension, dtype=complex, format="csr")
        return *A, C, sigma_B + 0.05 * (sp.kron(PAULI[2], eye_b, format="csr") @ X), A2

    monkeypatch.setattr(spectra_mod, "solve_lowest", recorded)
    monkeypatch.setattr(model_mod, "linear_products", with_defect)
    cfg = shipped_configs["desk_e010.json"]
    ops = build_operators(cfg)
    with pytest.raises(PflabError, match="not the helicity rotation of its linear form"):
        solve_model(ops, cfg.p, cfg.e, 6)
    assert solves == []
    with pytest.raises(PflabError, match="not the helicity rotation of its linear form"):
        ops.sectors


def test_spin_frame_off_the_axis_leaks_between_sectors(shipped_configs, monkeypatch):
    # a spin frame along x instead of the axis z: the labels +-1/2 then name
    # the wrong spin states, and the circular sigma.B couples sector z to others
    solves = []

    def recorded(*args, **kwargs):
        solves.append(1)
        return solve_lowest(*args, **kwargs)

    def along_x(u):
        return np.array([[1.0, -1.0], [1.0, 1.0]], dtype=complex) / np.sqrt(2.0)

    monkeypatch.setattr(spectra_mod, "solve_lowest", recorded)
    monkeypatch.setattr(model_mod, "_spin_frame", along_x)
    cfg = shipped_configs["desk_e010.json"]
    ops = build_operators(cfg)
    with pytest.raises(PflabError, match="couples angular-momentum sector"):
        solve_model(ops, cfg.p, cfg.e, 6)
    assert solves == []


def test_spin_factor_that_flips_no_spin_is_refused(shipped_configs, monkeypatch):
    # a spin frame along y, the line n of the polarization-2 vectors: n.sigma
    # is then diagonal in it, so the mirror's spin factor F flips no spin
    def along_y(u):
        return np.array([[1.0, 1.0], [1j, -1j]], dtype=complex) / np.sqrt(2.0)

    monkeypatch.setattr(model_mod, "_spin_frame", along_y)
    ops = build_operators(shipped_configs["desk_e010.json"])
    with pytest.raises(PflabError, match="is no spin flip along the axis"):
        ops.sectors


def test_one_solve_per_nonnegative_sector(shipped_configs, monkeypatch):
    cfg = shipped_configs["desk_e010.json"]
    ops = build_operators(cfg)
    split = ops.sectors
    sizes = dict(zip(split.labels, np.diff(split.starts)))
    calls = []

    def recorded(H, n_eig, **kwargs):
        calls.append(H.shape[0])
        return solve_lowest(H, n_eig, **kwargs)

    monkeypatch.setattr(spectra_mod, "solve_lowest", recorded)
    got = solve_model(ops, cfg.p, cfg.e, 6)
    assert sorted(calls) == sorted(sizes[z] for z in split.labels if z >= 0.0)
    assert [s.mirror_of for s in got.sectors] == [2.5, 1.5, 0.5, None, None, None]


def test_mirrored_pairs_are_eigenpairs_of_their_sector(models):
    cfg, ops, U = models["desk_e010"]
    H = ops.linear.hamiltonian(cfg.p, cfg.e)
    got = solve_model(ops, cfg.p, cfg.e, 6)
    split = ops.sectors
    resid = np.linalg.norm(H @ got.eigenvectors - got.eigenvectors * got.eigenvalues, axis=0)
    assert resid.max() < 1e-10
    # the ground doublet: one vector in -1/2, its mirror image in +1/2
    minus, plus = (split.to_linear[split.labels.index(z)] for z in (-0.5, 0.5))
    v0, v1 = got.eigenvectors[:, 0], got.eigenvectors[:, 1]
    assert got.eigenvalues[0] == got.eigenvalues[1]
    assert np.linalg.norm(minus.conj().T @ v0) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(plus.conj().T @ v1) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(U @ v1 - v0) < 1e-12
