"""Independent reference implementations used to cross-check the package.

Everything here is deliberately built along a different code path from
src/pflab: brute-force enumeration instead of the numpy row build, a
dictionary of occupation tuples instead of the counting-table rank, dense
matrices instead of sparse, the unexpanded operator square instead of the
termwise expansion, a dense eigendecomposition of the angular momentum
instead of the combinatorial circular-polarization frame, the linear-frame
terms conjugated by the helicity rotation instead of the terms built in the
circular frame, and closed-form second-order perturbation theory instead of
eigensolves.  Three checks that no command runs live here too: the sparse
J_axis built from the ladder operators (``total_jz``), against which the
circular frame is tested; the mirror as a linear-frame operator
(``mirror_operator``), against which the circular-frame mirror is tested;
and E(p) against E(Rp) over the symmetries of a mode set
(``rotation_invariance_check``).  So do the operators and helpers that only
tests use: a_m and a_m+ as sparse matrices (``annihilation_matrix``,
``creation_matrix``), the fields by sparse arithmetic on them
(``ladder_fields``), the photon number, the field energy and the field
momentum, the mode-set symmetry tests and the free energy curve, and the
index of one occupation state (``rank`` of an ``OccupationState``).  H(p, e) by scipy's sparse sum
of the terms (``sparse_sum_hamiltonian``) is the reference for the one
in-place formation of ``HamiltonianTerms``.
"""

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from pflab.errors import PflabError
from pflab.fock import spin_tensor
from pflab.model import (_axis_direction, build_operators, circular_labels, helicity_rotation,
                         polarization_frame)
from pflab.spectra import solve_model

#: Relative tolerance on k-points and weights in ``is_symmetric_under``.
SYMMETRY_TOL = 1e-10

SIGMA = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def adjoint(op):
    """Conjugate transpose as a canonical CSR matrix."""
    out = op.conjugate().transpose().tocsr()
    out.sum_duplicates()
    out.sort_indices()
    return out


@dataclass(frozen=True)
class OccupationState:
    """Occupation numbers per mode plus the spin index (None in spinless bases)."""

    occupations: tuple[int, ...]
    spin: Optional[int] = None


def rank(basis, state):
    """Full-basis index of ``state``: the basis's counting map
    (``FockBasis.boson_index``) on its occupations, in the block of its spin
    (0 = up, 1 = down); an inadmissible state is refused with ValueError."""
    if (state.spin is not None) != basis.with_spin:
        raise ValueError("spin index presence must match the basis")
    occ = np.asarray(state.occupations)
    if (occ.shape != (len(basis.mode_set),) or not np.issubdtype(occ.dtype, np.integer)
            or occ.min() < 0 or occ.max() > basis.n_max or occ.sum() > basis.N_max):
        raise ValueError(f"state {state.occupations} is not admissible in this basis")
    b = int(basis.boson_index(occ[None, :])[0])
    if not basis.with_spin:
        return b
    if state.spin not in (0, 1):
        raise ValueError(f"spin index must be 0 (up) or 1 (down), got {state.spin}")
    return state.spin * basis.boson_dimension + b


def brute_force_occupations(n_modes, N_max, n_max):
    """Every admissible occupation vector, graded by total then lexicographic."""
    occs = [occ for occ in itertools.product(range(n_max + 1), repeat=n_modes)
            if sum(occ) <= N_max]
    return sorted(occs, key=lambda t: (sum(t), t))


def photon_occupations(n_modes, N_max, n_max):
    """The list of ``brute_force_occupations``, built from the multisets of at
    most N_max photons over the modes: a 16-mode desk model has 153 of them
    against 43 million vectors in the full product."""
    occs = []
    for total in range(N_max + 1):
        for photons in itertools.combinations_with_replacement(range(n_modes), total):
            occ = tuple(photons.count(m) for m in range(n_modes))
            if max(occ, default=0) <= n_max:
                occs.append(occ)
    return sorted(occs, key=lambda t: (sum(t), t))


def polarization_pair(k):
    """Transverse frame with the same gauge convention as the package."""
    k = np.asarray(k, dtype=float)
    khat = k / np.linalg.norm(k)
    z = np.array([0.0, 0.0, 1.0])
    cross = np.cross(z, khat)
    if np.linalg.norm(cross) < 1e-12:
        e1 = np.array([1.0, 0.0, 0.0])
        e2 = np.array([0.0, 1.0 if khat[2] > 0 else -1.0, 0.0])
    else:
        e1 = cross / np.linalg.norm(cross)
        e2 = np.cross(khat, e1)
    return e1, e2


def mode_data(config):
    """Per-mode (k, omega, phi_hat, weight, polarization vector) arrays."""
    ks, omegas, phis, weights, pols = [], [], [], [], []
    for m in config.mode_set.modes:
        k = np.asarray(m.k, dtype=float)
        r = np.linalg.norm(k)
        e1, e2 = polarization_pair(k)
        ks.append(k)
        omegas.append(float(config.dispersion.omega(r)))
        phis.append(float(config.form_factor.phi_hat(r)))
        weights.append(m.weight)
        pols.append(e1 if m.polarization_index == 1 else e2)
    return (np.array(ks), np.array(omegas), np.array(phis), np.array(weights),
            np.array(pols))


def sparse_ladders(occs):
    """a_m of every mode on the boson factor spanned by the tuples ``occs``,
    each found through a {tuple: index} dictionary, as canonical CSR."""
    index = {o: i for i, o in enumerate(occs)}
    ladders = []
    for m in range(len(occs[0])):
        rows, cols, vals = [], [], []
        for i, occ in enumerate(occs):
            if occ[m] > 0:
                tgt = list(occ)
                tgt[m] -= 1
                rows.append(index[tuple(tgt)])
                cols.append(i)
                vals.append(math.sqrt(occ[m]))
        a = sp.csr_matrix((np.array(vals, dtype=complex), (rows, cols)),
                          shape=(len(occs), len(occs)))
        a.sum_duplicates()
        a.sort_indices()
        ladders.append(a)
    return ladders


def ladder_matrices(config):
    """(occupations, dense annihilation matrix of each mode) on the boson factor."""
    occs = photon_occupations(len(config.mode_set.modes), config.N_max, config.n_max)
    return occs, [a.toarray() for a in sparse_ladders(occs)]


def basis_ladders(basis):
    """``sparse_ladders`` on the occupation rows of ``basis``."""
    return sparse_ladders([tuple(o) for o in basis.occupation_array().tolist()])


def annihilation_matrix(mode_index, basis):
    """a_m on the full basis (tensored with the spin identity when present)."""
    return spin_tensor(basis_ladders(basis)[mode_index], basis)


def creation_matrix(mode_index, basis):
    """a_m+ on the full basis; exactly the conjugate transpose of ``annihilation_matrix``."""
    return adjoint(annihilation_matrix(mode_index, basis))


def ladder_fields(basis, g, h):
    """(A, B, C) on the boson factor by sparse arithmetic on the ladders of
    ``basis_ladders``: each field is phase * sum_m amplitude_m a_m, built as
    one CSR from the ladders' COO entries, plus its ``adjoint`` by scipy's
    sparse sum (phase 1 for A^mu with amplitudes g, -i for B^mu with h), and
    C = (1/2) sum_mu (P_f^mu A^mu + A^mu P_f^mu) by elementwise multiplies."""
    ladders = [a.tocoo() for a in basis_ladders(basis)]
    mode = np.concatenate([np.full(a.nnz, m) for m, a in enumerate(ladders)])
    index = (np.concatenate([a.row for a in ladders]), np.concatenate([a.col for a in ladders]))
    root_n = np.concatenate([a.data.real for a in ladders])
    shape = (basis.boson_dimension,) * 2

    def field(amplitude, phase):
        lowering = sp.csr_matrix((phase * amplitude[mode] * root_n, index), shape=shape,
                                 dtype=complex)
        return lowering + adjoint(lowering)

    A = tuple(field(g[:, mu], 1.0) for mu in range(3))
    B = tuple(field(h[:, mu], -1j) for mu in range(3))
    pf = basis.occupation_array() @ basis.mode_set.k_array()
    C = 0.5 * sum(op.multiply(x[:, None]) + op.multiply(x[None, :]) for op, x in zip(A, pf.T))
    return A, B, C


def number_operator(basis):
    """Total photon number N_f as a complex sparse matrix (diagonal, no
    quadrature weights): the reference for ``bounds.photon_number_check``,
    which reads N_f as the photon count of each basis state."""
    diag = basis.occupation_array().sum(axis=1).astype(float)
    return spin_tensor(sp.diags(diag.astype(complex), format="csr"), basis)


def field_energy(basis, omega_by_kpoint):
    """Photon field energy sum_m omega(k_m) n_m with omega given per distinct k-point."""
    omega_by_kpoint = np.asarray(omega_by_kpoint, dtype=float)
    if omega_by_kpoint.shape != (len(basis.mode_set.k_points),):
        raise ValueError(
            f"need one omega per k-point ({len(basis.mode_set.k_points)}), "
            f"got shape {omega_by_kpoint.shape}"
        )
    omega_per_mode = omega_by_kpoint[basis.mode_set.k_point_index]
    diag = basis.occupation_array() @ omega_per_mode
    return spin_tensor(sp.diags(diag.astype(complex), format="csr"), basis)


def field_momentum(basis):
    """The three components of sum_m k_m n_m (diagonal, no quadrature weights)."""
    occ = basis.occupation_array()
    karr = basis.mode_set.k_array()
    return tuple(spin_tensor(sp.diags((occ @ karr[:, mu]).astype(complex), format="csr"),
                             basis) for mu in range(3))


def sparse_sum_interaction(terms, p, e):
    """e (-p.A + C - sigma.B/2) + (e^2/2) A^2 of a ``HamiltonianTerms``: the
    scipy sparse sum of its ``coefficients`` from an empty matrix."""
    out = sp.csr_matrix(terms.C.shape, dtype=terms.C.dtype)
    for c, op in terms.coefficients(p, e):
        if c != 0.0 and op.nnz:
            out = out + c * op
    return out


def sparse_sum_hamiltonian(terms, p, e):
    """H(p, e) of a ``HamiltonianTerms`` by scipy's sparse arithmetic: the
    free diagonal plus ``sparse_sum_interaction``."""
    free = sp.diags(terms.free_diagonal(p).astype(terms.C.dtype), format="csr")
    return free + sparse_sum_interaction(terms, p, e)


def dense_hamiltonian(config):
    """Fully dense assembly with the *unexpanded* kinetic square.

    Builds D_mu = diag(p_mu - P_f^mu) - e A^mu as explicit dense matrices and
    squares them by matrix product, so rounding flows differently from the
    package's termwise expansion.
    """
    ks, omegas, phis, weights, pols = mode_data(config)
    M = len(config.mode_set.modes)
    occs, a_ops = ladder_matrices(config)
    nb = len(occs)

    pref = phis / np.sqrt(2.0 * omegas) * np.sqrt(weights)
    g = pref[:, None] * pols
    h = pref[:, None] * np.cross(ks, pols)

    A = [np.zeros((nb, nb), dtype=complex) for _ in range(3)]
    B = [np.zeros((nb, nb), dtype=complex) for _ in range(3)]
    for m in range(M):
        plus = a_ops[m] + a_ops[m].conj().T
        minus = 1j * (a_ops[m].conj().T - a_ops[m])
        for mu in range(3):
            A[mu] += g[m, mu] * plus
            B[mu] += h[m, mu] * minus

    occ_arr = np.array(occs, dtype=float)
    pf = occ_arr @ ks
    hf = occ_arr @ omegas
    Hb = np.diag(hf.astype(complex))
    for mu in range(3):
        D = np.diag((config.p[mu] - pf[:, mu]).astype(complex)) - config.e * A[mu]
        Hb = Hb + 0.5 * (D @ D)
    if not config.with_spin:
        return Hb
    H = np.kron(SIGMA[0], Hb)
    for mu in range(3):
        H = H - 0.5 * config.e * np.kron(SIGMA[mu + 1], B[mu])
    return H


def dense_sector_energies(config):
    """{label: lowest eigenvalue of H in that J_axis eigenspace} for an axial
    model with n_max >= N_max and p on the mode axis u.

    J_axis = sum over k-points of sign(k.u) i (a2+ a1 - a1+ a2) + (1/2) u.sigma
    is built from the dense ladder matrices and split by ``numpy.linalg.eigh``;
    each label z gets the lowest eigenvalue of Q_z+ H Q_z, with Q_z the
    eigenvectors of label z and H from ``dense_hamiltonian``.
    """
    u = np.asarray(config.mode_set.axis, dtype=float)
    occs, a_ops = ladder_matrices(config)
    by_k = {}
    for m, mode in enumerate(config.mode_set.modes):
        by_k.setdefault(tuple(mode.k), {})[mode.polarization_index] = a_ops[m]
    J = np.zeros((len(occs), len(occs)), dtype=complex)
    for k, a in by_k.items():
        sign = 1.0 if np.dot(k, u) > 0.0 else -1.0
        J += sign * 1j * (a[2].conj().T @ a[1] - a[1].conj().T @ a[2])
    if config.with_spin:
        u_sigma = sum(u[mu] * SIGMA[mu + 1] for mu in range(3))
        J = np.kron(SIGMA[0], J) + 0.5 * np.kron(u_sigma, np.eye(len(occs)))
    values, Q = np.linalg.eigh(J)
    labels = np.round(2.0 * values) / 2.0
    assert np.max(np.abs(values - labels)) < 1e-10
    H = dense_hamiltonian(config)
    energies = {}
    for z in np.unique(labels):
        Q_z = Q[:, labels == z]
        energies[float(z)] = float(np.linalg.eigvalsh(Q_z.conj().T @ H @ Q_z)[0])
    return energies


def dense_pull_through_residuals(config, psi, energy):
    """|| a_m psi - x_m || / ||psi|| for every mode m, with x_m from a dense
    ``numpy.linalg.solve`` of (H(p - k_m) + omega_m - E) x = e R_m psi.

    R_m = g_m . D + (i/2) h_m . sigma with D_mu = p_mu - P_f^mu - e A^mu, H
    from ``dense_hamiltonian`` at each shifted momentum, and the mode's own
    annihilator: one dense LU solve per mode, where the package solves by
    preconditioned CG on one shifted operator per k-point.
    """
    ks, omegas, phis, weights, pols = mode_data(config)
    occs, a_ops = ladder_matrices(config)
    nb = len(occs)
    pref = phis / np.sqrt(2.0 * omegas) * np.sqrt(weights)
    g = pref[:, None] * pols
    h = pref[:, None] * np.cross(ks, pols)
    pf = np.array(occs, dtype=float) @ ks
    spin_eye = np.eye(2 if config.with_spin else 1)
    A = [sum(g[m, mu] * (a + a.conj().T) for m, a in enumerate(a_ops)) for mu in range(3)]
    D = [np.kron(spin_eye, np.diag(config.p[mu] - pf[:, mu]) - config.e * A[mu])
         for mu in range(3)]
    eye = np.eye(len(psi))
    norm = np.linalg.norm(psi)
    residuals = []
    for m, a in enumerate(a_ops):
        R = sum(g[m, mu] * D[mu] for mu in range(3))
        if config.with_spin:
            R = R + 0.5j * sum(h[m, mu] * np.kron(SIGMA[mu + 1], np.eye(nb)) for mu in range(3))
        shifted = (dense_hamiltonian(config.at(p=tuple(np.asarray(config.p) - ks[m])))
                   + (omegas[m] - energy) * eye)
        x = np.linalg.solve(shifted, config.e * (R @ psi))
        residuals.append(np.linalg.norm(np.kron(spin_eye, a) @ psi - x) / norm)
    return np.array(residuals)


def perturbative_energy_and_number(config):
    """Second-order ground energy and photon-number expectation.

    E(p) ~ p^2/2 + (e^2/2) sum |g_m|^2 - e^2 sum_m amp_m / D_m(p),
    <N_f> ~ e^2 sum_m amp_m / D_m(p)^2,
    amp_m = (p . g_m)^2 + |h_m|^2 / 4,
    D_m(p) = ((p - k_m)^2 - p^2)/2 + omega_m,

    valid for small e; the spin sum makes both spin states shift equally.
    """
    ks, omegas, phis, weights, pols = mode_data(config)
    pref = phis / np.sqrt(2.0 * omegas) * np.sqrt(weights)
    g = pref[:, None] * pols
    h = pref[:, None] * np.cross(ks, pols)
    p = np.asarray(config.p, dtype=float)
    D = 0.5 * (np.sum((p[None, :] - ks) ** 2, axis=1) - p @ p) + omegas
    amp = (g @ p) ** 2 + 0.25 * np.sum(h * h, axis=1)
    if not config.with_spin:
        amp = (g @ p) ** 2
    energy = 0.5 * p @ p + 0.5 * config.e**2 * np.sum(g * g) \
        - config.e**2 * np.sum(amp / D)
    number = config.e**2 * np.sum(amp / D**2)
    return energy, number


def vacuum_interaction_expectation(config):
    """<vacuum| H_int |vacuum> = (e^2/2) sum_m V_m phi_hat^2 / (2 omega), by hand."""
    total = 0.0
    for m in config.mode_set.modes:
        r = float(np.linalg.norm(m.k))
        omega = float(config.dispersion.omega(r))
        phi = float(config.form_factor.phi_hat(r))
        total += m.weight * phi * phi / (2.0 * omega)
    return 0.5 * config.e**2 * total


def subtraction_hermiticity_defect(A):
    """max |A - A+| over the entries of scipy's sparse difference A - A+, with
    A+ as canonical CSR (duplicates summed, indices sorted): the defect read
    off sparse arithmetic rather than off the CSR arrays."""
    adj = A.conjugate().transpose().tocsr()
    adj.sum_duplicates()
    adj.sort_indices()
    return float(np.abs((A.tocsr() - adj).data).max(initial=0.0))


def helicity_operator(basis):
    """Photon helicity along the axis: sum_kp sign(k.u) i (a2+ a1 - a1+ a2).

    Hermitian with integer spectrum on the truncated space.
    """
    u = _axis_direction(basis)
    dim_b = basis.boson_dimension
    S = sp.csr_matrix((dim_b, dim_b), dtype=complex)
    kpts = np.array(basis.mode_set.k_points)
    ladders = basis_ladders(basis)
    for (i1, i2), k in zip(basis.mode_set.polarization_pairs, kpts):
        sign = 1.0 if float(k @ u) > 0.0 else -1.0
        a1, a2 = ladders[i1], ladders[i2]
        S = S + sign * 1j * (adjoint(a2) @ a1 - adjoint(a1) @ a2)
    return spin_tensor(S, basis)


def mirror_operator(basis):
    """The reflection through the plane of the mode axis u and the
    polarization-1 vectors, in the linear basis: U = (n.sigma) (x) (-1)^N_2,
    with N_2 the photon number in polarization-2 modes and n the line of
    their polarization vectors, which the gauge of ``polarization_vectors``
    makes common to every axial mode; U = (-1)^N_2 without spin.

    The reference for the package's circular-frame mirror
    (``model.circular_mirror``): U W = W P for the helicity rotation W."""
    _axis_direction(basis)                  # refuses a mode set that is not axial
    second = basis.mode_set.polarization_pairs[:, 1]
    parity = (-1.0) ** basis.occupation_array()[:, second].sum(axis=1)
    U = sp.diags(parity.astype(complex), format="csr")
    if not basis.with_spin:
        return U
    n = polarization_frame(basis.mode_set)[second.min()]
    return sum(n[mu] * sp.kron(SIGMA[mu + 1], U) for mu in range(3) if n[mu] != 0.0).tocsr()


def total_jz(basis):
    """Total angular momentum along the axis: helicity + (1/2) u . sigma.

    Spectrum is contained in the half integers; on a spinless basis the spin
    term is absent and the labels are integers instead.
    """
    u = _axis_direction(basis)
    J = helicity_operator(basis)
    if basis.with_spin:
        eye_b = sp.identity(basis.boson_dimension, dtype=complex, format="csr")
        for mu in range(3):
            if u[mu] != 0.0:
                J = J + 0.5 * u[mu] * sp.kron(SIGMA[mu + 1], eye_b)
    return J.tocsr()


def total_weight(mode_set):
    """Sum of weights over distinct k-points (the covered k-space volume)."""
    pts = {}
    for m in mode_set.modes:
        pts[m.k] = m.weight
    return float(sum(pts.values()))


def is_symmetric_under(mode_set, R):
    """True when the linear map R carries the k-points onto themselves
    with equal weights, both to ``SYMMETRY_TOL`` relative."""
    R = np.asarray(R, dtype=float)
    weights = {k: next(m.weight for m in mode_set.modes if m.k == k) for k in mode_set.k_points}
    for k, w in weights.items():
        kr = R @ np.asarray(k)
        hits = [kk for kk in weights if np.linalg.norm(np.asarray(kk) - kr)
                <= SYMMETRY_TOL * max(1.0, np.linalg.norm(kr))]
        if not hits or abs(weights[hits[0]] - w) > SYMMETRY_TOL * max(1.0, w):
            return False
    return True


def is_reflection_symmetric(mode_set):
    """True when the k-points map onto themselves under k -> -k with equal weights."""
    return is_symmetric_under(mode_set, -np.eye(3))


class FreeEnergyCurve:
    """Exact noninteracting dispersion E(q) = |q|^2 / 2."""

    q_max = np.inf
    spacing = 0.0

    def __call__(self, q):
        q = np.asarray(q, dtype=float)
        out = 0.5 * q * q
        return out if out.ndim else float(out)


@dataclass
class RotationCheck:
    """E(p) vs E(Rp) discrepancies for mode-set symmetries."""

    discrepancies: list
    max_discrepancy: float


def rotation_invariance_check(config, rotations):
    """max |E(p) - E(Rp)| over rotations R that map the mode set onto itself.

    Rotations that are not symmetries of the mode set are rejected: the
    truncated model cannot realize them exactly.
    """
    ops = build_operators(config)
    E_ref = solve_model(ops, config.p, config.e, 2).ground_energy
    discrepancies = []
    for R in rotations:
        R = np.asarray(R, dtype=float)
        if not is_symmetric_under(config.mode_set, R):
            raise PflabError(
                "rotation is not a symmetry of the mode set; choose R from "
                "the discrete symmetry group of the k-points"
            )
        p_rot = tuple(R @ np.asarray(config.p, dtype=float))
        E_rot = solve_model(ops, p_rot, config.e, 2).ground_energy
        discrepancies.append(abs(E_rot - E_ref))
    return RotationCheck(discrepancies=discrepancies,
                         max_discrepancy=max(discrepancies) if discrepancies else 0.0)


def rotated_sector_terms(ops):
    """The linear-vs-circular oracle: u.A, C, sigma.B and A^2 of the operator
    set ``ops`` conjugated by the helicity rotation W, one list of four dense
    blocks (W_z+ O W_z + its adjoint) / 2 per sector z >= 0, ascending, and
    the largest entry of W+ O W_z outside sector z over every term and z.

    The package builds these terms directly in the circular frame; here they
    come from the linear-frame terms and one sparse triple product each."""
    u = _axis_direction(ops.basis)
    W = helicity_rotation(ops.basis).tocsc()
    W_adj = adjoint(W)
    labels = circular_labels(ops.basis)
    A_axis = sum(u[mu] * ops.linear.A[mu] for mu in range(3) if u[mu] != 0.0)
    sectors, leak_max = [], 0.0
    for z in np.unique(labels[labels >= 0.0]):
        idx = np.flatnonzero(labels == z)
        blocks = []
        for op in (A_axis, ops.linear.C, ops.linear.sigma_B, ops.linear.A2):
            columns = (W_adj @ (op @ W[:, idx])).toarray()
            outside = np.delete(columns, idx, axis=0)
            leak_max = max(leak_max, float(np.abs(outside).max(initial=0.0)))
            block = columns[idx]
            blocks.append(0.5 * (block + block.conj().T))
        sectors.append(blocks)
    return sectors, leak_max
