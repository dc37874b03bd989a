"""Angular momentum about the momentum axis for axial mode sets.

On-axis photon modes carry no orbital angular momentum about the axis, so
the conserved component reduces to photon helicity plus half the electron
spin:

    J_axis = S_axis + (1/2) u . sigma,
    S_axis = sum over k-points of sign(k . u) * i (a2+ a1 - a1+ a2),

whose spectrum lies in the half integers (integers without spin).  The
helicity generator mixes the two linear polarizations at each k-point; the
per-k-point change to circular combinations (|1> +/- i|2>)/sqrt(2)
diagonalizes it.  That basis change is unitary on the truncated space only
when the per-mode cutoff does not bite (n_max >= N_max), which sector
analysis therefore requires.  Hamiltonians are assembled in the linear
basis; ``ModelOperators.sectors`` builds their terms once per operator set
in the circular basis too, for the sector solves of ``spectra.solve_model``.

The reflection through a plane containing the axis (``mirror_operator``)
commutes with H(t u, e) and reverses J_axis, so it maps sector z onto
sector -z: ``ModelOperators.sectors`` keeps only the sectors z >= 0 and
obtains the others through it.  ``ground_sector_labels`` reads the sector
ground energies off a sector solve; it solves nothing itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import NotAxialError, PflabError
from .fock import FockBasis, spin_tensor
from .model import polarization_frame
from .spectra import EPS_DEG, SpectralResult


def _axis_direction(basis: FockBasis) -> np.ndarray:
    """The mode-set axis, along which angular momentum is measured."""
    if not basis.mode_set.axial:
        raise NotAxialError(
            "angular-momentum sector analysis requires an axial mode set "
            "(orbital angular momentum has no exact realization on scattered k-points)"
        )
    return np.asarray(basis.mode_set.axis, dtype=float)


def _kpoint_mode_indices(basis: FockBasis) -> list[tuple[int, int]]:
    """(index of j=1 mode, index of j=2 mode) per distinct k-point."""
    ms = basis.mode_set
    table: dict[tuple, dict[int, int]] = {}
    for i, m in enumerate(ms.modes):
        table.setdefault(m.k, {})[m.polarization_index] = i
    return [(table[k][1], table[k][2]) for k in ms.k_points]


def mirror_operator(basis: FockBasis) -> sp.csr_matrix:
    """The reflection through the plane of the mode axis u and the
    polarization-1 vectors, in the linear basis: U = (n.sigma) (x) (-1)^N_2,
    with N_2 the photon number in polarization-2 modes and n the line of
    their polarization vectors, which the gauge of ``polarization_vectors``
    makes common to every axial mode; U = (-1)^N_2 without spin.

    The reflection fixes every on-axis k and e_1(k), and reverses e_2(k),
    so it maps a_(k,2) to -a_(k,2).  sigma and B are axial vectors, so
    sigma.B, A.A and u.A keep their form: U commutes with H(t u, e).  The
    helicity changes sign, and so does u.sigma (u is orthogonal to n):
    U J_axis U+ = -J_axis.
    """
    _axis_direction(basis)                  # refuses a mode set that is not axial
    second = np.array([m.polarization_index == 2 for m in basis.mode_set.modes])
    parity = (-1.0) ** basis.occupation_array()[:, second].sum(axis=1)
    U = sp.diags(parity.astype(complex), format="csr")
    if not basis.with_spin:
        return U
    n = polarization_frame(basis.mode_set)[second][0]
    return sum(n[mu] * spin_tensor(mu + 1, U, basis) for mu in range(3) if n[mu] != 0.0).tocsr()


def _spin_frame(u: np.ndarray) -> np.ndarray:
    """Columns: spin-up and spin-down states along the unit vector u."""
    ux, uy, uz = u
    if uz >= 1.0 - 1e-14:
        return np.eye(2, dtype=complex)
    if uz <= -1.0 + 1e-14:
        return np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    theta = math.acos(uz)
    phi = math.atan2(uy, ux)
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([
        [c, -s * np.exp(-1j * phi)],
        [s * np.exp(1j * phi), c],
    ], dtype=complex)


def _circular_amplitudes(n_total: int) -> list[np.ndarray]:
    """Per k-point basis change at each photon count n <= n_total: entry
    [m, c] of table n is the amplitude of the linear state with n - m
    photons in polarization 1 and m in 2 in the circular state with n - c
    photons in (+) and c in (-)."""
    phase = (1.0, 1j, -1.0, -1j)                       # i^a
    tables = []
    for n in range(n_total + 1):
        M = np.zeros((n + 1, n + 1), dtype=complex)
        for c in range(n + 1):
            # (c1 + i c2)^(n-c) (c1 - i c2)^c |0> / sqrt((n-c)! c! 2^n)
            for a in range(n - c + 1):
                for b in range(c + 1):
                    M[a + b, c] += (math.comb(n - c, a) * math.comb(c, b)
                                    * phase[a % 4] * phase[(3 * b) % 4])
            for m in range(n + 1):
                M[m, c] *= math.sqrt(math.factorial(n - m) * math.factorial(m)
                                     / (math.factorial(n - c) * math.factorial(c) * 2**n))
        tables.append(M)
    return tables


def helicity_rotation(basis: FockBasis) -> sp.csr_matrix:
    """Unitary from the circular-polarization occupation labels to the linear basis.

    Column ``rank(c)`` is the state with c[(kp,1)] photons in the circular
    (+) combination (|1> + i|2>)/sqrt(2) and c[(kp,2)] photons in the (-)
    combination at each k-point, expanded in the linear-polarization basis;
    the spin factor is rotated to eigenstates of u . sigma.  The change
    keeps the photon count of every k-point, so W is block diagonal over
    those counts, and each block is a product over k-points of one small
    table.  Requires n_max >= N_max so the per-k-point mode mixing stays
    inside the truncation.
    """
    u = _axis_direction(basis)
    if basis.n_max < basis.N_max:
        raise PflabError(
            "circular-polarization basis change needs n_max >= N_max "
            f"(got n_max={basis.n_max} < N_max={basis.N_max}): the per-mode "
            "cutoff would clip the rotated states"
        )
    pairs = np.array(_kpoint_mode_indices(basis))
    occ = basis.occupation_array()
    minus = occ[:, pairs[:, 1]]
    counts = occ[:, pairs[:, 0]] + minus
    tables = _circular_amplitudes(basis.N_max)
    group = np.unique(counts, axis=0, return_inverse=True)[1].ravel()
    order = np.argsort(group, kind="stable")
    rows, cols, vals = [], [], []
    for idx in np.split(order, np.flatnonzero(np.diff(group[order])) + 1):
        block = np.ones((len(idx), len(idx)), dtype=complex)
        for kp in np.flatnonzero(counts[idx[0]]):
            m = minus[idx, kp]
            block = block * tables[counts[idx[0], kp]][m[:, None], m[None, :]]
        r, c = np.nonzero(block)
        rows.append(idx[r])
        cols.append(idx[c])
        vals.append(block[r, c])
    dim_b = basis.boson_dimension
    Wb = sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                       shape=(dim_b, dim_b))
    spin = _spin_frame(u) if basis.with_spin else None
    W = sp.kron(sp.csr_matrix(spin), Wb, format="csr") if basis.with_spin else Wb
    defect = abs((W.conj().T @ W - sp.identity(basis.dimension, dtype=complex,
                                               format="csr"))).max()
    if defect > 1e-10:
        raise PflabError(f"helicity rotation is not unitary (defect {defect:.3e})")
    return W


def circular_labels(basis: FockBasis) -> np.ndarray:
    """Angular-momentum label of each circular-basis index, combinatorially:
    the sum over k-points of sign(k.u) (n_+ - n_-), plus +/- 1/2 for the
    spin blocks."""
    u = _axis_direction(basis)
    kpts = np.array(basis.mode_set.k_points)
    plus_minus = {}
    for (i1, i2), k in zip(_kpoint_mode_indices(basis), kpts):
        sign = 1.0 if float(k @ u) > 0.0 else -1.0
        plus_minus[i1] = sign
        plus_minus[i2] = -sign
    occ = basis.occupation_array().astype(float)
    weights = np.array([plus_minus[m] for m in range(len(basis.mode_set))])
    boson = occ @ weights
    if not basis.with_spin:
        return boson
    return np.concatenate([boson + 0.5, boson - 0.5])


@dataclass
class SectorAnalysis:
    """Per-sector ground energies and the labels of the winning sectors."""

    sector_energies: dict[float, float]
    sector_dimensions: dict[float, int]
    winners: tuple[float, ...]
    ok: bool
    message: str


def ground_sector_labels(result: SpectralResult,
                         require_half_pair: bool = True) -> SectorAnalysis:
    """Labels of the sectors achieving the minimum sector-wise ground energy
    of a sector solve (``solve_model`` with method "sectors").

    With ``require_half_pair`` the expected two winners must be exactly
    {+1/2, -1/2}; any other outcome (a different pair, or three or more
    sectors tied within ``EPS_DEG``) is reported as a structured failure
    rather than an exception, since it falsifies the expectation only for
    this configuration.
    """
    if not result.sectors:
        raise PflabError("the spectrum was not solved by angular-momentum sectors")
    energies = {s.label: s.ground_energy for s in result.sectors}
    dims = {s.label: s.dimension for s in result.sectors}
    e_min = min(energies.values())
    scale = max(1.0, abs(e_min))
    winners = tuple(sorted(z for z, ez in energies.items()
                           if ez - e_min <= EPS_DEG * scale))
    ok = True
    message = ""
    if require_half_pair:
        if len(winners) != 2:
            ok = False
            message = (f"expected exactly two minimal sectors, found {len(winners)}: "
                       f"{winners}")
        elif set(winners) != {0.5, -0.5}:
            ok = False
            message = f"minimal sectors are {winners}, expected (-0.5, +0.5)"
    return SectorAnalysis(sector_energies=energies, sector_dimensions=dims,
                          winners=winners, ok=ok, message=message)
