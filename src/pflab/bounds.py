"""Quantitative ground-state diagnostics built on the pull-through identity.

For a ground state Psi of H(p) with gap Delta(p) > 0, applying a mode's
annihilator gives

    a_m Psi = e * pref_m * (H(p - k_m) + omega_m - E(p))^(-1)
              * { (p - P_f - e A) . e_j + (1/2) sigma . (i k_m x e_j) } Psi,

where pref_m = phi_hat(k_m)/sqrt(2 omega_m) * sqrt(V_m).  Squaring and
integrating yields a photon-number bound <Psi, N_f Psi> <= e^2 * Theta(p)
with the rotation-invariant integral

    Theta(p) = 2 int [ (|k|^2/4 + 6 E(p)) / (E(p-k) + omega(k) - E(p))^2 ]
                   * phi_hat(k)^2 / omega(k) dk.

Small e^2 * Theta(p) forces the ground cluster to overlap the spin (x)
vacuum subspace, which is what the checks in this module quantify: the
number bound itself, the vacuum-overlap lower bound 1 - e^2 Theta, the
degeneracy upper bound 2/(1 - e^2 Theta) < 3, the proportionality
P0 Pg P0 = a P0 of the projected ground projector, the admissible-coupling
threshold, and the spinless uniqueness condition.

All integrals run on the dedicated radial-angular grid, independent of the
Hamiltonian's mode set; interpolated E enters through a radial energy
curve (``spectra.sweep_energy_curve``), solved at every coupling (e = 0
included) from the model's one operator set; its grid spacing is the
quoted uncertainty proxy.  The checks at the config's own (p, e) solve
nothing: they read the ground spectrum (or its cluster) and the energy
curve that the caller solved once, and the number bound reads N_f as the
photon count of each basis state.  Only ``coupling_threshold`` (at other
couplings) and ``pull_through_residual`` (at the momenta p - k) solve.
At finite truncation the pull-through identity is only approximate, so
every check reports its numbers rather than asserting blindly;
``pull_through_residual`` measures how far the identity misses at every
mode, with a_m Psi read off the basis's one list of ladder entries.  Its resolvent depends on a mode only through the mode's k-point,
so it is gap-checked (by the energy-only ``spectra.ground_energy``) and split
once per k-point (``ModelOperators.blocks``, into the J_axis blocks on the
axis), serves both polarizations there, and is solved by
Jacobi-preconditioned CG.  Every energy curve and gap check reads only the
lowest eigenvalue, so on the axis each of its solves skips the blocks whose
Gershgorin bound lies above the lowest value already found.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import GapTooSmallError, PflabError, SolverError
from .fock import PAULI, FockBasis
from .model import ModelConfig, ModelOperators, coupling_bound, linear_products
from .quadrature import PolarGrid
from .spectra import (
    DEFAULT_SEED,
    GroundCluster,
    RadialEnergyCurve,
    SpectralResult,
    detect_ground_cluster,
    ground_energy,
    sweep_energy_curve,
)

DENOMINATOR_FLOOR = 1e-6
#: CG stops at ||rhs - A x|| <= CG_RTOL ||rhs|| (atol = 0).
CG_RTOL = 1e-14
#: Relative excess of <N_f> over e^2 Theta(p) that the number check tolerates.
PHOTON_NUMBER_SLACK = 0.10
#: Bisection steps of ``coupling_threshold`` between its last admissible and
#: first inadmissible grid point.
THRESHOLD_REFINE_STEPS = 5


@dataclass
class PhotonIntegral:
    """Value of Theta(p) plus conditioning data from the quadrature."""

    value: float
    min_denominator: float


def _resolvent_integral(config: ModelConfig, energy_curve, numerator,
                        what: str) -> tuple[float, float]:
    """int numerator(|k|, E(p)) / (E(p-k) + omega(k) - E(p))^2 * phi_hat^2/omega dk
    on the dedicated polar grid; returns (integral, minimum denominator).

    Raises when the denominator dips below ``DENOMINATOR_FLOOR`` anywhere on
    the grid: the gap hypothesis has no numerical room left.
    """
    q = config.quadrature
    grid = PolarGrid.build(q.r_max, q.n_radial, q.n_angular)
    p = config.p_norm
    Ep = float(energy_curve(p))
    R = grid.r[:, None]
    U = grid.u[None, :]
    shifted = np.sqrt(np.maximum(p * p - 2.0 * p * R * U + R * R, 0.0))
    omega = np.asarray(config.dispersion.omega(grid.r))[:, None]
    denom = np.asarray(energy_curve(shifted)) + omega - Ep
    min_denom = float(denom.min())
    if min_denom < DENOMINATOR_FLOOR:
        raise GapTooSmallError(
            f"gap too small for the {what}: minimum denominator "
            f"{min_denom:.3e} < floor {DENOMINATOR_FLOOR:.0e}"
        )
    phi2 = np.asarray(config.form_factor.phi_hat(grid.r))[:, None] ** 2
    integrand = numerator(R, Ep) / (denom * denom) * phi2 / omega
    return grid.integrate(integrand), min_denom


def photon_number_integral(config: ModelConfig, energy_curve) -> PhotonIntegral:
    """Theta(p) on the dedicated radial-angular grid.

    Depends on p only through |p| (and through E, itself radial), so equal
    momentum magnitudes give bitwise-equal values.  Raises when the
    denominator E(p-k) + omega(k) - E(p) dips below ``DENOMINATOR_FLOOR``
    anywhere on the grid.
    """
    integral, min_denom = _resolvent_integral(
        config, energy_curve, lambda R, Ep: 0.25 * R * R + 6.0 * Ep,
        "photon-number integral")
    return PhotonIntegral(value=2.0 * integral, min_denominator=min_denom)


@dataclass
class PhotonNumberCheck:
    """Pull-through number bound: max <Psi, N_f Psi> over the cluster vs e^2 Theta."""

    nf_max: float
    bound: float
    ratio: float
    passed: bool


def photon_number_check(cluster: GroundCluster, basis: FockBasis, config: ModelConfig,
                        integral: PhotonIntegral) -> PhotonNumberCheck:
    """Check <N_f> <= e^2 Theta(p) (1 + PHOTON_NUMBER_SLACK) over the whole
    ground subspace.

    The left side maximizes the number expectation over all unit vectors in
    the cluster: the largest eigenvalue of V+ (n V), with V the cluster
    basis and n the photon count of each state of ``basis`` (N_f is
    diagonal), so it does not depend on the arbitrary cluster basis.
    Truncation can violate the continuum bound, hence the slack band; the
    numbers are always recorded.
    """
    n = np.tile(basis.occupation_array().sum(axis=1), 2 if basis.with_spin else 1)
    V = cluster.basis
    M = V.conj().T @ (n[:, None] * V)
    nf_max = float(np.linalg.eigvalsh(0.5 * (M + M.conj().T)).max())
    nf_max = max(nf_max, 0.0)
    bound = config.e**2 * integral.value
    ratio = nf_max / bound if bound > 0.0 else (0.0 if nf_max == 0.0 else math.inf)
    return PhotonNumberCheck(
        nf_max=nf_max, bound=bound, ratio=ratio,
        passed=nf_max <= bound * (1.0 + PHOTON_NUMBER_SLACK),
    )


def pull_through_residual(psi: np.ndarray, config: ModelConfig, energy: float,
                          ops: ModelOperators, seed: int = DEFAULT_SEED) -> np.ndarray:
    """|| a_m Psi - RHS_m || / ||Psi||, the truncation error of the pull-through
    identity, at every mode m in mode order, from the operator set ``ops``.

    RHS_m solves A_k x = e * { ... } Psi = b with A_k = H(p - k) + omega_k - E,
    split once per k-point, for both polarizations, into the pairs (B, T) of
    ``ModelOperators.blocks``: x = sum T (B + omega_k - E)^-1 T+ b, with Psi,
    a_m Psi and b in the linear basis.  Before any shifted solve, every
    k-point is checked, E(p - k) by ``ground_energy`` with ``seed``, and the
    first with delta_k = E(p - k) + omega_k - E < ``DENOMINATOR_FLOOR`` is
    named in a ``GapTooSmallError``.  Each B + omega_k - E is then positive
    definite, and CG preconditioned by its diagonal inverse stops at ||T+ b - (B + omega_k - E) y|| <= ``CG_RTOL``
    ||T+ b||, a zero T+ b skipped; ``SolverError`` names the mode and k-point
    of a system that does not converge.
    """
    psi = np.asarray(psi, dtype=complex)
    norm = np.linalg.norm(psi)
    if norm == 0.0:
        raise ValueError("psi must be nonzero")
    ms = config.mode_set
    p = np.asarray(config.p, dtype=float)
    K = np.asarray(ms.k_points)
    omegas = np.asarray(config.dispersion.omega(np.linalg.norm(K, axis=1)))
    for i, k in enumerate(K):
        delta = ground_energy(ops, p - k, config.e, seed) + omegas[i] - energy
        if delta < DENOMINATOR_FLOOR:
            raise GapTooSmallError(f"shifted resolvent at k-point {i} {k.tolist()} is nearly "
                                   f"singular: E(p-k) + omega - E(p) = {delta:.3e}")

    g, h = ops.amplitudes
    A_psi = linear_products(ops.basis, g, h, psi)[:3]
    D = np.array([(p[mu] - ops.pf[:, mu]) * psi - config.e * A_psi[mu] for mu in range(3)])
    # sigma_mu (x) 1 in the spin-major ordering
    S = (np.array([(PAULI[mu + 1] @ psi.reshape(2, -1)).ravel() for mu in range(3)])
         if config.with_spin else np.zeros_like(D))
    rhs = config.e * (g @ D + 0.5j * (h @ S))
    lowered = _annihilated(psi, ops.basis)
    x = np.zeros_like(lowered)
    for i, k in enumerate(K):
        shift = omegas[i] - energy
        for B, T in ops.blocks(p - k, config.e):
            A = spla.LinearOperator(B.shape, lambda y: B @ y + shift * y, dtype=complex)
            M = sp.diags(1.0 / (B.diagonal().real + shift))
            for m in np.flatnonzero(ms.k_point_index == i):
                projected = (T.T @ rhs[m].conj()).conj()      # T+ rhs, with no adjoint stored
                if not projected.any():
                    continue
                y, info = spla.cg(A, projected, rtol=CG_RTOL, atol=0.0, M=M)
                if info != 0:
                    raise SolverError(f"CG did not converge for mode {m} at k-point {i} "
                                      f"{k.tolist()} (info {info})")
                x[m] += T @ y
    return np.linalg.norm(lowered - x, axis=1) / norm


def _annihilated(psi: np.ndarray, basis: FockBasis) -> np.ndarray:
    """a_m psi, one row per mode m, from the ladders of ``basis.field_pattern``, per spin block."""
    mode, row, col, root_n = basis.field_pattern[:4]
    out = np.zeros((len(basis.mode_set), psi.size), dtype=complex)
    for start in range(0, psi.size, basis.boson_dimension):
        out[mode, start + row] = root_n * psi[start + col]
    return out


@dataclass
class UpperBoundCheck:
    """Degeneracy upper bound under the hypothesis |e| < 1/sqrt(3 Theta)."""

    hypothesis_holds: bool
    hypothesis_limit: float
    bound_value: float
    count: int
    passed: bool


def degeneracy_upper_bound(cluster: GroundCluster, config: ModelConfig,
                           integral: PhotonIntegral) -> UpperBoundCheck:
    """When |e| < 1/sqrt(3 Theta(p)), the degeneracy is at most 2/(1 - e^2 Theta) < 3."""
    theta = integral.value
    limit = 1.0 / math.sqrt(3.0 * theta) if theta > 0.0 else math.inf
    holds = abs(config.e) < limit
    e2t = config.e**2 * theta
    bound_value = 2.0 / (1.0 - e2t) if e2t < 1.0 else math.inf
    return UpperBoundCheck(
        hypothesis_holds=holds,
        hypothesis_limit=limit,
        bound_value=bound_value,
        count=cluster.count,
        passed=(not holds) or cluster.count <= 2,
    )


@dataclass
class VacuumOverlap:
    """The least and summed vacuum-sector overlaps and the lower bound 1 - e^2 Theta."""

    minimum: float
    trace: float
    lower_bound: float
    passed: bool


def vacuum_overlap(cluster: GroundCluster, basis: FockBasis, e: float,
                   integral: PhotonIntegral) -> VacuumOverlap:
    """<Psi_i, P0 Psi_i> per cluster basis vector against 1 - e^2 Theta(p).

    The sum of the overlaps is trace(Pg P0), invariant under re-mixing of
    the cluster basis.
    """
    idx = list(basis.vacuum_indices())
    amps = cluster.basis[idx, :]
    overlaps = np.sum(np.abs(amps) ** 2, axis=0)
    lower = 1.0 - e**2 * integral.value
    return VacuumOverlap(
        minimum=float(overlaps.min()),
        trace=float(overlaps.sum()),
        lower_bound=lower,
        passed=bool(overlaps.min() >= lower - 1e-12),
    )


@dataclass
class VacuumGram:
    """Gram matrix G_ij = <x_i (x) vacuum, Pg x_j (x) vacuum> and its scalar part."""

    matrix: np.ndarray
    a_value: float
    deviation: float


def vacuum_gram(cluster: GroundCluster, basis: FockBasis) -> VacuumGram:
    """The 2x2 projected ground projector on the spin (x) vacuum subspace.

    For a certified two-fold cluster this reproduces the proportionality
    P0 Pg P0 = a P0: the Gram matrix is a * identity with a = trace/2 > 0.
    Refuses other degeneracies (the relation is the two-fold statement).
    """
    if not basis.with_spin:
        raise PflabError("the vacuum Gram relation needs the spin factor")
    if cluster.count != 2:
        raise PflabError(
            f"vacuum Gram relation applies to a two-fold cluster, got count "
            f"{cluster.count}"
        )
    idx = list(basis.vacuum_indices())
    M = cluster.basis[idx, :]                  # rows: vacuum-up, vacuum-down
    G = M @ M.conj().T
    G = 0.5 * (G + G.conj().T)
    a = float(np.trace(G).real / 2.0)
    deviation = float(np.abs(G - a * np.eye(2)).max())
    return VacuumGram(matrix=G, a_value=a, deviation=deviation)


@dataclass
class CouplingThreshold:
    """Largest admissible coupling on a grid, bisection refined."""

    value: float
    binding: str


def coupling_threshold(ops: ModelOperators, config: ModelConfig, curve: RadialEnergyCurve,
                       e_values, seed: int = DEFAULT_SEED) -> CouplingThreshold:
    """Largest e with e < 1/sqrt(3 Theta(p, e)) and c0(e) < 1.

    Theta depends on e through the energy curve of the model at that
    coupling: a probe at e == |config.e| reads ``curve``, the curve of
    ``config`` itself (E does not change with the sign of e), and any other
    probe at e > 0 solves its own
    (``sweep_energy_curve``) from the model's operator set ``ops``.  The
    relative-bound condition c0(e) < 1 stands in for the implicit
    self-adjointness threshold.  Between the last admissible and the first
    inadmissible point of the grid ``e_values`` the threshold is refined by
    ``THRESHOLD_REFINE_STEPS`` bisection steps.  Returns 0 with a warning
    when no grid point is admissible.
    """
    e_values = np.asarray(sorted(set(float(abs(e)) for e in e_values)))

    def admissible(e: float) -> tuple[bool, str]:
        probe = config.at(e=e)
        if coupling_bound(probe) >= 1.0:
            return False, "relative-bound"
        if e == 0.0:
            return True, ""
        probe_curve = curve if e == abs(config.e) else sweep_energy_curve(ops, probe, seed=seed)
        try:
            theta = photon_number_integral(probe, probe_curve).value
        except GapTooSmallError:
            return False, "gap-collapse"
        if theta > 0.0 and e >= 1.0 / math.sqrt(3.0 * theta):
            return False, "photon-integral"
        return True, ""

    last_ok = None
    first_bad = None
    binding = "grid"
    for e in e_values:
        ok, why = admissible(e)
        if ok:
            last_ok = e
        else:
            first_bad = e
            binding = why
            break
    if last_ok is None:
        warnings.warn("no admissible coupling on the grid; threshold reported as 0")
        return CouplingThreshold(value=0.0, binding=binding)
    if first_bad is None:
        return CouplingThreshold(value=float(last_ok), binding="grid")
    lo, hi = float(last_ok), float(first_bad)
    for _ in range(THRESHOLD_REFINE_STEPS):
        mid = 0.5 * (lo + hi)
        ok, why = admissible(mid)
        if ok:
            lo = mid
        else:
            hi = mid
            binding = why
    return CouplingThreshold(value=lo, binding=binding)


@dataclass
class SpinlessUniqueness:
    """The spinless pull-through uniqueness condition and the observed count."""

    integral: float
    e_squared_limit: float
    hypothesis_holds: bool
    count: Optional[int]
    gap_above: Optional[float]
    passed: bool


def spinless_uniqueness_check(config: ModelConfig, energy_curve: RadialEnergyCurve,
                              result: SpectralResult) -> SpinlessUniqueness:
    """Spinless models: e^2 <= 1 / (2 J(p)) forces a unique ground state,
    with J(p) = int E(p) / (E(p-k)+omega(k)-E(p))^2 * phi_hat^2/omega dk.

    E(p) = 0 makes the condition vacuous (limit +inf); that is handled, not
    an error.  E is read off ``energy_curve`` and the observed degeneracy
    and gap off ``result``, the model's curve and its ground spectrum at
    (p, e); nothing is solved here.
    """
    if config.with_spin:
        raise PflabError("spinless uniqueness check requires with_spin = false")
    J, _ = _resolvent_integral(config, energy_curve, lambda R, Ep: Ep,
                               "uniqueness integral")
    limit = math.inf if J <= 0.0 else 1.0 / (2.0 * J)
    holds = config.e**2 <= limit
    try:
        cluster = detect_ground_cluster(result)
        count: Optional[int] = cluster.count
        gap: Optional[float] = cluster.gap_above
    except PflabError:
        count, gap = None, None
    passed = (not holds) or count == 1
    return SpinlessUniqueness(
        integral=float(J), e_squared_limit=limit, hypothesis_holds=holds,
        count=count, gap_above=gap, passed=passed,
    )
