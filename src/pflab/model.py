"""Physical content: dispersion, form factor, polarization gauge, field
operators, and assembly of the fibered Hamiltonian at fixed total momentum.

Units: hbar = c = 1 and electron mass m = 1.  The Hamiltonian on the
spin (x) truncated-Fock space is

    H(p) = (1/2) (p - P_f - e A)^2 - (e/2) sigma . B + H_f

with A, B the transverse vector potential and magnetic field at the
electron position, built from the mode set with per-mode amplitude
phi_hat(k) / sqrt(2 omega(k)) * sqrt(V_m).  Expanding the square with the
cross term symmetrized (equal to the unsymmetrized one, as k.e_j(k) = 0) gives

    H(p, e) = [H_f + P_f^2/2] + |p|^2/2 - p.P_f
              + e (-p.A + C - sigma.B/2) + (e^2/2) A^2,
    C = (1/2) sum_mu (P_f^mu A^mu + A^mu P_f^mu).

Only the coefficients depend on p and e, so ``build_operators`` gathers
what one truncated model's operators are built from once: the basis, the
diagonals and the field amplitudes (``ModelOperators``).  Each path builds
the terms it needs from them at first use, and only those, each checked to
be exactly Hermitian (``HamiltonianTerms``): the linear-frame terms on the
full basis (``ModelOperators.linear``) for a momentum off the axis, the
sector terms (below) for a momentum on it.  H(p, e) is formed one way, in
place on one stored pattern (``HamiltonianTerms.pattern_data``): the sum of
the terms with the real coefficients of one list
(``HamiltonianTerms.coefficients``), then the diagonal of H0(p) (first
line), exactly Hermitian again and bitwise the sparse sum H0(p) + H_int.
A, B and C are linear in the ladders: each is written onto the ladder
entries (``FockBasis.lowering``) and their mirror images, one pattern per
basis (``FockBasis.field_pattern``) for both frames.

For p = t u on the axis u of an axial mode set, H(p) commutes with the
angular momentum about the axis.  On-axis photon modes carry no orbital
angular momentum about it, so the conserved component reduces to photon
helicity plus half the electron spin:

    J_axis = S_axis + (1/2) u . sigma,
    S_axis = sum over k-points of sign(k . u) * i (a2+ a1 - a1+ a2),

whose spectrum lies in the half integers (integers without spin).  The
change to the circular combinations (|1> +/- i|2>)/sqrt(2) of the mode pair
of each k-point (``ModeSet.polarization_pairs``) diagonalizes it: W =
``helicity_rotation``, labels ``circular_labels``; it is unitary on the
truncated space only for n_max >= N_max.  ``sector_split`` alone builds
the split: the p-independent operators by the same field builder in that
frame, each tied to its linear form on two probe columns, applied on the
boson factor, so an on-axis run builds no linear-frame term of the full
basis.  The reflection through a plane containing the axis, in that frame a
phased permutation P (``circular_mirror``), commutes with H(t u, e) and maps
sector z onto -z: the split cuts each term once to its blocks on the labels
>= 0, maps sector -z back by W P and names the block behind each sector
(``SectorSplit.source``); ``SectorSplit.upper_blocks`` slices the blocks of
H(t u, e) out of the same in-place sum of the cut terms, which
``ModelOperators.blocks`` pairs with their maps to the linear basis, and
``SectorSplit.lower_bounds`` reads the blocks' Gershgorin bounds off it.
On the z axis A_y and B_y are purely imaginary in that frame, so A_y A_y
and sigma_y (x) B_y are real, the terms are stored as float64, and
H(t u, e) and its blocks are real; on a tilted axis the spin frame carries
phases, and a model with spin keeps complex128 terms.  Eigenvectors become
complex only when W maps them back to the linear basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np
import scipy.sparse as sp

from .errors import (BasisMismatchError, ConfigError, NonHermitianError, NotAxialError,
                     PflabError)
from .fock import (
    PAULI,
    FockBasis,
    ModeSet,
    enumerate_basis,
    hermiticity_defect,
    spin_tensor,
    DIMENSION_CAP,
)
from .quadrature import QuadratureSpec, gauss_legendre

#: Normalization of the form factor at k = 0, fixed by int phi(x) dx = 1.
PHI_HAT_ZERO = (2.0 * math.pi) ** (-1.5)
#: Largest entry a sector term may have between two J_axis sectors (and its probe error).
SECTOR_LEAK_TOL = 1e-10
#: Largest |k| at which ``check_dispersion_axioms`` samples the dispersion.
AXIOM_K_MAX = 6.0
#: Number of random k at which ``check_dispersion_axioms`` samples the dispersion.
AXIOM_SAMPLES = 400


@dataclass(frozen=True)
class Dispersion:
    """Photon dispersion omega(|k|).

    Kinds: ``massive`` (sqrt(k^2 + m_ph^2)), ``massless`` (|k|, which has no
    energy gap and must be explicitly allowed in a model), and ``custom``
    (linear interpolation of (|k|, omega) samples).
    """

    kind: str
    m_ph: Optional[float] = None
    samples: Optional[tuple[tuple[float, float], ...]] = None

    def __post_init__(self):
        if self.kind == "massive":
            if self.m_ph is None or not (self.m_ph > 0.0):
                raise ConfigError("massive dispersion requires m_ph > 0")
        elif self.kind == "massless":
            if self.m_ph is not None:
                raise ConfigError("massless dispersion takes no m_ph")
        elif self.kind == "custom":
            if not self.samples or len(self.samples) < 2:
                raise ConfigError("custom dispersion requires at least two (|k|, omega) samples")
            rs = [r for r, _ in self.samples]
            if any(b <= a for a, b in zip(rs, rs[1:])) or rs[0] < 0.0:
                raise ConfigError("custom dispersion samples must have increasing |k| >= 0")
        else:
            raise ConfigError(f"unknown dispersion kind {self.kind!r}")

    @property
    def has_gap(self) -> bool:
        """True when inf omega > 0 is guaranteed by construction."""
        if self.kind == "massive":
            return True
        if self.kind == "custom":
            return min(w for _, w in self.samples) > 0.0
        return False

    def omega(self, r):
        """omega as a function of |k|; accepts scalars or arrays."""
        r = np.asarray(r, dtype=float)
        if self.kind == "massive":
            out = np.sqrt(r * r + self.m_ph**2)
        elif self.kind == "massless":
            out = r.copy()
        else:
            rs = np.array([s[0] for s in self.samples])
            ws = np.array([s[1] for s in self.samples])
            if np.any(r < rs[0] - 1e-12) or np.any(r > rs[-1] + 1e-12):
                raise ConfigError(
                    f"custom dispersion queried outside its table [{rs[0]}, {rs[-1]}]"
                )
            out = np.interp(r, rs, ws)
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class FormFactor:
    """Rotation-invariant ultraviolet cutoff function phi_hat(|k|).

    Kinds: ``gaussian`` amplitude * exp(-k^2 / (2 lambda^2)) and ``sharp``
    amplitude * 1{|k| <= lambda}.  ``amplitude`` defaults to the normalized
    value (2 pi)^(-3/2); other values violate the normalization and are
    surfaced by the model checks.
    """

    kind: str
    lam: float
    amplitude: float = PHI_HAT_ZERO

    def __post_init__(self):
        if self.kind not in ("gaussian", "sharp"):
            raise ConfigError(f"unknown form factor kind {self.kind!r}")
        if not (self.lam > 0.0):
            raise ConfigError("form factor cutoff lambda must be positive")
        if not (self.amplitude > 0.0):
            raise ConfigError("form factor amplitude must be positive")

    def phi_hat(self, r):
        r = np.asarray(r, dtype=float)
        if self.kind == "gaussian":
            out = self.amplitude * np.exp(-r * r / (2.0 * self.lam**2))
        else:
            out = self.amplitude * (r <= self.lam).astype(float)
        return out if out.ndim else float(out)

    @property
    def normalized(self) -> bool:
        return abs(self.amplitude - PHI_HAT_ZERO) <= 1e-12


def polarization_vectors(k) -> tuple[np.ndarray, np.ndarray]:
    """Transverse polarization pair (e1, e2) with e1 x e2 = k/|k|.

    Gauge: e1 = (z x k)/|z x k|, e2 = k_hat x e1; on the z axis e1 = x_hat
    and e2 = sign(k_z) y_hat.  k = 0 is rejected.
    """
    k = np.asarray(k, dtype=float)
    norm = np.linalg.norm(k)
    if norm == 0.0:
        raise ConfigError("polarization frame undefined at k = 0")
    khat = k / norm
    zhat = np.array([0.0, 0.0, 1.0])
    cross = np.cross(zhat, khat)
    cnorm = np.linalg.norm(cross)
    if cnorm < 1e-12:
        sign = 1.0 if khat[2] > 0 else -1.0
        e1 = np.array([1.0, 0.0, 0.0])
        e2 = np.array([0.0, sign, 0.0])
    else:
        e1 = cross / cnorm
        e2 = np.cross(khat, e1)
    return e1, e2


def polarization_frame(mode_set: ModeSet) -> np.ndarray:
    """(n_modes, 3) array: the polarization vector attached to each mode."""
    out = np.empty((len(mode_set), 3))
    for i, m in enumerate(mode_set.modes):
        e1, e2 = polarization_vectors(m.k)
        out[i] = e1 if m.polarization_index == 1 else e2
    return out


@dataclass(frozen=True)
class ModelConfig:
    """Full physical specification of one truncated model."""

    dispersion: Dispersion
    form_factor: FormFactor
    e: float
    p: tuple[float, float, float]
    with_spin: bool
    mode_set: ModeSet
    N_max: int
    n_max: int
    allow_massless: bool = False
    dimension_cap: int = DIMENSION_CAP
    quadrature: QuadratureSpec = field(default_factory=QuadratureSpec)

    def __post_init__(self):
        if len(self.p) != 3 or not all(np.isfinite(self.p)):
            raise ConfigError("total momentum p must be a finite 3-vector")
        if not np.isfinite(self.e):
            raise ConfigError("coupling e must be finite")
        if not self.dispersion.has_gap and not self.allow_massless:
            raise ConfigError(
                "dispersion has no energy gap (inf omega = 0); "
                "set allow_massless to build this model anyway"
            )

    @property
    def p_norm(self) -> float:
        return float(np.linalg.norm(self.p))

    def at(self, **overrides) -> "ModelConfig":
        """Copy with fields replaced (p and e given as plain values)."""
        if "p" in overrides:
            overrides["p"] = tuple(float(x) for x in overrides["p"])
        return replace(self, **overrides)


def build_basis(config: ModelConfig) -> FockBasis:
    return enumerate_basis(
        config.mode_set, config.N_max, config.n_max, config.with_spin,
        dimension_cap=config.dimension_cap,
    )


def _check_basis(config: ModelConfig, basis: Optional[FockBasis]) -> FockBasis:
    if basis is None:
        return build_basis(config)
    if (basis.mode_set != config.mode_set or basis.N_max != config.N_max
            or basis.n_max != config.n_max or basis.with_spin != config.with_spin):
        raise BasisMismatchError("basis was enumerated for a different configuration")
    return basis


def field_amplitudes(config: ModelConfig) -> tuple[np.ndarray, np.ndarray]:
    """Per-mode coupling vectors for the vector potential and magnetic field.

    Returns (g, h), each (n_modes, 3):
      g[m] = phi_hat(k)/sqrt(2 omega) * sqrt(V_m) * e_j(k)
      h[m] = phi_hat(k)/sqrt(2 omega) * sqrt(V_m) * (k x e_j(k))
    so that A^mu = sum_m g[m,mu] (a_m+ + a_m) and
    B^mu = sum_m i h[m,mu] (a_m+ - a_m).
    """
    ms = config.mode_set
    karr = ms.k_array()
    radii = np.linalg.norm(karr, axis=1)
    if np.any(radii == 0.0):
        raise ConfigError("mode set contains k = 0 (polarization frame undefined)")
    pol = polarization_frame(ms)
    omega = config.dispersion.omega(radii)
    if np.any(omega <= 0.0):
        raise ConfigError("omega must be positive at every mode for field amplitudes")
    pref = config.form_factor.phi_hat(radii) / np.sqrt(2.0 * omega) * np.sqrt(ms.weights())
    g = pref[:, None] * pol
    h = pref[:, None] * np.cross(karr, pol)
    return g, h


def _boson_fields(basis: FockBasis, g: np.ndarray, h: np.ndarray):
    """(A, B, C) on the boson factor: A^mu = sum_m g[m, mu] a_m + h.c. and
    B^mu = -i sum_m h[m, mu] a_m + h.c. (3-tuples of CSR) for amplitudes g, h
    of shape (n_modes, 3), real (``field_amplitudes``) in the linear frame,
    and C = (1/2) sum_mu {P_f^mu, A^mu}, written onto the entries of
    ``basis.lowering()`` and their mirror images (``basis.field_pattern``,
    shared by both frames).  No two modes share an entry, so a field is
    exactly Hermitian; each value is bitwise the one scipy's sparse
    arithmetic on the ladders gives (``plus``)."""
    mode, _, _, root_n, rows, cols, indptr, order = basis.field_pattern
    n = basis.boson_dimension
    pf = basis.occupation_array() @ basis.mode_set.k_array()

    def plus(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        # a sparse sum adds +0 for an entry one side lacks and keeps no zero
        out = x + y
        out[out == 0.0] = 0.0
        return out

    def field(amplitude: np.ndarray, phase: complex) -> np.ndarray:
        lowering = (phase * amplitude[mode] * root_n).astype(complex)
        return plus(np.concatenate([lowering, lowering.conj()])[order], 0.0)

    def csr(data: np.ndarray) -> sp.csr_matrix:
        # scipy copies the index arrays to int32: the shared pattern is not written
        out = sp.csr_matrix((data, cols, indptr), shape=(n, n))
        out.eliminate_zeros()
        return out

    A = [field(g[:, mu], 1.0) for mu in range(3)]
    M = [plus(a * x[rows], a * x[cols]) for a, x in zip(A, pf.T)]   # A^mu P_f^mu + P_f^mu A^mu
    return (tuple(map(csr, A)), tuple(csr(field(h[:, mu], -1j)) for mu in range(3)),
            0.5 * csr(plus(plus(M[0], M[1]), M[2])))


def _field_terms(basis: FockBasis, g: np.ndarray, h: np.ndarray, spin):
    """The field terms of H in the frame of the amplitudes g, h of
    ``_boson_fields``: A (three components), C = (1/2) sum_mu {P_f^mu, A^mu}
    (P_f is one diagonal in either frame) and A2 = A.A, float64 when real and
    summed as R R - I I + i (R I + I R) for A^mu = R + i I, on the boson
    factor, and sigma.B = sum_mu spin[mu] (x) B^mu on the full basis.  Each is
    exactly Hermitian: entry (j, i) of a product sums the mirrored products
    of entry (i, j), in the same order."""
    A, B, C = _boson_fields(basis, g, h)
    re = im = sp.csr_matrix((basis.boson_dimension,) * 2)
    for R, I in ((op.real, op.imag) for op in A):
        R.eliminate_zeros()
        I.eliminate_zeros()
        if R.nnz:
            re = re + R @ R
        if I.nnz:
            re, im = re - I @ I, im + (R @ I + I @ R)
    A2 = re + 1j * im if im.nnz else re
    A2.sort_indices()
    sigma_B = sp.csr_matrix((basis.dimension,) * 2, dtype=complex)
    if basis.with_spin:
        sigma_B = sum(sp.kron(sp.csr_matrix(s), op, format="csr") for s, op in zip(spin, B))
    return A, C, A2, sigma_B


def linear_products(basis: FockBasis, g: np.ndarray, h: np.ndarray,
                    X: np.ndarray) -> tuple[np.ndarray, ...]:
    """A^x X, A^y X, A^z X, C X, (sigma.B) X and A^2 X for the linear-frame
    terms of the real amplitudes g, h, on the columns X of the full basis,
    with no term of the full basis built: from the fields of
    ``_boson_fields``, A^mu, C and A^2 X = sum_mu A^mu (A^mu X) act as
    1 (x) T on each spin half, and sigma.B X = sum_mu sigma_mu (x) (B^mu X)."""
    A, B, C = _boson_fields(basis, g, h)
    halves = X.reshape(2 if basis.with_spin else 1, basis.boson_dimension, -1)

    def boson(T: sp.csr_matrix, Y: np.ndarray) -> np.ndarray:
        return np.stack([T @ y for y in Y])

    AX = [boson(op, halves) for op in A]
    sigma_B = (sum(np.einsum("rs,s...->r...", PAULI[mu + 1], boson(B[mu], halves))
                   for mu in range(3)) if basis.with_spin else np.zeros(halves.shape))
    products = (*AX, boson(C, halves), sigma_B, sum(boson(A[mu], AX[mu]) for mu in range(3)))
    return tuple(P.reshape(X.shape) for P in products)


class Pattern(NamedTuple):
    """A CSR pattern and the positions in it of the diagonal and of each term."""

    indices: np.ndarray
    indptr: np.ndarray
    diagonal: np.ndarray
    positions: tuple[np.ndarray, ...]


@dataclass(frozen=True, eq=False)
class HamiltonianTerms:
    """The p- and e-independent terms of H(p, e) on one basis: the diagonals
    ``free_diag`` = H_f + P_f^2/2 and ``pf`` = P_f (one column per component
    of p), and ``A`` (one operator per component of p), ``C`` =
    (1/2) sum_mu {P_f^mu, A^mu}, ``sigma_B`` (zero without spin) and ``A2`` =
    A.A, canonical CSR of one dtype, float64 or complex128, which H takes.

    Construction refuses, with ``NonHermitianError``, an operator term whose
    ``hermiticity_defect`` is not 0.0.  Every H(p, e) is summed in place on
    one ``pattern`` (``pattern_data``), so it is exactly Hermitian with no
    check of its own: it is a sum of checked terms with real coefficients,
    and in floating point a real multiple or a sum of conjugates is exactly
    the conjugate of the same multiple or sum."""

    free_diag: np.ndarray
    pf: np.ndarray
    A: tuple[sp.csr_matrix, ...]
    C: sp.csr_matrix
    sigma_B: sp.csr_matrix
    A2: sp.csr_matrix

    def __post_init__(self):
        for name, op in (*((f"A[{mu}]", op) for mu, op in enumerate(self.A)),
                         ("C", self.C), ("sigma_B", self.sigma_B), ("A2", self.A2)):
            defect = hermiticity_defect(op)
            if defect != 0.0:
                raise NonHermitianError(f"term {name} of H is not exactly Hermitian "
                                        f"(defect {defect:.3e})")

    def free_diagonal(self, p) -> np.ndarray:
        """The diagonal H_f + P_f^2/2 + |p|^2/2 - p.P_f, as float64."""
        p = np.atleast_1d(np.asarray(p, dtype=float))
        return self.free_diag + 0.5 * (p @ p) - self.pf @ p

    def coefficients(self, p, e: float) -> list[tuple[float, sp.csr_matrix]]:
        """The (c, T) pairs of the interaction part, in the order of every sum."""
        p = np.atleast_1d(np.asarray(p, dtype=float))
        return [(e, self.C), (-(0.5 * e), self.sigma_B), (0.5 * e * e, self.A2),
                *((-(e * p_mu), op) for p_mu, op in zip(p, self.A))]

    @cached_property
    def pattern(self) -> Pattern:
        """The union of the diagonal and every term's entries, built at the
        first H formed from the terms."""
        terms = [op for _, op in self.coefficients(np.zeros(len(self.A)), 0.0)]
        # the union, whose entries carry bit k where term k has an entry and bit
        # len(terms) on the diagonal: sums of distinct powers of 2 are exact
        union = sum((sp.csr_matrix((np.full(op.nnz, 2.0 ** k), op.indices, op.indptr),
                                   shape=op.shape) for k, op in enumerate(terms) if op.nnz),
                    sp.diags(np.full(self.C.shape[0], 2.0 ** len(terms)), format="csr"))
        bits = union.data.astype(np.int64)
        # a canonical term's entries come in the union's order
        return Pattern(union.indices, union.indptr, np.flatnonzero(bits & (1 << len(terms))),
                       tuple(np.flatnonzero(bits & (1 << k)) for k in range(len(terms))))

    def pattern_data(self, p, e: float) -> np.ndarray:
        """The entries of H(p, e) on ``pattern``: ``coefficients`` summed in
        order from +0.0, then the free diagonal.  Where scipy's sparse sum
        meets a missing entry or drops a zero, this sum meets a stored zero,
        so each nonzero entry is bitwise the sparse sum's.  Refuses, with
        ``ConfigError``, a p or e so large that an entry is not finite."""
        pattern = self.pattern
        data = np.zeros(pattern.indices.size, dtype=self.C.dtype)
        with np.errstate(over="ignore", invalid="ignore"):
            for (c, op), at in zip(self.coefficients(p, e), pattern.positions):
                if c != 0.0 and op.nnz:
                    data[at] += op.data * c
            data[pattern.diagonal] += self.free_diagonal(p)
        if not np.isfinite(data).all():
            raise ConfigError(f"H(p, e) overflows float64 at p = {np.atleast_1d(p).tolist()}, "
                              f"e = {e}; lower |p| or e")
        return data

    def hamiltonian(self, p, e: float) -> sp.csr_matrix:
        """H(p, e), exactly Hermitian, without stored zeros: a new matrix
        that shares no array with ``pattern``."""
        H = sp.csr_matrix((self.pattern_data(p, e), self.pattern.indices.copy(),
                           self.pattern.indptr.copy()), shape=self.C.shape)
        H.eliminate_zeros()
        return H


# -- the circular-polarization frame ----------------------------------------


def _axis_direction(basis: FockBasis) -> np.ndarray:
    """The mode-set axis, along which angular momentum is measured."""
    if not basis.mode_set.axial:
        raise NotAxialError(
            "angular-momentum sector analysis requires an axial mode set "
            "(orbital angular momentum has no exact realization on scattered k-points)"
        )
    return np.asarray(basis.mode_set.axis, dtype=float)


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
    return np.array([[c, -s * np.exp(-1j * phi)], [s * np.exp(1j * phi), c]], dtype=complex)


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
        raise PflabError("circular-polarization basis change needs n_max >= N_max "
                         f"(got n_max={basis.n_max} < N_max={basis.N_max}): the per-mode "
                         "cutoff would clip the rotated states")
    pairs = basis.mode_set.polarization_pairs
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
    ms = basis.mode_set
    sign = np.where(np.array(ms.k_points) @ u > 0.0, 1.0, -1.0)
    weights = np.empty(len(ms))
    weights[ms.polarization_pairs] = np.column_stack([sign, -sign])
    boson = basis.occupation_array().astype(float) @ weights
    if not basis.with_spin:
        return boson
    return np.concatenate([boson + 0.5, boson - 0.5])


def circular_mirror(basis: FockBasis) -> tuple[np.ndarray, np.ndarray]:
    """The reflection through the plane of the axis u and the polarization-1
    vectors: the phased permutation (P x)[i] = phase[i] x[index[i]] of the
    circular frame, as (index, phase).  It reverses every e_2(k), so ``index``
    swaps the occupations of the modes (+) and (-) of each k-point (Pi); with
    spin P = F (x) Pi, and the phases are the entries of the spin flip
    F = S+ (n.sigma) S (n the line of the polarization-2 vectors, S the spin
    frame along u).  P commutes with H(t u, e) and maps J_axis sector z onto -z."""
    u = _axis_direction(basis)
    one, two = basis.mode_set.polarization_pairs.T
    swapped = basis.occupation_array().copy()
    swapped[:, one], swapped[:, two] = swapped[:, two], swapped[:, one]
    index = basis.boson_index(swapped)
    if not basis.with_spin:
        return index, np.ones(index.size)
    n = polarization_frame(basis.mode_set)[two.min()]
    S = _spin_frame(u)
    F = S.conj().T @ sum(n[mu] * PAULI[mu + 1] for mu in range(3) if n[mu] != 0.0) @ S
    if np.abs(np.abs(F) - PAULI[1]).max() > SECTOR_LEAK_TOL:
        raise PflabError(f"the mirror's spin factor {F.tolist()} is no spin flip along the axis")
    return np.concatenate([index + index.size, index]), np.repeat([F[0, 1], F[1, 0]], index.size)


@dataclass(frozen=True, eq=False)
class SectorSplit:
    """The J_axis sectors of an axial model with mode axis u in the circular
    frame, built by ``sector_split``: sector i has eigenvalue ``labels[i]``
    (ascending, symmetric about 0) and spans ``starts[i]`` to
    ``starts[i + 1]`` of the states ordered by label.  ``upper`` holds the
    terms of H block diagonal on the sectors z >= 0, float64 or complex128;
    p = t u has the one coordinate t: ``pf`` is the column u.P_f and ``A`` is
    (u.A,).  ``source[i]`` indexes the block of ``upper_blocks`` that carries
    sector i's pairs: its own for z >= 0, that of -z for z < 0.
    ``to_linear[i]``'s (complex) columns map them to the linear basis: W_z
    for z >= 0 and W_z P_-z (P of ``circular_mirror``) for z < 0, which takes
    a pair (lambda, x) of sector -z to one of z.  ``leak_max`` is the largest
    entry the terms have between two sectors, at most ``SECTOR_LEAK_TOL``:
    0.0 on the z axis."""

    upper: HamiltonianTerms
    labels: tuple[float, ...]
    starts: tuple[int, ...]
    to_linear: tuple[sp.csr_matrix, ...]
    leak_max: float
    source: tuple[int, ...]

    @property
    def first_upper(self) -> int:
        """Index of the first sector with label >= 0."""
        return sum(z < 0.0 for z in self.labels)

    @cached_property
    def _upper_rows(self) -> tuple[int, ...]:
        """The first row of each block of ``upper`` and, last, its dimension."""
        return tuple(a - self.starts[self.first_upper] for a in self.starts[self.first_upper:])

    def block(self, data: np.ndarray, j: int) -> sp.csr_matrix:
        """Block j of the sectors with label >= 0 of the matrix with entries
        ``data`` on ``upper.pattern``: a view of that sector's range of
        ``data``."""
        ptr = self.upper.pattern.indptr
        a, b = self._upper_rows[j:j + 2]
        return sp.csr_matrix((data[ptr[a]:ptr[b]], self.upper.pattern.indices[ptr[a]:ptr[b]] - a,
                              ptr[a:b + 1] - ptr[a]), shape=(b - a, b - a))

    def upper_blocks(self, t: float, e: float) -> list[sp.csr_matrix]:
        """The blocks of H(t u, e) on the sectors with label >= 0, ascending
        in label: each a view of one sector's range of ``upper.pattern_data``,
        exactly Hermitian, and its ``toarray()`` bitwise that block of the
        sparse sum of ``upper``'s terms."""
        data = self.upper.pattern_data(t, e)
        return [self.block(data, j) for j in range(len(self._upper_rows) - 1)]

    def lower_bounds(self, data: np.ndarray) -> tuple[np.ndarray, float]:
        """Gershgorin's lower bound min_i (d_i - sum_{j != i} |B_ij|) on the
        eigenvalues of each block B of the matrix with entries ``data`` on
        ``upper.pattern``, in block order, and the rounding slack n eps
        max_i sum_j |B_ij| (n the dimension of ``upper``) that a bound and a
        computed eigenvalue may each be off by."""
        pattern = self.upper.pattern
        size = np.abs(data)
        rows = pattern.indptr[:-1]           # every row holds its diagonal entry
        total = np.add.reduceat(size, rows)
        size[pattern.diagonal] = 0.0
        discs = data[pattern.diagonal].real - np.add.reduceat(size, rows)
        slack = rows.size * np.finfo(float).eps * float(total.max())
        return np.minimum.reduceat(discs, self._upper_rows[:-1]), slack


@dataclass(frozen=True, eq=False)
class ModelOperators:
    """What H(p, e) of one model is built from: the ``basis``, the diagonals
    ``free_diag`` = H_f + P_f^2/2 and ``pf`` = P_f on it, and the field
    amplitudes (g, h) of ``field_amplitudes``.  The terms are built at first
    use, in the frame a path solves in: ``linear`` on the full basis (a
    momentum off the axis), ``sectors`` on the J_axis sectors in the
    circular frame (a momentum on the axis)."""

    basis: FockBasis
    free_diag: np.ndarray
    pf: np.ndarray
    amplitudes: tuple[np.ndarray, np.ndarray]

    @cached_property
    def linear(self) -> HamiltonianTerms:
        """The terms of H(p, e) in the linear frame on the full basis, built
        at first use by ``_field_terms``: A, C and A^2 spin-tensored as
        1 (x) T, and sigma.B."""
        basis = self.basis
        A, C, A2, sigma_B = _field_terms(basis, *self.amplitudes, PAULI[1:])
        return HamiltonianTerms(free_diag=self.free_diag, pf=self.pf,
                                A=tuple(spin_tensor(op, basis) for op in A),
                                C=spin_tensor(C, basis), sigma_B=sigma_B,
                                A2=spin_tensor(A2.astype(complex), basis))

    def axis_coordinate(self, p) -> Optional[float]:
        """t with p = t u on the mode axis u, or None when H(p) has no sector
        split: the mode set is not axial, n_max < N_max (the circular basis
        change would leave the truncation), or p is off the axis."""
        basis = self.basis
        if not basis.mode_set.axial or basis.n_max < basis.N_max:
            return None
        u = np.asarray(basis.mode_set.axis, dtype=float)
        p = np.asarray(p, dtype=float)
        with np.errstate(over="ignore"):    # H refuses an overflowing p when formed
            t = float(p @ u)
            off = np.linalg.norm(p - t * u)
        return None if off > 1e-14 * max(1.0, abs(t)) else t

    @cached_property
    def sectors(self) -> SectorSplit:
        """The model's J_axis sectors (``sector_split``), built at first use."""
        return sector_split(self)

    def blocks(self, p, e: float) -> list[tuple[sp.csr_matrix, sp.csr_matrix]]:
        """H(p, e) as pairs (B, T) with H(p, e) = sum T B T+: on the axis
        (``axis_coordinate``) each sector's block of ``upper_blocks`` and its
        map ``to_linear``, off it the single pair (``linear``'s H, identity)."""
        t = self.axis_coordinate(p)
        if t is None:
            return [(self.linear.hamiltonian(p, e), sp.identity(self.basis.dimension))]
        split = self.sectors
        blocks = split.upper_blocks(t, e)
        return [(blocks[j], T) for j, T in zip(split.source, split.to_linear)]


def sector_split(ops: ModelOperators) -> SectorSplit:
    """The J_axis sectors of ``ops``'s model, ascending in label; the one
    builder of a ``SectorSplit``, which ``ModelOperators.sectors`` caches.

    In the circular frame a k-point carries the modes b_+- with b_+-+ =
    (a_1+ +- i a_2+)/sqrt(2): u.A, C, sigma.B and A^2 are built by
    ``_field_terms`` with amplitudes (g_1 +- i g_2)/sqrt(2), (h_1 +- i
    h_2)/sqrt(2) and spin matrices (M + M+)/2, M = S+ sigma_mu S for the spin
    frame S along u, as float64 when every imaginary entry is exactly 0.0.
    The mirror P (``circular_mirror``) must be an involution mapping sector z
    onto -z and keep each term and the diagonals (the same in both frames) to
    ``SECTOR_LEAK_TOL``.  One pass cuts each term to its entries inside a
    sector z >= 0; its entries between two sectors may reach
    ``SECTOR_LEAK_TOL`` (``leak_max``).  Each term T_c must match its linear
    form T on two probe columns X, T (W X) = W (T_c X), to ``SECTOR_LEAK_TOL``
    times the largest row sum of |T_c| (at least 1); ``linear_products``
    applies T to W X on the boson factor, so no linear term of the full basis
    is built."""
    basis = ops.basis
    u = _axis_direction(basis)
    index, phase = circular_mirror(basis)
    W = helicity_rotation(basis).tocsc()
    labels = circular_labels(basis)
    if not (np.array_equal(index[index], np.arange(index.size))
            and np.array_equal(labels[index], -labels)):
        raise PflabError("the mirror is no involution mapping angular-momentum sector z onto -z")
    values = np.unique(labels)
    starts = np.cumsum([0, *(np.count_nonzero(labels == z) for z in values)])
    upper = np.argsort(labels, kind="stable")[starts[np.sum(values < 0.0)]:]

    one, two = basis.mode_set.polarization_pairs.T

    def circular(x: np.ndarray) -> np.ndarray:
        out = np.empty(x.shape, dtype=complex)
        out[one], out[two] = ((x[one] + s * 1j * x[two]) / math.sqrt(2.0) for s in (1, -1))
        return out

    S = _spin_frame(u)
    spin = [(M + M.conj().T) / 2 for M in (S.conj().T @ sigma @ S for sigma in PAULI[1:])]
    A, C, A2, sigma_B = _field_terms(basis, *map(circular, ops.amplitudes), spin)
    boson = (sum(u[mu] * A[mu] for mu in range(3) if u[mu] != 0.0), C, A2)
    if not any(np.any(op.data.imag) for op in (*boson, sigma_B)):
        boson, sigma_B = tuple(op.real for op in boson), sigma_B.real
    # P T P+ has entry (i, j) phase[i] T[index[i], index[j]] phase[j]*: P = F (x) Pi
    # keeps 1 (x) T iff Pi (index[-boson_dimension:]) keeps T, F being unitary, and
    # on a diagonal d the phases cancel, P diag(d) P+ = diag(d[index])
    pi, F = index[-basis.boson_dimension:], sp.diags(phase)
    changes = [*(op[pi][:, pi] - op for op in boson),
               F @ sigma_B[index][:, index] @ F.conj() - sigma_B,
               *(d[index] - d for d in (ops.free_diag, ops.pf @ u))]
    for name, change in zip(("u.A", "C", "A^2", "sigma.B", "free diagonal", "u.P_f"), changes):
        change = float(abs(change).max())
        if change > SECTOR_LEAK_TOL:
            raise PflabError(f"the mirror changes the term {name} of H by up to {change:.3e}")
    A_axis, C, A2 = (spin_tensor(op.astype(sigma_B.dtype), basis) for op in boson)
    terms = (A_axis, C, sigma_B, A2)
    position = np.full(basis.dimension, -1)
    position[upper] = np.arange(upper.size)

    def cut(op: sp.csr_matrix) -> tuple[sp.csr_matrix, float]:
        row = np.repeat(np.arange(basis.dimension), np.diff(op.indptr))
        inside = labels[row] == labels[op.indices]
        leak = np.where(inside, 0.0, np.abs(op.data))
        worst = float(leak.max(initial=0.0))
        if worst > SECTOR_LEAK_TOL:
            raise PflabError(f"a term of H couples angular-momentum sector "
                             f"{labels[row[leak.argmax()]]:+g} to others "
                             f"(max entry {worst:.3e})")
        keep = inside & (position[row] >= 0)
        row, col = position[row[keep]], position[op.indices[keep]]
        # scipy's counting sort on the rows keeps each row's ascending order
        return sp.csr_matrix((op.data[keep], (row, col)), shape=(upper.size,) * 2), worst

    (A_z, C_z, sigma_B_z, A2_z), leaks = zip(*map(cut, terms))
    X = np.exp(2j * np.pi * np.random.default_rng(0).random((basis.dimension, 2)))
    *AWX, CWX, sigma_BWX, A2WX = linear_products(basis, *ops.amplitudes, W @ X)
    linear = (sum(u[mu] * AWX[mu] for mu in range(3) if u[mu] != 0.0), CWX, sigma_BWX, A2WX)
    for name, TWX, T_c in zip(("u.A", "C", "sigma.B", "A^2"), linear, terms):
        gap = float(np.abs(TWX - W @ (T_c @ X)).max())
        if gap > SECTOR_LEAK_TOL * max(1.0, float(abs(T_c).sum(axis=1).max())):
            raise PflabError(f"the circular-frame term {name} of H is not the helicity "
                             f"rotation of its linear form (off by {gap:.3e} on a probe)")
    states = [np.flatnonzero(labels == abs(z)) for z in values]
    # column j of W_z P_-z, for z < 0 and j in sector -z, is phase[index[j]] W[:, index[j]]
    to_linear = [(W[:, s] if z >= 0.0 else W[:, index[s]] @ sp.diags(phase[index[s]])).tocsr()
                 for z, s in zip(values, states)]
    return SectorSplit(
        upper=HamiltonianTerms(free_diag=ops.free_diag[upper], pf=(ops.pf @ u)[upper, None],
                               A=(A_z,), C=C_z, sigma_B=sigma_B_z, A2=A2_z),
        labels=tuple(float(z) for z in values), starts=tuple(int(x) for x in starts),
        to_linear=tuple(to_linear), leak_max=max(leaks),
        source=tuple(int(j) for j in np.searchsorted(values[values >= 0.0], np.abs(values))))


def build_operators(config: ModelConfig, basis: Optional[FockBasis] = None) -> ModelOperators:
    """The operator set of ``config``'s truncated model: the basis, the
    diagonals and the field amplitudes, from which each path builds the terms
    it needs at first use (``ModelOperators.linear``, ``.sectors``).
    ``config.p`` and ``config.e`` are not used, so one set serves every
    momentum and coupling."""
    basis = _check_basis(config, basis)
    amplitudes = field_amplitudes(config)
    karr = config.mode_set.k_array()
    occ = np.tile(basis.occupation_array(), (2 if basis.with_spin else 1, 1))
    omega = np.asarray(config.dispersion.omega(np.linalg.norm(karr, axis=1)), dtype=float)
    pf = occ @ karr
    return ModelOperators(basis=basis, free_diag=occ @ omega + 0.5 * np.sum(pf * pf, axis=1),
                          pf=pf, amplitudes=amplitudes)


def assemble_hamiltonian(config: ModelConfig, basis: Optional[FockBasis] = None) -> sp.csr_matrix:
    """Full fibered Hamiltonian H(p) = H0(p) + H_int on the truncated basis,
    exactly Hermitian.  A loop over p or e should call ``build_operators``
    once and ``ModelOperators.linear.hamiltonian`` per point instead."""
    return build_operators(config, basis).linear.hamiltonian(config.p, config.e)


# -- scalar diagnostics ------------------------------------------------------


def _radial_grid(config: ModelConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(omega, phi_hat^2, 4 pi w r^2) on the Gauss-Legendre radial grid of
    ``config.quadrature``, for rotation-invariant integrals over k."""
    q = config.quadrature
    r, w = gauss_legendre(0.0, q.r_max, q.n_radial)
    omega = np.asarray(config.dispersion.omega(r), dtype=float)
    phi2 = np.asarray(config.form_factor.phi_hat(r), dtype=float) ** 2
    return omega, phi2, 4.0 * np.pi * w * r * r


def coupling_bound(config: ModelConfig) -> float:
    """Relative-bound diagnostic c0(e) for the interaction against H0 + 1.

        c0(e) = |e| [I1]^(1/2) + e^2 I2,
        I1 = int (omega^-2 + omega) phi_hat^2 dk,
        I2 = int (omega^-2 + 1) phi_hat^2 dk,

    with the order-one prefactor set to 1.  This is a heuristic warning
    threshold (c0 < 1 suggests the interaction is relatively small), not a
    certified bound.  Returns +inf when the quadrature diverges (omega
    reaching 0 inside the grid).
    """
    omega, phi2, shell = _radial_grid(config)
    if np.any(omega <= 0.0):
        return math.inf
    i1 = float(np.sum(shell * (omega**-2 + omega) * phi2))
    i2 = float(np.sum(shell * (omega**-2 + 1.0) * phi2))
    e = abs(config.e)
    return e * math.sqrt(i1) + e * e * i2


def form_factor_decay_integrals(config: ModelConfig) -> dict[str, float]:
    """The four ultraviolet/infrared decay integrals int omega^s phi_hat^2 dk, s in {-2,-1,0,1}."""
    omega, phi2, shell = _radial_grid(config)
    out = {}
    for s, name in ((-2, "omega^-2"), (-1, "omega^-1"), (0, "1"), (1, "omega")):
        if np.any(omega <= 0.0) and s < 0:
            out[name] = math.inf
        else:
            out[name] = float(np.sum(shell * omega**s * phi2))
    return out


@dataclass(frozen=True)
class DispersionAxioms:
    """Sampled margins for the three dispersion requirements.

    ``omega_min``: sampled infimum of omega (gap requirement: > 0).
    ``subadditivity_margin``: min of omega(k1)+omega(k2)-omega(k1+k2) (>= 0).
    ``isotropy_deviation``: max |omega(k) - omega(Rk)| over random rotations (= 0).
    """

    omega_min: float
    subadditivity_margin: float
    isotropy_deviation: float

    @property
    def gap_holds(self) -> bool:
        return self.omega_min > 0.0

    @property
    def subadditive(self) -> bool:
        return self.subadditivity_margin >= -1e-12

    @property
    def isotropic(self) -> bool:
        return self.isotropy_deviation <= 1e-10


def _random_rotation(rng: np.random.Generator) -> np.ndarray:
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(0.0, 2.0 * np.pi)
    return rotation_matrix(axis, angle)


def rotation_matrix(axis, angle: float) -> np.ndarray:
    """Rotation by ``angle`` about the unit vector ``axis`` (Rodrigues form)."""
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    K = np.array([
        [0.0, -axis[2], axis[1]],
        [axis[2], 0.0, -axis[0]],
        [-axis[1], axis[0], 0.0],
    ])
    return np.eye(3) + math.sin(angle) * K + (1.0 - math.cos(angle)) * (K @ K)


def check_dispersion_axioms(dispersion: Dispersion, rng_seed: int = 0) -> DispersionAxioms:
    """Sample the gap, subadditivity, and isotropy requirements on
    ``AXIOM_SAMPLES`` random k with |k| up to ``AXIOM_K_MAX``.

    Violations are reported through the margins, never raised.  The custom
    dispersion is sampled inside its table only.
    """
    rng = np.random.default_rng(rng_seed)
    k_max = AXIOM_K_MAX
    if dispersion.kind == "custom":
        k_max = min(k_max, dispersion.samples[-1][0] / 2.0)
    ks = rng.uniform(-k_max / math.sqrt(3.0), k_max / math.sqrt(3.0), size=(AXIOM_SAMPLES, 3))
    radii = np.linalg.norm(ks, axis=1)
    # the infimum is usually approached at k -> 0; probe that limit explicitly
    r_floor = dispersion.samples[0][0] if dispersion.kind == "custom" else 0.0
    omega_min = float(min(np.min(dispersion.omega(radii)),
                          dispersion.omega(r_floor)))
    k1 = ks
    k2 = ks[rng.permutation(AXIOM_SAMPLES)]
    margin = (np.asarray(dispersion.omega(np.linalg.norm(k1, axis=1)))
              + np.asarray(dispersion.omega(np.linalg.norm(k2, axis=1)))
              - np.asarray(dispersion.omega(np.linalg.norm(k1 + k2, axis=1))))
    deviation = 0.0
    for _ in range(8):
        R = _random_rotation(rng)
        rot = np.asarray(dispersion.omega(np.linalg.norm(ks @ R.T, axis=1)))
        ref = np.asarray(dispersion.omega(radii))
        deviation = max(deviation, float(np.max(np.abs(rot - ref))))
    return DispersionAxioms(
        omega_min=omega_min,
        subadditivity_margin=float(np.min(margin)),
        isotropy_deviation=deviation,
    )
