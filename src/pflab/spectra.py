"""Lowest eigenpairs, ground-cluster degeneracy detection, dispersion sweeps
E(p), and the spectral gap via the continuum-onset formula
E_c(p) = inf_k { E(p-k) + omega(k) }.

The iterative path is a block Davidson method (E. R. Davidson, J. Comput.
Phys. 17, 87, 1975; Crouzeix, Philippe and Sadkane, SIAM J. Sci. Comput.
15, 62, 1994) preconditioned by (diag(H) - theta)^-1, which is close to an
exact inverse where the free energy on the diagonal of H(p, e) dominates
the O(e) field terms.  Its block holds one column per wanted pair and two
more, so it resolves a degenerate cluster in one pass.  Its search space
grows in place in preallocated arrays, by correction blocks projected off
it and orthonormalized by a rank-checked QR, twice: one QR of nearly
dependent columns loses orthogonality to the space.  A dense eigensolver
handles small problems and doubles as the cross-check oracle;
``choose_method`` picks between the two.  A diagonal matrix is solved from
its sorted diagonal.  All randomness comes from one seeded generator (the
noise on Davidson's start block), so identical inputs give bit-identical
results.

``solve_model`` is the entry point for a model's H(p, e): on an axial model
with p on the axis it solves each angular-momentum sector separately and
merges the sectors' lowest pairs (see ``ModelOperators.sectors`` and the
J_axis paragraph of ``model``); its ``SpectralResult.sectors`` then records
each sector's ground energy.  ``ground_sector_labels`` reads those off and
names the sectors that hold the ground energy; it solves nothing itself.
``ground_energy`` returns solve_model's lowest value alone; on the axis it
solves the blocks in ascending order of their Gershgorin lower bounds and
skips those that cannot hold it, so it records no sector.  A command builds
its model's operator set once (``model_operators``) and passes it to every
solve: ``energy_sweep`` solves a list of momenta and clusters each point's
spectrum, ``sweep_energy_curve`` takes one ``ground_energy`` per point of
the E(q) curve that the gap formula and the bounds interpolate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .errors import (
    ConfigError,
    DomainError,
    IndeterminateDegeneracy,
    NonHermitianError,
    PflabError,
    SolverError,
    require_memory,
)
from .fock import hermiticity_defect
from .model import ModelConfig, ModelOperators, build_operators

DEFAULT_SEED = 7
# choose_method: dense up to DENSE_MAX_DIM, Davidson above
DENSE_MAX_DIM = 300
DEFAULT_TOL = 1e-11
# Davidson restarts its search space at max(DAVIDSON_BASIS, 3 (n_eig + 2))
# columns and gives up after MAX_ITERATIONS iterations
DAVIDSON_BASIS = 40
MAX_ITERATIONS = 500
EPS_DEG = 1e-8
EPS_SEP = 1e-5


@dataclass(frozen=True)
class SectorSolve:
    """How one angular-momentum sector of a ``solve_model`` call was solved.
    ``ground_energy`` is the lowest eigenvalue of the sector's final solve.
    ``mirror_of`` is None for a solved sector; a sector obtained through the
    mirror names its source's label and copies its dimension, pairs, method
    and ground energy.  ``matvecs`` counts the products with the sector's
    block over all of its solves; a mirror image made none."""

    label: float
    dimension: int
    pairs: int
    method: str
    ground_energy: float
    mirror_of: Optional[float] = None
    matvecs: int = 0


@dataclass
class SpectralResult:
    """Converged lowest eigenpairs, ascending.

    ``matvecs`` counts the products of H with a vector that the solve made
    (0 for a dense or diagonal solve).  ``sectors`` is empty for a
    full-space solve; for a sector solve (``method`` "sectors") it records
    each sector's final solve.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residual_norms: np.ndarray
    method: str
    matvecs: int = 0
    sectors: tuple[SectorSolve, ...] = ()

    @property
    def ground_energy(self) -> float:
        return float(self.eigenvalues[0])


@dataclass
class GroundCluster:
    """Eigenvalues clustered at the bottom of the spectrum and their subspace.

    ``basis`` holds orthonormal columns spanning the cluster; the rank-count
    projector is ``basis @ basis.conj().T``.
    """

    count: int
    eigenvalues: np.ndarray
    basis: np.ndarray
    cluster_width: float
    gap_above: float

    @property
    def energy(self) -> float:
        return float(self.eigenvalues[0])


def _as_operator(H) -> sp.csr_matrix:
    """H as CSR in float64 or complex128, whichever holds its entries; the
    solvers work in that dtype."""
    H = H.tocsr() if sp.issparse(H) else sp.csr_matrix(np.asarray(H))
    return H.astype(np.result_type(H.dtype, np.float64), copy=False)


def choose_method(dim: int) -> str:
    """"dense" or "davidson" for a sparse Hermitian matrix of dimension
    ``dim``: dense up to DENSE_MAX_DIM, whatever the number of pairs.

    Where the diagonal of H(p, e) dominates, Davidson needs a few matvecs
    per pair and beats a dense solve above a few hundred rows at 1, 2 and 6
    pairs alike.  ``scripts/solver_crossover.py`` times both methods and
    fits the one cutoff that loses the least time over its rows.
    """
    return "dense" if dim <= DENSE_MAX_DIM else "davidson"


def _dense(H: sp.csr_matrix) -> np.ndarray:
    """``H.toarray()``, refused before allocating when a dense solve of H (the
    array and LAPACK's copy of it, 2 x itemsize x n^2 bytes: 2 x 8 n^2 real,
    2 x 16 n^2 complex) would not fit in the machine's physical memory."""
    n = H.shape[0]
    require_memory(2 * H.dtype.itemsize * n * n, f"a dense solve at dimension {n}",
                   "lower --n-eig or the cutoffs N_max/n_max")
    return H.toarray()


def _dense_lowest(H: sp.csr_matrix, n_eig: int) -> SpectralResult:
    # LAPACK computes only the lowest n_eig pairs, not the full spectrum
    vals, vecs = sla.eigh(_dense(H), subset_by_index=[0, n_eig - 1])
    resid = np.linalg.norm(H @ vecs - vecs * vals[None, :], axis=0)
    return SpectralResult(vals, vecs, resid, "dense")


def _diagonal_lowest(H: sp.csr_matrix, n_eig: int) -> Optional[SpectralResult]:
    """The lowest pairs of a matrix with no nonzero off-diagonal entry, read
    from its diagonal (stable order, unit vectors, zero residuals); None for
    any other matrix."""
    rows = np.repeat(np.arange(H.shape[0]), np.diff(H.indptr))
    if np.any(H.data[H.indices != rows]):
        return None
    diag = H.diagonal().real
    order = np.argsort(diag, kind="stable")[:n_eig]
    vecs = np.zeros((H.shape[0], n_eig), dtype=H.dtype)
    vecs[order, np.arange(n_eig)] = 1.0
    return SpectralResult(diag[order], vecs, np.zeros(n_eig), "diagonal")


def _davidson_lowest(H: sp.csr_matrix, n_eig: int, seed: int,
                     start: Optional[np.ndarray] = None) -> SpectralResult:
    """The lowest ``n_eig`` pairs of H by block Davidson, in H's dtype."""
    # Rayleigh-Ritz on V[:, :m], extended each iteration by the corrections
    # (diag(H) - theta_j)^-1 r_j of the unconverged pairs j (by the residuals
    # r_j when theta on a diagonal entry puts every correction in V already),
    # and restarted from the Ritz block when it would outgrow ``basis``
    # columns.  The block of n_eig + 2 columns starts at the unit vectors of
    # the lowest diagonal entries (after ``start``'s columns, when given)
    # with seeded noise, so a degenerate cluster has one start column per copy.
    n = H.shape[0]
    k = min(n, n_eig + 2)
    diag = H.diagonal().real
    fresh = k - (0 if start is None else start.shape[1])
    rng = np.random.default_rng(seed)
    X = 1e-3 * rng.standard_normal((n, fresh))
    if np.iscomplexobj(H):
        X = X + 1e-3j * rng.standard_normal((n, fresh))
    X[np.argsort(diag, kind="stable")[k - fresh:k], np.arange(fresh)] += 1.0
    T = np.linalg.qr(X if start is None else np.column_stack([start, X]))[0]
    basis = max(DAVIDSON_BASIS, 3 * k)
    # Fortran order keeps each column, and so each slice V[:, :m], contiguous
    V = np.empty((n, basis), dtype=T.dtype, order="F")
    AV = np.empty_like(V)
    m = matvecs = 0
    for _ in range(MAX_ITERATIONS):
        V[:, m:m + T.shape[1]], AV[:, m:m + T.shape[1]] = T, H @ T
        m += T.shape[1]
        matvecs += T.shape[1]
        theta, S = np.linalg.eigh(V[:, :m].conj().T @ AV[:, :m])
        X, AX, theta = V[:, :m] @ S[:, :k], AV[:, :m] @ S[:, :k], theta[:k]
        R = AX - X * theta
        norms = np.linalg.norm(R, axis=0)
        todo = np.flatnonzero(norms[:n_eig] > DEFAULT_TOL * np.maximum(1.0, np.abs(theta[:n_eig])))
        if not todo.size:
            break
        shift = diag[:, None] - theta[None, todo]
        shift[np.abs(shift) < 1e-12] = 1e-12
        if m + todo.size > basis:
            V[:, :k], AV[:, :k], m = X, AX, k
        for T in (R[:, todo] / shift, R[:, todo]):
            T = T / np.linalg.norm(T, axis=0)
            for _ in range(2):
                T -= V[:, :m] @ (V[:, :m].conj().T @ T)
                T, tri = np.linalg.qr(T)
                # a column left with less than 1e-10 of its norm lies in V already
                T = T[:, np.abs(tri.diagonal()) > 1e-10]
            if T.shape[1]:
                break
    else:
        raise SolverError(f"Davidson did not converge {n_eig} pairs within {MAX_ITERATIONS} "
                          f"iterations (largest residual {norms[:n_eig].max():.3e})",
                          residuals=norms[:n_eig].tolist())
    X, theta = X[:, :n_eig], theta[:n_eig]
    resid = np.linalg.norm(H @ X - X * theta, axis=0)
    return SpectralResult(theta, X, resid, "davidson", matvecs + n_eig)


def _check_n_eig(n_eig: int, n: int, method: str = "auto") -> None:
    # a dense solve can return the whole spectrum; the others need n_eig < n
    top = n if method == "dense" else n - 1
    if not (1 <= n_eig <= top):
        raise ValueError(
            f"n_eig must satisfy 1 <= n_eig < dimension (<= with method dense); "
            f"got n_eig={n_eig} for dimension {n} and method {method!r}"
        )


def solve_lowest(H, n_eig: int, seed: int = DEFAULT_SEED, method: str = "auto", *,
                 start: Optional[np.ndarray] = None, _checked: bool = False) -> SpectralResult:
    """Lowest ``n_eig`` eigenpairs of a Hermitian matrix.

    ``method``: "dense", "davidson", or "auto": a diagonal matrix is read
    off its diagonal (method "diagonal"), any other goes where
    ``choose_method`` sends it by its dimension alone; model solves
    (``solve_model``) always take "auto".  Davidson converges a pair at
    residual <= DEFAULT_TOL * max(1, |lambda|) and gives up after
    MAX_ITERATIONS iterations.
    ``start``, at most ``n_eig`` + 2 orthonormal columns in H's dtype, begins
    Davidson's block in place of as many unit vectors; the other methods
    ignore it, and any method refuses a ``start`` of the wrong shape.
    ``n_eig`` may equal the dimension only with method "dense".  Rejects
    a matrix that is not exactly Hermitian with one ``hermiticity_defect``
    of H before any solve; ``_checked`` skips that check and is for
    ``solve_model`` alone, whose matrices are exactly Hermitian by
    construction (``model.HamiltonianTerms``).
    A LAPACK failure is raised as SolverError, like a Davidson solve that
    does not converge; a dense solve too large for physical memory as
    ResourceError.  The solve works in float64 for a real matrix and in
    complex128 otherwise, and returns eigenvectors of that dtype.
    """
    H = _as_operator(H)
    n = H.shape[0]
    if H.shape[0] != H.shape[1]:
        raise NonHermitianError(f"matrix is not square: {H.shape}")
    _check_n_eig(n_eig, n, method)
    if start is not None and (start.ndim != 2 or start.shape[0] != n
                              or start.shape[1] > min(n, n_eig + 2)):
        raise ValueError(f"start must have {n} rows and at most {min(n, n_eig + 2)} columns; "
                         f"got shape {start.shape}")
    if not _checked:
        defect = hermiticity_defect(H)
        if defect != 0.0:
            raise NonHermitianError(f"matrix is not exactly Hermitian (defect {defect:.3e}); "
                                    "symmetrize before solving")
    if method not in ("auto", "dense", "davidson"):
        raise ValueError(f"unknown method {method!r}")
    if method == "auto":
        diagonal = _diagonal_lowest(H, n_eig)
        if diagonal is not None:
            return diagonal
        method = choose_method(n)
    try:
        if method == "dense":
            return _dense_lowest(H, n_eig)
        return _davidson_lowest(H, n_eig, seed, start)
    except np.linalg.LinAlgError as err:
        raise SolverError(f"LAPACK failed on the dimension-{n} problem: {err}") from err


def _solve_block(block: sp.csr_matrix, pairs: int, seed: int,
                 start: Optional[np.ndarray] = None) -> SpectralResult:
    """The lowest ``pairs`` pairs of one sector block of H(p, e)."""
    # only a dense solve returns a whole spectrum
    return solve_lowest(block, pairs, seed=seed, _checked=True, start=start,
                        method="dense" if pairs == block.shape[0] else "auto")


def solve_model(ops: ModelOperators, p, e: float, n_eig: int,
                seed: int = DEFAULT_SEED) -> SpectralResult:
    """Lowest ``n_eig`` eigenpairs of H(p, e) built from ``ops``, in the linear
    basis of ``assemble_hamiltonian``.

    When p lies on the axis of an axial model with n_max >= N_max
    (``ModelOperators.axis_coordinate``), H(p) commutes with J_axis, and the
    blocks of H(t u, e) on the sectors with label >= 0 are formed on the
    sector split's stored pattern (``SectorSplit.upper_blocks``).  Each goes
    to ``solve_lowest`` on its own (at e = 0 each block is diagonal and is
    read off its diagonal).  No matrix is checked to be Hermitian here: the
    terms were checked when they were built, and every H(p, e) formed from
    them is exactly Hermitian (``model.HamiltonianTerms``).  The mirror P
    maps sector z onto -z, so the pairs of sector -z are (lambda, W_-z P_z x)
    for the pairs (lambda, x) of z, with z's residuals
    (``SectorSplit.to_linear``): ``SectorSplit.source`` names the block that
    carries each sector's pairs, and a block's values count in the merge once
    per sector it carries.  Each solved sector starts at one pair (two when
    n_eig > 1) and is re-solved with twice as many, up to n_eig, until it is
    exhausted or its highest computed eigenvalue is at or above the n_eig-th
    lowest of all sectors' values; no sector can then hold one of the n_eig
    lowest eigenvalues that was not computed.  A grown sector's solve starts
    from the eigenvectors of its last one.  A sector needing all of its pairs
    (never more than n_eig) is solved dense, any other block by method
    "auto" (``_solve_block``).  The blocks are real when the sector terms
    are (``SectorSplit``), and so are their eigenvectors; only the n_eig
    kept ones are mapped back to the linear basis, where they become
    complex.  The residuals are those of the sector blocks.  Any other
    model or momentum is solved in the full space by
    ``solve_lowest``, on the linear-frame terms (``ModelOperators.linear``),
    built at its first such solve.
    """
    t = ops.axis_coordinate(p)
    if t is None:
        return solve_lowest(ops.linear.hamiltonian(p, e), n_eig, seed=seed, _checked=True)
    _check_n_eig(n_eig, ops.basis.dimension)
    split = ops.sectors
    blocks = split.upper_blocks(t, e)
    copies = np.bincount(split.source)
    pairs = [min(2 if n_eig > 1 else 1, block.shape[0]) for block in blocks]
    results: list[Optional[SpectralResult]] = [None] * len(blocks)
    starts: list[Optional[np.ndarray]] = [None] * len(blocks)
    matvecs = [0] * len(blocks)
    while True:
        for i, block in enumerate(blocks):
            if results[i] is None:
                results[i] = _solve_block(block, pairs[i], seed, starts[i])
                matvecs[i] += results[i].matvecs
        values = np.sort(np.concatenate([np.tile(r.eigenvalues, c)
                                         for r, c in zip(results, copies)]))
        bar = values[n_eig - 1] if len(values) >= n_eig else np.inf
        grow = [i for i, r in enumerate(results)
                if pairs[i] < blocks[i].shape[0] and r.eigenvalues[-1] < bar]
        if not grow:
            break
        for i in grow:
            pairs[i] = min(blocks[i].shape[0], n_eig, 2 * pairs[i])
            starts[i], results[i] = results[i].eigenvectors, None
    solved = [results[j] for j in split.source]
    vals = np.concatenate([r.eigenvalues for r in solved])
    order = np.argsort(vals, kind="stable")[:n_eig]
    resid = np.concatenate([r.residual_norms for r in solved])
    # map back the kept columns only, sector by sector
    sector_of = np.repeat(np.arange(len(solved)), [len(r.eigenvalues) for r in solved])
    column_of = np.concatenate([np.arange(len(r.eigenvalues)) for r in solved])
    vecs = np.empty((ops.basis.dimension, len(order)), dtype=np.complex128)
    for i in np.unique(sector_of[order]):
        kept = np.flatnonzero(sector_of[order] == i)
        vecs[:, kept] = split.to_linear[i] @ solved[i].eigenvectors[:, column_of[order[kept]]]
    own = split.labels[split.first_upper:]          # the label of each block's own sector
    solves = tuple(SectorSolve(z, blocks[j].shape[0], len(r.eigenvalues), r.method,
                               r.ground_energy, None if own[j] == z else own[j],
                               matvecs[j] if own[j] == z else 0)
                   for z, j, r in zip(split.labels, split.source, solved))
    return SpectralResult(vals[order], vecs, resid[order], "sectors", sum(matvecs), solves)


def ground_energy(ops: ModelOperators, p, e: float, seed: int = DEFAULT_SEED) -> float:
    """The lowest eigenvalue of H(p, e) built from ``ops``, bitwise
    ``solve_model(ops, p, e, 1, seed).ground_energy``, with no eigenvector.

    On the axis each block of ``SectorSplit.upper_blocks`` is formed from
    one ``upper.pattern_data`` and solved as ``solve_model`` solves it
    (``_solve_block``), but only while it can still hold the lowest value:
    the blocks are visited in
    stable ascending order of their Gershgorin lower bound
    (``SectorSplit.lower_bounds``), and the visit stops at the first whose
    bound, less the rounding slack, lies above the lowest value so far;
    Gershgorin's disc theorem puts every eigenvalue of that block and of the
    ones after it above the bound.  Any other model or momentum goes to
    ``solve_model``.
    """
    t = ops.axis_coordinate(p)
    if t is None:
        return solve_model(ops, p, e, 1, seed).ground_energy
    _check_n_eig(1, ops.basis.dimension)
    split = ops.sectors
    data = split.upper.pattern_data(t, e)
    bounds, slack = split.lower_bounds(data)
    best = np.inf
    for j in np.argsort(bounds, kind="stable"):
        if bounds[j] - slack > best:
            break
        best = min(best, _solve_block(split.block(data, j), 1, seed).ground_energy)
    return best


def detect_ground_cluster(result: SpectralResult) -> GroundCluster:
    """Greedy bottom-up clustering of eigenvalues into a ground multiplet.

    The cluster collects eigenvalues within ``EPS_DEG * max(1, |E|)`` of the
    lowest one; the next eigenvalue must sit at least
    ``EPS_SEP * max(1, |E|)`` above the cluster, otherwise the degeneracy is
    reported as indeterminate rather than guessed.
    """
    evs = np.asarray(result.eigenvalues, dtype=float)
    if len(evs) < 2:
        raise IndeterminateDegeneracy(
            "need at least two eigenvalues to certify a cluster")
    scale = max(1.0, abs(evs[0]))
    count = int(np.searchsorted(evs - evs[0], EPS_DEG * scale, side="right"))
    if count >= len(evs):
        raise IndeterminateDegeneracy(
            f"cluster of width <= {EPS_DEG * scale:.3e} includes every computed "
            "eigenvalue; request more eigenpairs")
    gap_above = float(evs[count] - evs[count - 1])
    if gap_above <= EPS_SEP * scale:
        raise IndeterminateDegeneracy(
            f"next eigenvalue is only {gap_above:.3e} above the cluster "
            f"(separation tolerance {EPS_SEP * scale:.3e})")
    return GroundCluster(
        count=count,
        eigenvalues=evs[:count].copy(),
        basis=result.eigenvectors[:, :count].copy(),
        cluster_width=float(evs[count - 1] - evs[0]),
        gap_above=gap_above,
    )


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
    message = ""
    if require_half_pair and len(winners) != 2:
        message = f"expected exactly two minimal sectors, found {len(winners)}: {winners}"
    elif require_half_pair and set(winners) != {0.5, -0.5}:
        message = f"minimal sectors are {winners}, expected (-0.5, +0.5)"
    return SectorAnalysis(sector_energies=energies, sector_dimensions=dims,
                          winners=winners, ok=not message, message=message)


# -- sweeps ------------------------------------------------------------------


@dataclass
class SweepRow:
    p: tuple[float, float, float]
    energy: float
    count: Optional[int]
    cluster_width: Optional[float]
    gap_above: Optional[float]
    note: str = ""


def model_operators(config: ModelConfig) -> ModelOperators:
    """The operator set of ``config``'s model, which serves every p and e;
    a command builds it once and passes it to each solve.  Refuses a basis
    of dimension 1 or 2 with ``ConfigError``."""
    ops = build_operators(config)
    if ops.basis.dimension < 3:         # a cluster needs two eigenvalues below the top
        raise ConfigError(f"the basis dimension {ops.basis.dimension} is too small to "
                          "certify a ground cluster; enlarge the cutoffs")
    return ops


def _solve_at(solve, ops: ModelOperators, p: tuple[float, float, float], e: float, *args):
    # a sweep's solve (solve_model or ground_energy), its failure annotated with the point
    try:
        return solve(ops, p, e, *args)
    except SolverError as err:
        raise SolverError(f"solve failed at p={p}: {err}", residuals=err.residuals) from err


def energy_sweep(ops: ModelOperators, p_values: Sequence[Sequence[float]], e: float,
                 n_eig: int = 6, seed: int = DEFAULT_SEED) -> list[SweepRow]:
    """E(p) and ground degeneracy of H(p, e) across a list of momenta, each
    point solved by ``solve_model`` from the model's operator set ``ops``.
    Solver failures propagate annotated with their p; indeterminate
    clustering is recorded per row instead.
    """
    rows = []
    for p in p_values:
        pt = tuple(float(x) for x in p)
        result = _solve_at(solve_model, ops, pt, e, min(n_eig, ops.basis.dimension - 1), seed)
        try:
            cluster = detect_ground_cluster(result)
            rows.append(SweepRow(pt, result.ground_energy, cluster.count,
                                 cluster.cluster_width, cluster.gap_above))
        except IndeterminateDegeneracy as err:
            rows.append(SweepRow(pt, result.ground_energy, None, None, None,
                                 note=f"indeterminate degeneracy: {err}"))
    return rows


# -- energy interpolants and the gap formula ----------------------------------


@dataclass(frozen=True)
class RadialEnergyCurve:
    """Linear interpolant of E(|q|) on a radial grid (rotation-invariant E).

    ``spacing`` is the grid step, reported downstream as the uncertainty
    proxy for anything built on interpolated energies.
    """

    q: np.ndarray
    values: np.ndarray
    spacing: float

    @property
    def q_max(self) -> float:
        return float(self.q[-1])

    def __call__(self, qv):
        qv = np.asarray(qv, dtype=float)
        if np.any(qv < -1e-12) or np.any(qv > self.q_max + 1e-12):
            raise DomainError(
                f"energy interpolant queried at |q| outside [0, {self.q_max}]"
            )
        out = np.interp(np.clip(qv, 0.0, self.q_max), self.q, self.values)
        return out if out.ndim else float(out)


def _search_axis(config: ModelConfig) -> np.ndarray:
    """The line of the energy curve and the gap search: the mode axis, or z
    for a scattered mode set."""
    ms = config.mode_set
    return np.asarray(ms.axis if ms.axial else (0.0, 0.0, 1.0))


def sweep_energy_curve(ops: ModelOperators, config: ModelConfig, q_max: Optional[float] = None,
                       seed: int = DEFAULT_SEED) -> RadialEnergyCurve:
    """Tabulate the ground energy E(q) of H(q, config.e) at
    ``config.quadrature.sweep_points`` points q from 0 to ``q_max`` along
    the search axis, one ``ground_energy`` per point from the model's
    operator set ``ops``, and wrap it as a radial curve.  ``q_max`` defaults
    to |p| + r_max, which covers every |p - k| the bounds' quadrature
    reaches.

    Each grid point is an eigensolve of the configured model, so the curve
    reflects the truncation being studied; at e = 0 too, where the vacuum
    (E = q^2/2) stops being the ground state once a photon's momentum
    lowers the kinetic energy by more than its omega.
    """
    if q_max is None:
        q_max = config.p_norm + config.quadrature.r_max
    q = np.linspace(0.0, q_max, config.quadrature.sweep_points)
    axis = _search_axis(config)
    values = [_solve_at(ground_energy, ops, tuple(float(x) for x in qi * axis), config.e, seed)
              for qi in q]
    return RadialEnergyCurve(q=q, values=np.array(values), spacing=float(q[1] - q[0]))


@dataclass
class GapReport:
    """Continuum onset E_c(p), its distance delta_p = E_c(p) - E(p) from the
    ground energy, and the photon momentum where the onset is reached."""

    E_c_p: float
    delta_p: float
    argmin_k: tuple[float, float, float]


def gap_estimate(config: ModelConfig, energy_curve, k_max: float, k_steps: int) -> GapReport:
    """Minimize E(p-k) + omega(k) over k = k_0 + t u on ``k_steps`` points
    evenly spaced from k_0 = -k_max u to k_max u along the search axis u (the
    mode axis, or z for a scattered set), then once more on 41 points
    between the grid neighbours of the best one.

    Rejects search grids whose shifted momenta leave the interpolation
    domain of ``energy_curve``.
    """
    u = _search_axis(config)
    ts = np.linspace(-k_max, k_max, k_steps)
    k_grid = ts[:, None] * u[None, :]
    p = np.asarray(config.p, dtype=float)
    shifted = np.linalg.norm(p[None, :] - k_grid, axis=1)
    if np.any(shifted > energy_curve.q_max + 1e-12):
        raise DomainError(
            "search grid leaves the energy interpolation domain: "
            f"max |p-k| = {shifted.max():.4g} > q_max = {energy_curve.q_max:.4g}"
        )

    def objective(kv: np.ndarray) -> np.ndarray:
        return (np.asarray(energy_curve(np.linalg.norm(p[None, :] - kv, axis=1)))
                + np.asarray(config.dispersion.omega(np.linalg.norm(kv, axis=1))))

    vals = objective(k_grid)
    i_best = int(np.argmin(vals))
    best_k = k_grid[i_best]
    best_val = float(vals[i_best])
    lo = ts[max(0, i_best - 1)] - ts[0]
    hi = ts[min(k_steps - 1, i_best + 1)] - ts[0]
    fine_t = np.linspace(lo, hi, 41)
    fine_k = k_grid[0][None, :] + fine_t[:, None] * u[None, :]
    fine_vals = objective(fine_k)
    j = int(np.argmin(fine_vals))
    if fine_vals[j] < best_val:
        best_val = float(fine_vals[j])
        best_k = fine_k[j]
    return GapReport(
        E_c_p=best_val,
        delta_p=best_val - float(energy_curve(np.linalg.norm(p))),
        argmin_k=tuple(best_k),
    )
