"""Truncated photon Fock space with an optional electron-spin factor.

A photon mode is a (k-point, polarization) pair carrying a quadrature
weight V_m.  Discrete ladder operators are normalized so that
[a_m, a_m+] = 1; field amplitudes recover the continuum normalization
through factors sqrt(V_m), so integrals over k become weighted sums over
modes, while counting operators (photon number, field energy, field
momentum) carry no weights.

The boson factor is one int64 array of occupation rows, built in numpy and
graded by total photon number, lexicographic within a grade.  A row's index
comes from one exact counting table (``FockBasis.boson_index``), which the
ladders and the circular-frame mirror share; the ladders have one form, the
entries of every a_m (``FockBasis.lowering``), and every field is written
onto those entries and their mirror images (``FockBasis.field_pattern``).
The basis is spin-major: the full index is ``spin * boson_dimension +
boson_index`` with spin 0 = up, 1 = down.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import BasisMismatchError, DimensionCapError, NotAxialError

DIMENSION_CAP = 500_000

PAULI = (
    np.eye(2, dtype=complex),
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)


@dataclass(frozen=True)
class Mode:
    """One photon mode: wavevector, quadrature cell volume, polarization index (1 or 2)."""

    k: tuple[float, float, float]
    weight: float
    polarization_index: int

    def __post_init__(self):
        if not all(np.isfinite(self.k)):
            raise ValueError(f"mode wavevector must be finite, got {self.k}")
        if not (self.weight > 0.0):
            raise ValueError(f"mode weight must be positive, got {self.weight}")
        if self.polarization_index not in (1, 2):
            raise ValueError(f"polarization index must be 1 or 2, got {self.polarization_index}")


@dataclass(frozen=True)
class ModeSet:
    """Ordered collection of modes; both polarizations present at every k-point.

    ``axial`` means every k-point is parallel or antiparallel to ``axis``,
    which preserves the exact rotation symmetry about that axis at finite
    truncation.
    """

    modes: tuple[Mode, ...]
    axial: bool = False
    axis: Optional[tuple[float, float, float]] = None

    def __post_init__(self):
        if not self.modes:
            raise ValueError("mode set must be nonempty")
        seen = set()
        for m in self.modes:
            key = (m.k, m.polarization_index)
            if key in seen:
                raise ValueError(f"duplicate mode {key}")
            seen.add(key)
        by_point: dict[tuple, set[int]] = {}
        for m in self.modes:
            by_point.setdefault(m.k, set()).add(m.polarization_index)
        for k, pols in by_point.items():
            if pols != {1, 2}:
                raise ValueError(f"k-point {k} must carry both polarizations, has {sorted(pols)}")
        if self.axial:
            if self.axis is None:
                raise ValueError("axial mode set requires an axis")
            ax = np.asarray(self.axis, dtype=float)
            if not np.isclose(np.linalg.norm(ax), 1.0, atol=1e-12):
                raise ValueError("axis must be a unit vector")
            for m in self.modes:
                kv = np.asarray(m.k, dtype=float)
                if np.linalg.norm(kv - (kv @ ax) * ax) > 1e-12 * max(1.0, np.linalg.norm(kv)):
                    raise NotAxialError(f"mode k={m.k} is off the declared axis {self.axis}")

    def __len__(self) -> int:
        return len(self.modes)

    @property
    def k_points(self) -> tuple[tuple[float, float, float], ...]:
        """Distinct k-points in first-appearance order."""
        out, seen = [], set()
        for m in self.modes:
            if m.k not in seen:
                seen.add(m.k)
                out.append(m.k)
        return tuple(out)

    @cached_property
    def polarization_pairs(self) -> np.ndarray:
        """Read-only (n_k_points, 2) array: the indices of the polarization-1
        and polarization-2 modes of each k-point, in ``k_points`` order."""
        points = {k: i for i, k in enumerate(self.k_points)}
        out = np.empty((len(points), 2), dtype=int)
        for i, m in enumerate(self.modes):
            out[points[m.k], m.polarization_index - 1] = i
        out.setflags(write=False)
        return out

    @property
    def k_point_index(self) -> np.ndarray:
        """Index of each mode's k-point into ``k_points``."""
        out = np.empty(len(self.modes), dtype=int)
        out[self.polarization_pairs] = np.arange(len(self.polarization_pairs))[:, None]
        return out

    def k_array(self) -> np.ndarray:
        """(n_modes, 3) array of wavevectors."""
        return np.array([m.k for m in self.modes], dtype=float)

    def weights(self) -> np.ndarray:
        return np.array([m.weight for m in self.modes], dtype=float)


def axial_mode_set(
    shell_edges: Sequence[float],
    axis: Sequence[float] = (0.0, 0.0, 1.0),
) -> ModeSet:
    """Axial mode set from radial shell edges.

    Shell i spans [edges[i], edges[i+1]]; its two k-points sit at the shell
    midpoint radius on the +/- axis and split the full spherical-shell
    volume (4pi/3)(b^3 - a^3) equally.  The weights therefore make
    ``sum_m V_m f(|k_m|)`` a midpoint-rule quadrature of a rotation
    invariant integral over the ball of radius ``edges[-1]``.
    """
    edges = np.asarray(shell_edges, dtype=float)
    if edges.ndim != 1 or len(edges) < 2 or np.any(np.diff(edges) <= 0) or edges[0] < 0:
        raise ValueError("shell_edges must be an increasing sequence starting at >= 0")
    ax = np.asarray(axis, dtype=float)
    ax = ax / np.linalg.norm(ax)
    modes = []
    for a, b in zip(edges[:-1], edges[1:]):
        mid = 0.5 * (a + b)
        if mid == 0.0:
            raise ValueError("shell midpoint at k=0 is not allowed (polarization undefined)")
        vol = (4.0 * np.pi / 3.0) * (b**3 - a**3)
        for sign in (+1.0, -1.0):
            k = tuple((sign * mid * ax).tolist())
            for j in (1, 2):
                modes.append(Mode(k=k, weight=vol / 2.0, polarization_index=j))
    return ModeSet(modes=tuple(modes), axial=True, axis=tuple(ax.tolist()))


def explicit_mode_set(points: Sequence[tuple[Sequence[float], float]]) -> ModeSet:
    """General mode set from (k, weight) pairs; both polarizations added per point."""
    modes = []
    for k, w in points:
        kt = tuple(float(x) for x in k)
        for j in (1, 2):
            modes.append(Mode(k=kt, weight=float(w), polarization_index=j))
    return ModeSet(modes=tuple(modes), axial=False, axis=None)


def _grade_counts(n_modes: int, N_max: int, n_max: int) -> list[list[int]]:
    """ways[r][s]: the number of r-mode vectors with entries <= n_max that sum
    to exactly s, for r = 0..n_modes and s = 0..N_max, in exact Python ints."""
    ways = [[1] + [0] * N_max]
    for _ in range(n_modes):
        # the sum of ways[r - 1][s - n] over n <= n_max, from the prefix sums P
        P = [0, *itertools.accumulate(ways[-1])]
        ways.append([P[s + 1] - P[max(0, s - n_max)] for s in range(N_max + 1)])
    return ways


def _occupation_rows(n_modes: int, N_max: int, n_max: int) -> np.ndarray:
    """Every vector with entries <= n_max and sum <= N_max as an int64 row,
    graded by total, then ascending lexicographic."""
    rows = np.zeros((1, 0), dtype=np.int64)
    totals = np.zeros(1, dtype=np.int64)
    for _ in range(n_modes):
        # each prefix once per admissible next entry, ascending: rows stay lexicographic
        counts = np.minimum(n_max, N_max - totals) + 1
        entry = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
        rows = np.column_stack([np.repeat(rows, counts, axis=0), entry])
        totals = np.repeat(totals, counts) + entry
    return rows[np.argsort(totals, kind="stable")]


class FieldPattern(NamedTuple):
    """The entries (``mode``, ``row``, ``col``, ``root_n``) of
    ``FockBasis.lowering``, and where a field sum_m (c_m a_m + h.c.) has its
    entries: entry k of the field, at (``rows[k]``, ``cols[k]``) in CSR order
    with row pointer ``indptr``, is entry ``order[k]`` of the lowering
    entries followed by their mirror images."""

    mode: np.ndarray
    row: np.ndarray
    col: np.ndarray
    root_n: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    indptr: np.ndarray
    order: np.ndarray


class FockBasis:
    """Enumerated truncated Fock basis: (spin factor) x (boson occupation vectors).

    The boson factor is one read-only (boson_dimension, n_modes) int64 array
    of occupation rows, graded by total photon number, then ascending
    lexicographic; with spin, the spin index varies slowest.  The index of a
    row is computed, not looked up, by the combinatorial number system over
    the grade counts ``ways[r][s]`` (r-mode vectors of sum s): the rows of
    lower total, plus, for each mode j, the rows of the same total that agree
    with it before j and hold less at j.  ``boson_index`` is that one map;
    ``lowering`` and the circular-frame mirror go through it.
    """

    def __init__(self, mode_set: ModeSet, N_max: int, n_max: int, with_spin: bool,
                 occupations: np.ndarray, ways: list[list[int]]):
        self.mode_set = mode_set
        self.N_max = N_max
        self.n_max = n_max
        self.with_spin = with_spin
        self.boson_dimension = len(occupations)
        self.dimension = (2 if with_spin else 1) * self.boson_dimension
        self._occupations = occupations
        self._occupations.setflags(write=False)
        counts = np.array(ways, dtype=np.int64)     # every count is at most the dimension
        self._grade_start = np.cumsum(counts[-1]) - counts[-1]
        # below[r, s, v] = sum over u < v of ways[r][s - u]: the same-total rows
        # that hold u < v at a mode with r modes after it and s photons left
        top = counts.shape[1] - 1
        self._below = np.zeros((len(mode_set), top + 1, min(n_max, N_max) + 1), dtype=np.int64)
        for v in range(1, self._below.shape[2]):
            self._below[..., v] = self._below[..., v - 1]
            self._below[:, v - 1:, v] += counts[:-1, :top + 2 - v]

    # -- indexing ---------------------------------------------------------

    def boson_index(self, occ: np.ndarray) -> np.ndarray:
        """Boson-factor index of each admissible occupation row of ``occ``."""
        remaining = occ.sum(axis=1, keepdims=True) - np.cumsum(occ, axis=1) + occ
        modes_after = np.arange(occ.shape[1] - 1, -1, -1)
        return (self._grade_start[remaining[:, 0]]
                + self._below[modes_after, remaining, occ].sum(axis=1))

    def occupation_array(self) -> np.ndarray:
        """(boson_dimension, n_modes) integer array of occupation vectors (shared, read-only)."""
        return self._occupations

    def vacuum_indices(self) -> tuple[int, ...]:
        """Full-basis indices of the (spin x) zero-photon states."""
        if self.with_spin:
            return (0, self.boson_dimension)
        return (0,)

    def lowering(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Every entry of every a_m on the boson factor as arrays (mode, row,
        col, sqrt(n)): a_m takes state col, with n photons in mode m, to
        sqrt(n) times state row < col; mode by mode, ascending in col and row."""
        parts = []
        for m in range(len(self.mode_set)):
            col = np.flatnonzero(self._occupations[:, m])
            lowered = self._occupations[col]
            n = lowered[:, m].copy()
            lowered[:, m] -= 1
            parts.append((np.full(col.size, m), self.boson_index(lowered), col, np.sqrt(n)))
        return tuple(np.concatenate(arrays) for arrays in zip(*parts))

    @cached_property
    def field_pattern(self) -> FieldPattern:
        """The entries of ``lowering()``, and those and their mirror images
        in CSR order, built at first use and shared by every field and every
        ladder product on this basis."""
        mode, row, col, root_n = self.lowering()
        rows, cols = np.concatenate([row, col]), np.concatenate([col, row])
        order = np.argsort(rows * self.boson_dimension + cols)
        counts = np.bincount(rows, minlength=self.boson_dimension)
        indptr = np.concatenate([[0], np.cumsum(counts)])
        pattern = FieldPattern(mode, row, col, root_n, rows[order], cols[order], indptr, order)
        for array in pattern:
            array.setflags(write=False)
        return pattern


def enumerate_basis(mode_set: ModeSet, N_max: int, n_max: int, with_spin: bool,
                    dimension_cap: int = DIMENSION_CAP) -> FockBasis:
    """Enumerate the truncated basis; refuses when the dimension exceeds the cap.

    The dimension is counted exactly before any row is built.  Pass a larger
    ``dimension_cap`` to override the guard deliberately.
    """
    if N_max < 0:
        raise ValueError("N_max must be >= 0")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    n_modes = len(mode_set)
    # no entry exceeds N_max and no total exceeds n_modes * n_max
    ways = _grade_counts(n_modes, min(N_max, n_modes * n_max), min(n_max, N_max))
    dim = (2 if with_spin else 1) * sum(ways[-1])
    if dim > dimension_cap:
        raise DimensionCapError(
            f"basis dimension {dim} exceeds the cap {dimension_cap} "
            f"({n_modes} modes, N_max={N_max}, n_max={n_max}); "
            "reduce the cutoffs or pass a larger dimension_cap to override"
        )
    basis = FockBasis(mode_set, N_max, n_max, with_spin,
                      _occupation_rows(n_modes, N_max, n_max), ways)
    assert basis.dimension == dim
    return basis


# -- operator assembly -----------------------------------------------------


def spin_tensor(fock_op: sp.spmatrix, basis: FockBasis) -> sp.csr_matrix:
    """1 (x) T of the boson-factor operator T in the spin-major ordering, in
    the dtype of T; T itself on a spinless basis."""
    if fock_op.shape != (basis.boson_dimension, basis.boson_dimension):
        raise BasisMismatchError(
            f"operator shape {fock_op.shape} does not match the boson factor "
            f"dimension {basis.boson_dimension}"
        )
    if not basis.with_spin:
        return fock_op.tocsr()
    out = sp.kron(sp.identity(2, fock_op.dtype), fock_op, format="csr")
    return out.astype(fock_op.dtype, copy=False)      # float64 when fock_op has no entries


# -- Hermiticity helpers -----------------------------------------------------


def hermiticity_defect(op: sp.spmatrix) -> float:
    """max |A - A+| over entries; 0.0 for an exactly Hermitian matrix.

    Read off the CSR arrays of A, duplicates summed, and of its transpose:
    each entry of A^T is set against the entry of A at the same place, or
    against 0 where A has none, and that covers every entry of A - A+."""
    A = op.tocsr()
    n = A.shape[0]
    if A.shape[1] != n:
        raise ValueError(f"inconsistent shapes: {A.shape} and its adjoint")
    if not A.has_canonical_format:
        A = A.copy()
        A.sum_duplicates()
    T = A.tocsc()                       # its arrays are those of A^T as canonical CSR
    if np.array_equal(T.indptr, A.indptr) and np.array_equal(T.indices, A.indices):
        facing = A.data                 # a symmetric pattern: entry k faces entry k
    else:
        def keys(M):
            return np.repeat(np.arange(n, dtype=np.int64), np.diff(M.indptr)) * n + M.indices

        a_keys, t_keys = keys(A), keys(T)
        at = np.minimum(np.searchsorted(a_keys, t_keys), max(A.nnz - 1, 0))
        facing = np.where(a_keys[at] == t_keys, A.data[at], 0)
    mirrored = T.data.conj() if np.iscomplexobj(T.data) else T.data
    return float(np.abs(facing - mirrored).max(initial=0.0))
