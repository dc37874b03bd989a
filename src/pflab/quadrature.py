"""Gauss-Legendre grids for the rotation-invariant momentum-space integrals.

These grids are deliberately independent of the Hamiltonian's mode set so
that bound diagnostics decouple from truncation error: radial nodes on
[0, r_max] with the analytic angular factor 4*pi for isotropic integrands,
plus an optional polar-angle grid for integrands depending on the angle
between k and a fixed vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss


@cache
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], read-only, once per order."""
    x, w = leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def gauss_legendre(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [a, b], new arrays on every call."""
    x, w = _leggauss(n)
    return 0.5 * (x + 1.0) * (b - a) + a, 0.5 * (b - a) * w


@dataclass(frozen=True)
class QuadratureSpec:
    """Resolution knobs for the scalar-integral grids and the energy sweep.

    ``sweep_points`` controls the radial grid on which E(q) is tabulated for
    interpolation; its spacing is reported as the uncertainty proxy of any
    quantity built on the interpolant.
    """

    r_max: float = 6.0
    n_radial: int = 64
    n_angular: int = 32
    sweep_points: int = 25

    def __post_init__(self):
        if not self.r_max > 0:
            raise ValueError(f"r_max must be > 0, got {self.r_max}")
        for name, least in (("n_radial", 2), ("n_angular", 2), ("sweep_points", 3)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)}")


@dataclass(frozen=True)
class PolarGrid:
    """Product grid in (r, u=cos angle) with azimuthal symmetry factored out."""

    r: np.ndarray
    wr: np.ndarray
    u: np.ndarray
    wu: np.ndarray

    @classmethod
    def build(cls, r_max: float, n_radial: int, n_angular: int) -> "PolarGrid":
        r, wr = gauss_legendre(0.0, r_max, n_radial)
        u, wu = gauss_legendre(-1.0, 1.0, n_angular)
        return cls(r=r, wr=wr, u=u, wu=wu)

    def integrate(self, f: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> float:
        """2*pi * int r^2 dr int du f(r, u) with (r, u) broadcast as a meshgrid."""
        R = self.r[:, None]
        U = self.u[None, :]
        vals = np.asarray(f(R, U), dtype=float)
        inner = vals @ self.wu
        return float(2.0 * np.pi * np.sum(self.wr * self.r * self.r * inner))
