"""Self-contained numerical kernels.

Two pieces: a cyclic Jacobi eigensolver for complex Hermitian matrices
(2x2 unitary rotations annihilating off-diagonal pairs) and trapezoidal
integration on uniform 1-D grids, which rejects a grid whose integrand
has not decayed at its ends. Multi-dimensional integrals in this library
are separable and are built from products of these 1-D integrals. Both
pieces avoid any external linear-algebra backend so every eigenvalue and
integral produced by this library is reproducible from first principles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tolerances as tol
from .errors import ConvergenceError, DomainTooSmallError, HermiticityError


@dataclass(frozen=True)
class EigenResult:
    """Ascending eigenvalues plus a residual bound on their accuracy.

    ``max_residual`` is the final off-diagonal Frobenius norm of the
    rotated matrix, which bounds ||A v - lambda v|| over the computed
    eigenpairs.
    """

    eigenvalues: np.ndarray
    max_residual: float


def _offdiag_norm(a: np.ndarray) -> float:
    off = a - np.diag(np.diagonal(a))
    return float(np.sqrt((np.abs(off) ** 2).sum()))


def hermitian_eigenvalues(a: np.ndarray, max_sweeps: int = tol.JACOBI_MAX_SWEEPS) -> EigenResult:
    """Eigenvalues of a complex Hermitian matrix by cyclic Jacobi rotations.

    Iterates full sweeps over the upper triangle, annihilating each
    off-diagonal entry with a complex plane rotation, until the
    off-diagonal Frobenius norm falls below JACOBI_OFFDIAG_TOL * ||A||_F.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise HermiticityError(f"expected a square matrix, got shape {a.shape}")
    herm_dev = np.abs(a - a.conj().T).max() if a.size else 0.0
    scale = max(1.0, float(np.abs(a).max())) if a.size else 1.0
    if herm_dev > tol.HERMITICITY_TOL * scale:
        raise HermiticityError(f"matrix is not Hermitian: max deviation {herm_dev:.3e}")

    n = a.shape[0]
    b = a.astype(np.complex128, copy=True)
    norm = float(np.sqrt((np.abs(b) ** 2).sum()))
    if n == 1 or norm == 0.0:
        return EigenResult(eigenvalues=np.sort(np.diagonal(b).real), max_residual=0.0)

    stop = tol.JACOBI_OFFDIAG_TOL * norm
    skip = 1e-300
    for _ in range(max_sweeps):
        off = _offdiag_norm(b)
        if off < stop:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = b[p, q]
                mag = abs(apq)
                if mag <= skip:
                    continue
                phase = apq / mag
                # Annihilation condition for the (p, q) entry of G^dag B G:
                # cs (B_pp - B_qq) + (c^2 - s^2) |B_pq| = 0, i.e.
                # tan(2 theta) = 2 |B_pq| / (B_qq - B_pp).
                theta = 0.5 * math.atan2(2.0 * mag, (b[q, q] - b[p, p]).real)
                c = math.cos(theta)
                s = math.sin(theta)
                # Columns: A <- A G with G the (p,q)-plane rotation.
                colp = b[:, p].copy()
                colq = b[:, q]
                b[:, p] = c * colp - (s * np.conj(phase)) * colq
                b[:, q] = s * colp + (c * np.conj(phase)) * colq
                # Rows: A <- G^dagger A.
                rowp = b[p, :].copy()
                rowq = b[q, :]
                b[p, :] = c * rowp - (s * phase) * rowq
                b[q, :] = s * rowp + (c * phase) * rowq
                b[p, q] = 0.0
                b[q, p] = 0.0
    else:
        final = _offdiag_norm(b)
        if final >= stop:
            raise ConvergenceError(
                f"Jacobi did not converge in {max_sweeps} sweeps "
                f"(off-diagonal norm {final:.3e})",
                residual=final,
            )

    residual = _offdiag_norm(b)
    return EigenResult(eigenvalues=np.sort(np.diagonal(b).real), max_residual=residual)


@dataclass(frozen=True)
class PhaseSpaceGrid:
    """Uniform 1-D grid over [-half_width, +half_width], origin included."""

    half_width: float
    points_per_axis: int
    values: np.ndarray

    def __post_init__(self):
        if self.half_width <= 0:
            raise ValueError("half_width must be positive")
        if self.points_per_axis % 2 == 0 or self.points_per_axis < 3:
            raise ValueError("points_per_axis must be odd and >= 3")
        if self.values.shape != (self.points_per_axis,):
            raise ValueError(
                f"values shape {self.values.shape} is not the 1-D grid of "
                f"points_per_axis={self.points_per_axis}"
            )

    @property
    def axis(self) -> np.ndarray:
        return np.linspace(-self.half_width, self.half_width, self.points_per_axis)

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / (self.points_per_axis - 1)


def integrate_grid(grid: PhaseSpaceGrid) -> float:
    """Trapezoidal integral of the sampled function over the grid.

    Raises DomainTooSmallError when the integrand carries non-negligible
    magnitude at either end of the grid, which signals that half_width
    must be enlarged before the result can be trusted.
    """
    values = grid.values
    peak = float(np.abs(values).max())
    if peak == 0.0:
        return 0.0
    edge = max(abs(float(values[0])), abs(float(values[-1])))
    if edge > tol.BOUNDARY_MASS_RATIO * peak:
        raise DomainTooSmallError(
            f"integrand magnitude at the boundary is {edge / peak:.3e} of its peak; "
            f"enlarge half_width beyond {grid.half_width}"
        )
    return float(np.trapezoid(values, dx=grid.spacing))
