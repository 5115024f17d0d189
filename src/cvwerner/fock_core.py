"""Truncated two-mode Fock-space tensor algebra.

Basis ordering is row-major with mode A as the slow index: the composite
state |m>_A |n>_B sits at flat index m * n_max + n. With this fixed
convention the partial transpose is a pure index permutation.

Truncated states are never renormalized; the probability mass lost to the
cutoff is carried as ``trace_deficit`` metadata so that eigenvalues of the
stored matrix can be compared directly against infinite-dimensional
closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tolerances as tol
from .errors import DimensionMismatchError, HermiticityError, NumericalConsistencyError
from .numerics import _nonzero_pattern


@dataclass(frozen=True)
class FockCutoff:
    """Per-mode truncation: each mode keeps Fock levels 0 .. n_max - 1."""

    n_max: int
    tail_bound: float = tol.DEFAULT_TAIL_BOUND

    def __post_init__(self):
        if self.n_max < 2:
            raise ValueError(f"n_max must be >= 2, got {self.n_max}")
        if not 0.0 < self.tail_bound < 1.0:
            raise ValueError(f"tail_bound must lie in (0, 1), got {self.tail_bound}")

    @property
    def dim(self) -> int:
        """Dimension of the truncated two-mode space."""
        return self.n_max * self.n_max


@dataclass(frozen=True)
class TwoModeDensityMatrix:
    """Dense Hermitian matrix on the truncated two-mode Fock space."""

    cutoff: FockCutoff
    data: np.ndarray
    trace_deficit: float

    def __post_init__(self):
        d = self.cutoff.dim
        if self.data.shape != (d, d):
            raise DimensionMismatchError(
                f"expected {(d, d)} matrix for n_max={self.cutoff.n_max}, got {self.data.shape}"
            )
        *_, herm = _nonzero_pattern(self.data)
        if herm >= tol.HERMITICITY_TOL:
            raise HermiticityError(f"matrix is not Hermitian: max deviation {herm:.3e}")
        diag = np.diagonal(self.data)
        if np.abs(diag.imag).max() >= tol.HERMITICITY_TOL:
            raise HermiticityError("diagonal entries must be real")
        if diag.real.min() < -tol.POSITIVITY_TOL:
            raise NumericalConsistencyError(
                f"negative diagonal entry {diag.real.min():.3e}"
            )
        tr = np.trace(self.data).real
        if abs(tr - (1.0 - self.trace_deficit)) > tol.TRACE_CONSISTENCY_TOL:
            raise NumericalConsistencyError(
                f"trace {tr} inconsistent with trace_deficit {self.trace_deficit}"
            )
        self.data.setflags(write=False)

    @property
    def n_max(self) -> int:
        return self.cutoff.n_max

    def as_tensor(self) -> np.ndarray:
        """View of the data as a 4-index tensor [m, n, m', n']."""
        n = self.n_max
        return self.data.reshape(n, n, n, n)


def partial_transpose_A(rho: TwoModeDensityMatrix) -> np.ndarray:
    """Transpose the mode-A indices: result[(m,n),(m',n')] = rho[(m',n),(m,n')]."""
    n = rho.n_max
    return rho.as_tensor().transpose(2, 1, 0, 3).reshape(n * n, n * n)
