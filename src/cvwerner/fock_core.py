"""Truncated two-mode Fock-space tensor algebra.

Basis ordering is row-major with mode A as the slow index: the composite
state |m>_A |n>_B sits at flat index m * n_max + n. With this fixed
convention the partial transpose is a pure index permutation, applied to
the (rows, cols, values) nonzero pattern that each state keeps from its
construction checks, so it never forms a second dense matrix.

Truncated states are never renormalized; the probability mass lost to the
cutoff is carried as ``trace_deficit`` metadata so that eigenvalues of the
stored matrix can be compared directly against infinite-dimensional
closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tolerances as tol
from .errors import DimensionMismatchError, NumericalConsistencyError, ParameterRangeError
from .numerics import _nonzero_pattern


@dataclass(frozen=True)
class FockCutoff:
    """Per-mode truncation: each mode keeps Fock levels 0 .. n_max - 1."""

    n_max: int
    tail_bound: float = tol.DEFAULT_TAIL_BOUND

    def __post_init__(self):
        if self.n_max < 2:
            raise ParameterRangeError(f"n_max must be >= 2, got {self.n_max}")
        if not 0.0 < self.tail_bound < 1.0:
            raise ParameterRangeError(f"tail_bound must lie in (0, 1), got {self.tail_bound}")

    @property
    def dim(self) -> int:
        """Dimension of the truncated two-mode space."""
        return self.n_max * self.n_max


@dataclass(frozen=True)
class TwoModeDensityMatrix:
    """Hermitian matrix on the truncated two-mode Fock space.

    ``data`` is the dense matrix. ``pattern`` is its nonzero pattern
    ``(rows, cols, values)``, row-sorted, taken by the one scan that also
    checks the matrix finite and Hermitian. Both are read-only.
    """

    cutoff: FockCutoff
    data: np.ndarray
    trace_deficit: float
    pattern: tuple[np.ndarray, np.ndarray, np.ndarray] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        d = self.cutoff.dim
        if self.data.shape != (d, d):
            raise DimensionMismatchError(
                f"expected {(d, d)} matrix for n_max={self.cutoff.n_max}, got {self.data.shape}"
            )
        pattern = _nonzero_pattern(self.data)
        diag = np.diagonal(self.data)
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
        for part in pattern:
            part.setflags(write=False)
        object.__setattr__(self, "pattern", pattern)

    @property
    def n_max(self) -> int:
        return self.cutoff.n_max

    def as_tensor(self) -> np.ndarray:
        """View of the data as a 4-index tensor [m, n, m', n']."""
        n = self.n_max
        return self.data.reshape(n, n, n, n)


def partial_transpose_A(rho: TwoModeDensityMatrix):
    """Nonzero pattern ``(rows, cols, values)`` of the partial transpose on
    mode A: result[(m,n),(m',n')] = rho[(m',n),(m,n')].

    Each entry of rho moves from ((m, n), (m', n')) to ((m', n), (m, n'))
    with its value unchanged. The triplets come out in no particular
    order. The move sends an entry and its mirror to a mirror pair, so
    the Hermiticity and finiteness checks rho passed at construction hold
    for the result exactly and are not repeated.
    """
    n = rho.n_max
    rows, cols, values = rho.pattern
    m, b = np.divmod(rows, n)
    m_, b_ = np.divmod(cols, n)
    return m_ * n + b, m * n + b_, values
