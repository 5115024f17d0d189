"""Truncated two-mode Fock-space tensor algebra.

Basis ordering is row-major with mode A as the slow index: the composite
state |m>_A |n>_B sits at flat index m * n_max + n. A truncated state is
given and kept as its row-major (rows, cols, values) nonzero pattern,
checked once; no d x d matrix of it is ever made. Every reader (partial
transpose, qubit map, moments, cell check) gathers from that pattern, and
with the fixed index convention the partial transpose is a pure
permutation of it.

Truncated states are never renormalized; the probability mass lost to the
cutoff is carried as ``trace_deficit`` metadata so that eigenvalues of the
state can be compared directly against infinite-dimensional closed forms.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from . import tolerances as tol
from .errors import NumericalConsistencyError, ParameterRangeError
from .numerics import _check_pattern


def _check_n_max(n_max, paired: bool = False) -> int:
    """The cutoff rule: ``n_max`` as an int, or ParameterRangeError unless it
    is an integer (numpy integers included) >= 2, and even where ``paired``
    levels (2m, 2m+1) are read as one qubit; every public function of a
    level count calls it."""
    try:
        n = operator.index(n_max)
    except TypeError:
        n = None
    if n is None or n < 2 or paired and n % 2:
        rule = "an even integer >= 2" if paired else "an integer >= 2"
        raise ParameterRangeError(f"n_max must be {rule}, got {n_max!r}")
    return n


@dataclass(frozen=True)
class FockCutoff:
    """Per-mode truncation: each mode keeps Fock levels 0 .. n_max - 1."""

    n_max: int
    tail_bound: float = tol.DEFAULT_TAIL_BOUND

    def __post_init__(self):
        _check_n_max(self.n_max)
        if not 0.0 < self.tail_bound < 1.0:
            raise ParameterRangeError(f"tail_bound must lie in (0, 1), got {self.tail_bound}")

    @property
    def dim(self) -> int:
        """Dimension of the truncated two-mode space."""
        return self.n_max * self.n_max


@dataclass(frozen=True, eq=False)
class TwoModeDensityMatrix:
    """Hermitian matrix on the truncated two-mode Fock space, kept as its
    nonzero pattern.

    ``pattern`` holds the nonzeros ``(rows, cols, values)`` in row-major
    order, and is made read-only. One gate checks it at construction:
    ``_check_pattern`` (indices inside the dimension, no position
    repeated, values finite and Hermitian), then no diagonal entry below
    -POSITIVITY_TOL and a trace that agrees with 1 - ``trace_deficit``.
    """

    cutoff: FockCutoff
    pattern: tuple[np.ndarray, np.ndarray, np.ndarray] = field(repr=False)
    trace_deficit: float

    def __post_init__(self):
        rows, cols, values = pattern = tuple(np.asarray(part) for part in self.pattern)
        _check_pattern(self.cutoff.dim, rows, cols, values)
        diag = values[rows == cols].real
        if diag.size and diag.min() < -tol.POSITIVITY_TOL:
            raise NumericalConsistencyError(f"negative diagonal entry {diag.min():.3e}")
        tr = float(diag.sum())
        if abs(tr - (1.0 - self.trace_deficit)) > tol.TRACE_CONSISTENCY_TOL:
            raise NumericalConsistencyError(
                f"trace {tr} inconsistent with trace_deficit {self.trace_deficit}"
            )
        for part in pattern:
            part.setflags(write=False)
        object.__setattr__(self, "pattern", pattern)

    @property
    def n_max(self) -> int:
        return self.cutoff.n_max


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
