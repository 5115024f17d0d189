"""The tests' bridge between states and dense matrices: a state's nonzero
pattern as a dense matrix, and a dense test matrix as a state."""

import math

import numpy as np

from cvwerner.fock_core import FockCutoff, TwoModeDensityMatrix
from cvwerner.numerics import _nonzero_pattern


def dense(triplets, dim):
    """The dim x dim matrix with the given (rows, cols, values) entries."""
    rows, cols, values = triplets
    out = np.zeros((dim, dim), dtype=values.dtype)
    out[rows, cols] = values
    return out


def state(data, trace_deficit=0.0):
    """The state of a dense n_max^2 x n_max^2 matrix: its nonzeros, gated by
    ``_nonzero_pattern``, through the state's constructor."""
    n_max = math.isqrt(data.shape[0])
    return TwoModeDensityMatrix(cutoff=FockCutoff(n_max=n_max), pattern=_nonzero_pattern(data),
                                trace_deficit=trace_deficit)
