"""The tests' one densifier: a state's nonzero pattern as a dense matrix."""

import numpy as np


def dense(triplets, dim):
    """The dim x dim matrix with the given (rows, cols, values) entries."""
    rows, cols, values = triplets
    out = np.zeros((dim, dim), dtype=values.dtype)
    out[rows, cols] = values
    return out
