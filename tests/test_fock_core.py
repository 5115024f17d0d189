"""Tests for the truncated two-mode Fock-space tensor algebra."""

import math

import numpy as np
import pytest

from cvwerner.errors import (
    DimensionMismatchError,
    HermiticityError,
    NumericalConsistencyError,
)
from cvwerner.fock_core import FockCutoff, TwoModeDensityMatrix, partial_transpose_A
from cvwerner.numerics import _nonzero_pattern
from cvwerner.states import WernerParams, werner_state
from densify import dense, state


def random_matrix(n_max, seed):
    rng = np.random.default_rng(seed)
    dim = n_max * n_max
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_density(n_max, seed):
    return state(random_matrix(n_max, seed))


def valid_pattern():
    """Row-major triplets of diag(0.4, 0.3, 0.2, 0.1) with a real coherence
    0.05 between indices 0 and 3: a valid state at n_max = 2."""
    return (np.array([0, 0, 1, 2, 3, 3]), np.array([0, 3, 1, 2, 0, 3]),
            np.array([0.4, 0.05, 0.3, 0.2, 0.05, 0.1]))


def build(pattern):
    return TwoModeDensityMatrix(cutoff=FockCutoff(n_max=2), pattern=pattern, trace_deficit=0.0)


def with_value(at, value, dtype=float):
    rows, cols, values = valid_pattern()
    values = values.astype(dtype)
    values[list(at)] = value
    return rows, cols, values


def with_index(part, at, index):
    pattern = list(valid_pattern())
    pattern[part][at] = index
    return tuple(pattern)


def reordered(order):
    return tuple(part[order] for part in valid_pattern())


class TestFockCutoff:
    def test_dim(self):
        assert FockCutoff(n_max=6).dim == 36

    def test_invalid(self):
        with pytest.raises(ValueError):
            FockCutoff(n_max=1)
        with pytest.raises(ValueError):
            FockCutoff(n_max=4, tail_bound=0.0)


class TestTwoModeDensityMatrix:
    def test_valid_state_is_read_only(self):
        # The state keeps its pattern only, read-only, and not the matrix
        # it was built from.
        rho = random_density(3, seed=0)
        assert not hasattr(rho, "data")
        for part in rho.pattern:
            assert not part.flags.writeable

    def test_accepts_valid_triplets(self):
        rho = build(valid_pattern())
        assert all(np.array_equal(a, b) for a, b in zip(rho.pattern, valid_pattern()))

    # Each case breaks one check of the constructor's gate on the triplets.
    @pytest.mark.parametrize("pattern, error, match", [
        pytest.param(with_value([1, 4], np.nan), HermiticityError, "not finite",
                     id="nan-coherence"),
        pytest.param(reordered([0, 2, 3, 4, 5]), HermiticityError, "not Hermitian",
                     id="mirror-missing"),
        pytest.param(with_value([4], 0.06), HermiticityError, "not Hermitian",
                     id="mirror-different"),
        pytest.param(with_value([1], 0.05 + 0.01j, complex), HermiticityError, "not Hermitian",
                     id="mirror-not-conjugate"),
        pytest.param(with_index(0, 5, 4), DimensionMismatchError, "outside", id="row-index-d"),
        pytest.param(with_index(1, 1, 7), DimensionMismatchError, "outside", id="col-index-past-d"),
        pytest.param(with_index(0, 0, -1), DimensionMismatchError, "outside", id="negative-row"),
        pytest.param(with_index(1, 0, -1), DimensionMismatchError, "outside",
                     id="negative-column"),
        pytest.param(reordered([0, 1, 2, 2, 3, 4, 5]), DimensionMismatchError, "repeated",
                     id="repeated-position"),
        pytest.param(reordered([0, 1, 3, 2, 4, 5]), DimensionMismatchError, "row-major",
                     id="out-of-order"),
        pytest.param(valid_pattern()[:2] + (np.ones(5),), DimensionMismatchError, "one length",
                     id="unequal-lengths"),
        pytest.param((np.arange(4), np.arange(4), np.array([0.6, 0.5, -0.05, -0.05])),
                     NumericalConsistencyError, "negative diagonal", id="negative-diagonal"),
        pytest.param(with_value([0], 0.5), NumericalConsistencyError, "trace", id="wrong-trace"),
    ])
    def test_gate_rejects(self, pattern, error, match):
        with pytest.raises(error, match=match):
            build(pattern)

    def test_rejects_non_hermitian(self):
        data = np.eye(4, dtype=np.complex128) / 4.0
        data[0, 1] = 0.5
        with pytest.raises(HermiticityError):
            state(data)

    def test_rejects_imaginary_diagonal(self):
        # On the diagonal the Hermiticity deviation is 2 |Im a|, so the one
        # gate rejects an imaginary diagonal entry.
        data = np.eye(4, dtype=np.complex128) / 4.0
        data[0, 0] = 0.25 + 1e-9j
        with pytest.raises(HermiticityError, match="not Hermitian"):
            state(data)

    def test_rejects_non_finite_off_diagonal(self):
        data = np.eye(4, dtype=np.complex128) / 4.0
        data[1, 2] = data[2, 1] = np.nan
        with pytest.raises(HermiticityError, match="not finite"):
            state(data)

    def test_rejects_index_out_of_range(self):
        # The pattern of a 16 x 16 matrix does not fit n_max = 3, whose
        # states are 9 x 9: no index may reach the dimension.
        rows, cols, values = _nonzero_pattern(np.eye(16) / 16.0)
        with pytest.raises(DimensionMismatchError, match="outside a 9 x 9"):
            TwoModeDensityMatrix(cutoff=FockCutoff(n_max=3), pattern=(rows, cols, values),
                                 trace_deficit=0.0)

    def test_rejects_inconsistent_trace(self):
        data = np.eye(4, dtype=np.complex128) / 4.0
        with pytest.raises(NumericalConsistencyError):
            state(data, trace_deficit=0.3)

    def test_rejects_negative_diagonal(self):
        data = np.diag([0.6, 0.5, -0.05, -0.05]).astype(np.complex128)
        with pytest.raises(NumericalConsistencyError):
            state(data)

    def test_pattern_is_the_read_only_nonzeros(self):
        data = np.diag([0.4, 0.3, 0.2, 0.1]).astype(np.complex128)
        data[0, 3] = 0.05 + 0.02j
        data[3, 0] = 0.05 - 0.02j
        rho = state(data)
        rows, cols, values = rho.pattern
        assert rows.tolist() == [0, 0, 1, 2, 3, 3]
        assert cols.tolist() == [0, 3, 1, 2, 0, 3]
        assert np.array_equal(values, data[rows, cols])
        for part in rho.pattern:
            with pytest.raises(ValueError):
                part[0] = 0

    def test_pattern_matches_flat_convention(self):
        # Entry [m, n, m', n'] of the 4-index tensor sits at row m n_max + n
        # and column m' n_max + n' of the pattern.
        data = random_matrix(4, seed=1)
        rows, cols, values = state(data).pattern
        at = np.flatnonzero((rows == 1 * 4 + 2) & (cols == 3 * 4 + 0))
        assert values[at] == data.reshape(4, 4, 4, 4)[1, 2, 3, 0]


class TestPartialOperations:
    def test_partial_transpose_of_product(self):
        # On A (x) B the partial transpose acts as A^T (x) B. Both factors
        # are complex and non-symmetric, so transposing mode B, or neither
        # mode, fails here although it leaves the spectrum of a Werner
        # state unchanged.
        rng = np.random.default_rng(3)
        g, h = (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) for _ in range(2))
        a, b = g @ g.conj().T, h @ h.conj().T
        data = np.kron(a, b)
        data /= np.trace(data).real
        rho = state(data)
        expected = np.kron(a.T, b) / np.trace(np.kron(a, b)).real
        assert np.abs(expected - data).max() > 1e-3
        assert np.abs(expected - np.kron(a, b.T) / np.trace(np.kron(a, b)).real).max() > 1e-3
        assert np.abs(dense(partial_transpose_A(rho), 16) - expected).max() < 1e-14

    def test_partial_transpose_is_involution(self):
        rho = random_density(4, seed=4)
        once = dense(partial_transpose_A(rho), 16)
        # The transpose keeps the diagonal and trace, so it is a valid state.
        once = state(once)
        twice = dense(partial_transpose_A(once), 16)
        assert np.abs(twice - dense(rho.pattern, 16)).max() == 0.0


class TestExpectation:
    def test_mean_photon_number_of_squeezed_vacuum(self):
        # The reduced state of the two-mode squeezed vacuum is thermal with
        # mean photon number sinh^2(r): Tr(rho (n (x) 1)) = sum_mn m rho[m, n, m, n].
        n_max = 40
        rho = werner_state(WernerParams(p=1.0, r=1.0, s=0.0),
                           FockCutoff(n_max=n_max, tail_bound=1e-8))
        tensor = dense(rho.pattern, n_max * n_max).reshape((n_max,) * 4)
        mean_n_a = np.einsum("m,mnmn->", np.arange(n_max), tensor)
        assert abs(mean_n_a.imag) == 0.0
        assert mean_n_a.real == pytest.approx(math.sinh(1.0) ** 2, abs=1e-6)
