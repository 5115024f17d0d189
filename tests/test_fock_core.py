"""Tests for the truncated two-mode Fock-space tensor algebra."""

import math

import numpy as np
import pytest

from cvwerner.errors import (
    DimensionMismatchError,
    HermiticityError,
    NumericalConsistencyError,
)
from cvwerner.fock_core import (
    FockCutoff,
    TwoModeDensityMatrix,
    expectation,
    partial_transpose_A,
    tensor_product,
)
from cvwerner.states import nopa_state, thermal_single_mode


def random_density(n_max, seed):
    rng = np.random.default_rng(seed)
    dim = n_max * n_max
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    return TwoModeDensityMatrix(
        cutoff=FockCutoff(n_max=n_max, tail_bound=0.5), data=rho, trace_deficit=0.0
    )


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
        rho = random_density(3, seed=0)
        with pytest.raises(ValueError):
            rho.data[0, 0] = 2.0

    def test_rejects_non_hermitian(self):
        data = np.eye(4, dtype=np.complex128) / 4.0
        data[0, 1] = 0.5
        with pytest.raises(HermiticityError):
            TwoModeDensityMatrix(cutoff=FockCutoff(n_max=2), data=data, trace_deficit=0.0)

    def test_rejects_non_finite_off_diagonal(self):
        data = np.eye(4, dtype=np.complex128) / 4.0
        data[1, 2] = data[2, 1] = np.nan
        with pytest.raises(HermiticityError, match="not finite"):
            TwoModeDensityMatrix(cutoff=FockCutoff(n_max=2), data=data, trace_deficit=0.0)

    def test_rejects_wrong_shape(self):
        with pytest.raises(DimensionMismatchError):
            TwoModeDensityMatrix(
                cutoff=FockCutoff(n_max=3),
                data=np.eye(4, dtype=np.complex128) / 4.0,
                trace_deficit=0.0,
            )

    def test_rejects_inconsistent_trace(self):
        data = np.eye(4, dtype=np.complex128) / 4.0
        with pytest.raises(NumericalConsistencyError):
            TwoModeDensityMatrix(cutoff=FockCutoff(n_max=2), data=data, trace_deficit=0.3)

    def test_rejects_negative_diagonal(self):
        data = np.diag([0.6, 0.5, -0.05, -0.05]).astype(np.complex128)
        with pytest.raises(NumericalConsistencyError):
            TwoModeDensityMatrix(cutoff=FockCutoff(n_max=2), data=data, trace_deficit=0.0)

    def test_as_tensor_matches_flat_convention(self):
        rho = random_density(4, seed=1)
        t = rho.as_tensor()
        assert t[1, 2, 3, 0] == rho.data[1 * 4 + 2, 3 * 4 + 0]


class TestTensorProduct:
    def test_matches_componentwise_definition(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        full = tensor_product(a, b)
        for m in range(3):
            for n in range(3):
                for mp in range(3):
                    for np_ in range(3):
                        assert abs(full[m * 3 + n, mp * 3 + np_]
                                   - a[m, mp] * b[n, np_]) < 1e-15

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            tensor_product(np.eye(2), np.eye(3))
        with pytest.raises(DimensionMismatchError):
            tensor_product(np.ones((2, 3)), np.ones((2, 3)))


class TestPartialOperations:
    def test_partial_transpose_of_product(self):
        # On A (x) B the partial transpose acts as A^T (x) B.
        a = thermal_single_mode(0.7, 4) + 0.01 * np.eye(4)
        rng = np.random.default_rng(3)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        b = g @ g.conj().T
        data = tensor_product(a, b)
        data /= np.trace(data).real
        rho = TwoModeDensityMatrix(cutoff=FockCutoff(n_max=4), data=data, trace_deficit=0.0)
        expected = tensor_product(a.T, b) / np.trace(tensor_product(a, b)).real
        assert np.abs(partial_transpose_A(rho) - expected).max() < 1e-14

    def test_partial_transpose_is_involution(self):
        rho = random_density(4, seed=4)
        once = partial_transpose_A(rho)
        twice = once.reshape(4, 4, 4, 4).transpose(2, 1, 0, 3).reshape(16, 16)
        assert np.abs(twice - rho.data).max() == 0.0


class TestExpectation:
    def test_mean_photon_number_of_squeezed_vacuum(self):
        # The reduced state of the two-mode squeezed vacuum is thermal with
        # mean photon number sinh^2(r).
        n_max = 40
        rho = nopa_state(1.0, FockCutoff(n_max=n_max, tail_bound=1e-8))
        number = np.diag(np.arange(n_max)).astype(np.complex128)
        n_a = tensor_product(number, np.eye(n_max, dtype=np.complex128))
        assert expectation(rho, n_a) == pytest.approx(math.sinh(1.0) ** 2, abs=1e-6)

    def test_rejects_non_hermitian_observable(self):
        rho = random_density(3, seed=6)
        obs = np.zeros((9, 9), dtype=np.complex128)
        obs[0, 1] = 1.0
        with pytest.raises(HermiticityError):
            expectation(rho, obs)

    def test_rejects_shape_mismatch(self):
        rho = random_density(3, seed=7)
        with pytest.raises(DimensionMismatchError):
            expectation(rho, np.eye(4, dtype=np.complex128))
