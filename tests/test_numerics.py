"""Tests for the Jacobi eigensolver and the 1-D grid integrator.

numpy.linalg.eigvalsh serves as an independent oracle for the in-house
solver; the library itself never calls it.
"""

import math

import numpy as np
import pytest

from cvwerner.errors import DomainTooSmallError, HermiticityError
from cvwerner.numerics import (
    PhaseSpaceGrid,
    hermitian_eigenvalues,
    integrate_grid,
)


def random_hermitian(dim, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * (g + g.conj().T) / 2.0


class TestHermitianEigenvalues:
    def test_diagonal_matrix(self):
        result = hermitian_eigenvalues(np.diag([3.0, -1.0, 2.0]).astype(complex))
        assert np.allclose(result.eigenvalues, [-1.0, 2.0, 3.0])
        assert result.max_residual == 0.0

    def test_known_two_by_two(self):
        a = np.array([[1.0, 1j], [-1j, 1.0]])
        result = hermitian_eigenvalues(a)
        assert np.allclose(result.eigenvalues, [0.0, 2.0], atol=1e-14)

    @pytest.mark.parametrize("dim", [2, 5, 17, 64, 144])
    def test_against_numpy_oracle(self, dim):
        a = random_hermitian(dim, seed=dim)
        ours = hermitian_eigenvalues(a).eigenvalues
        oracle = np.linalg.eigvalsh(a)
        assert np.abs(ours - oracle).max() < 1e-10 * max(1.0, np.abs(oracle).max())

    def test_trace_and_frobenius_invariance(self):
        a = random_hermitian(40, seed=1)
        eig = hermitian_eigenvalues(a).eigenvalues
        assert eig.sum() == pytest.approx(np.trace(a).real, abs=1e-10)
        assert (eig ** 2).sum() == pytest.approx((np.abs(a) ** 2).sum(), rel=1e-12)

    def test_unitary_invariance(self):
        a = random_hermitian(24, seed=2)
        q, _ = np.linalg.qr(
            np.random.default_rng(3).normal(size=(24, 24))
            + 1j * np.random.default_rng(4).normal(size=(24, 24))
        )
        rotated = q @ a @ q.conj().T
        e1 = hermitian_eigenvalues(a).eigenvalues
        e2 = hermitian_eigenvalues(rotated).eigenvalues
        assert np.abs(e1 - e2).max() < 1e-10

    def test_residual_bound_reported(self):
        a = random_hermitian(30, seed=5)
        result = hermitian_eigenvalues(a)
        norm = math.sqrt(float((np.abs(a) ** 2).sum()))
        assert result.max_residual < 1e-12 * norm

    def test_rejects_non_hermitian(self):
        with pytest.raises(HermiticityError):
            hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(HermiticityError):
            hermitian_eigenvalues(np.ones((2, 3)))

    def test_zero_matrix(self):
        result = hermitian_eigenvalues(np.zeros((4, 4)))
        assert np.all(result.eigenvalues == 0.0)


class TestPhaseSpaceGrid:
    def test_axis_and_spacing(self):
        grid = PhaseSpaceGrid(half_width=2.0, points_per_axis=5, values=np.zeros(5))
        assert np.allclose(grid.axis, [-2, -1, 0, 1, 2])
        assert grid.spacing == 1.0

    def test_rejects_even_points(self):
        with pytest.raises(ValueError):
            PhaseSpaceGrid(half_width=1.0, points_per_axis=4, values=np.zeros(4))

    def test_rejects_inconsistent_shape(self):
        with pytest.raises(ValueError):
            PhaseSpaceGrid(half_width=1.0, points_per_axis=5, values=np.zeros((5, 7)))

    def test_rejects_unsupported_rank(self):
        with pytest.raises(ValueError):
            PhaseSpaceGrid(half_width=1.0, points_per_axis=3, values=np.zeros((3, 3, 3)))


class TestIntegrateGrid:
    def test_normalized_gaussian_1d(self):
        grid_axis = np.linspace(-10, 10, 401)
        values = np.exp(-grid_axis ** 2) / math.sqrt(math.pi)
        grid = PhaseSpaceGrid(half_width=10.0, points_per_axis=401, values=values)
        assert integrate_grid(grid) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_boundary_mass(self):
        ax = np.linspace(-1, 1, 51)
        values = np.exp(-ax ** 2)  # far from decayed at |x| = 1
        grid = PhaseSpaceGrid(half_width=1.0, points_per_axis=51, values=values)
        with pytest.raises(DomainTooSmallError):
            integrate_grid(grid)

    def test_zero_integrand(self):
        grid = PhaseSpaceGrid(half_width=1.0, points_per_axis=5, values=np.zeros(5))
        assert integrate_grid(grid) == 0.0
