"""Tests for the mode-to-qubit compression, its PPT analysis and CHSH."""

import math

import mpmath
import numpy as np
import pytest

from cvwerner import qubit_map as qm
from cvwerner.errors import NumericalConsistencyError
from cvwerner.fock_core import FockCutoff, TwoModeDensityMatrix
from cvwerner.numerics import hermitian_eigenvalues
from cvwerner.qubit_map import (
    bell_max,
    bell_max_closed_form,
    build_spin_operators,
    closed_form_two_qubit,
    correlation_tensor_closed_form,
    map_to_qubits,
    mapped_entanglement_threshold,
    mapped_threshold_pencil,
    nonlocality_threshold,
    partial_transpose_qubit,
)
from cvwerner.states import WernerParams, werner_state
from densify import dense

CUTOFF = FockCutoff(n_max=16, tail_bound=0.999)


def dense_pair_trace(rho):
    """The pair-index trace as the einsum over the dense n^4 tensor that
    map_to_qubits replaced: level 2m + k read as (m, k) on all four indices."""
    n = rho.n_max
    tensor = dense(rho.pattern, n * n).reshape((n // 2, 2) * 4)
    return np.einsum("ikjliKjL->klKL", tensor).reshape(4, 4)


def mapped(params):
    return map_to_qubits(werner_state(params, CUTOFF))


# (1, sigma1, sigma2, sigma3).
SIGMA = (np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1]))


def qubit_moments(rho4):
    """Tr(rho4 (s_i x s_j)) for s in SIGMA: [1:, 0] is the Bloch vector of
    qubit A, [0, 1:] that of qubit B and [1:, 1:] the correlation tensor."""
    return np.array([[np.trace(rho4 @ np.kron(a, b)).real for b in SIGMA] for a in SIGMA])


def random_density(n_max, seed):
    """Random full-rank state with no A/B or transpose symmetry."""
    rng = np.random.default_rng(seed)
    dim = n_max * n_max
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    data = g @ g.conj().T
    data /= np.trace(data).real
    return TwoModeDensityMatrix(
        cutoff=FockCutoff(n_max=n_max, tail_bound=0.5), data=data, trace_deficit=0.0
    )


class TestSpinOperators:
    @pytest.mark.parametrize("n_max", [2, 4, 12])
    def test_pauli_algebra(self, n_max):
        eye = np.eye(n_max)
        s1, s2, s3 = build_spin_operators(n_max)
        for s in (s1, s2, s3):
            assert np.abs(s @ s - eye).max() < 1e-12
            assert np.abs(s - s.conj().T).max() < 1e-12
        # Cyclic commutation [s_i, s_j] = 2i eps_ijk s_k.
        assert np.abs(s1 @ s2 - s2 @ s1 - 2j * s3).max() < 1e-12
        assert np.abs(s2 @ s3 - s3 @ s2 - 2j * s1).max() < 1e-12
        assert np.abs(s3 @ s1 - s1 @ s3 - 2j * s2).max() < 1e-12
        # Anticommutation of distinct operators.
        assert np.abs(s1 @ s2 + s2 @ s1).max() < 1e-12

    def test_raising_combination(self):
        # s1 + i s2 = 2 L maps |2m+1> to 2 |2m>.
        s1, s2, _ = build_spin_operators(6)
        ladder = (s1 + 1j * s2) / 2.0
        vec = np.zeros(6)
        vec[3] = 1.0
        out = ladder @ vec
        assert out[2] == pytest.approx(1.0)
        assert np.abs(out).sum() == pytest.approx(1.0)

    def test_rejects_odd_cutoff(self):
        with pytest.raises(ValueError):
            build_spin_operators(5)


class TestMapToQubits:
    def test_matches_closed_form_up_to_deficit(self):
        params = WernerParams(p=0.5, r=1.0, s=1.0)
        rho = werner_state(params, CUTOFF)
        dev = np.abs(map_to_qubits(rho) - closed_form_two_qubit(params)).max()
        assert dev <= 1e-10 + rho.trace_deficit

    @pytest.mark.parametrize("p, r, s", [(0.5, 1.0, 1.0), (0.9, 2.0, 2.0), (0.2, 0.5, 2.0)])
    def test_matches_truncated_closed_form(self, p, r, s):
        params = WernerParams(p=p, r=r, s=s)
        rho4 = map_to_qubits(werner_state(params, CUTOFF))
        truncated = closed_form_two_qubit(params, n_max=CUTOFF.n_max)
        assert np.abs(rho4 - truncated).max() <= 1e-14

    def test_closed_form_trace_is_one(self):
        for p in (0.0, 0.4, 1.0):
            m = closed_form_two_qubit(WernerParams(p=p, r=0.8, s=1.3))
            assert np.trace(m).real == pytest.approx(1.0, abs=1e-14)
            assert np.abs(m - m.conj().T).max() == 0.0

    def test_correlation_tensor_closed_form(self):
        params = WernerParams(p=0.7, r=1.0, s=0.6)
        t = correlation_tensor_closed_form(params)
        assert t[0, 0] == pytest.approx(0.7 * math.tanh(2.0))
        assert t[1, 1] == pytest.approx(-t[0, 0])
        expected_t33 = 0.7 + 0.3 / math.cosh(2.0 * 0.6) ** 2
        assert t[2, 2] == pytest.approx(expected_t33)

    def test_mapped_tensor_matches_closed_form(self):
        params = WernerParams(p=0.5, r=0.8, s=1.0)
        rho = werner_state(params, CUTOFF)
        corr = qubit_moments(map_to_qubits(rho))[1:, 1:]
        dev = np.abs(corr - correlation_tensor_closed_form(params)).max()
        assert dev <= 1e-10 + rho.trace_deficit

    def test_rejects_odd_cutoff(self):
        rho = werner_state(WernerParams(p=0.5, r=0.5, s=0.5),
                           FockCutoff(n_max=9, tail_bound=0.999))
        with pytest.raises(ValueError):
            map_to_qubits(rho)

    @pytest.mark.parametrize("n_max", [2, 4, 6, 12, 16, 24, 32])
    def test_bit_identical_to_dense_pair_trace(self, n_max):
        cutoff = FockCutoff(n_max=n_max, tail_bound=1.0 - 1e-15)
        rng = np.random.default_rng(n_max)
        for p, r, s in zip(rng.uniform(0, 1, 20), rng.uniform(0, 3, 20), rng.uniform(0, 3, 20)):
            rho = werner_state(WernerParams(p=p, r=r, s=s), cutoff)
            assert np.array_equal(map_to_qubits(rho), dense_pair_trace(rho)), (p, r, s)


def dense_moment_route(rho):
    """The pseudo-spin route as a dense two-step contraction of the n^4
    tensor t[a, b, a', b'] with f_i[a', a] and f_j[b', b]."""
    n = rho.n_max
    factors = np.stack([np.eye(n, dtype=np.complex128), *build_spin_operators(n)])
    tensor = dense(rho.pattern, n * n).reshape((n,) * 4)
    half = np.einsum("abcd,ica->ibd", tensor, factors)
    moments = np.einsum("ibd,jdb->ij", half, factors).real
    return np.einsum("ij,ikK,jlL->klKL", moments, qm.PAULI, qm.PAULI).reshape(4, 4) / 4.0


class TestMomentRoute:
    """The moment route reads the state's nonzero pattern; the dense
    contraction of the whole tensor is its reference."""

    @pytest.mark.parametrize("n_max, seed", [(4, 21), (6, 22)])
    def test_pattern_matches_dense_on_generic_state(self, n_max, seed):
        rho = random_density(n_max, seed)
        assert np.abs(qm._map_via_moments(rho) - dense_moment_route(rho)).max() <= 1e-14

    @pytest.mark.parametrize("p, r, s", [(0.5, 1.0, 1.0), (0.9, 2.0, 0.5), (0.2, 0.5, 2.0)])
    def test_pattern_matches_dense_on_werner_state(self, p, r, s):
        rho = werner_state(WernerParams(p=p, r=r, s=s), CUTOFF)
        assert np.abs(qm._map_via_moments(rho) - dense_moment_route(rho)).max() <= 1e-14

    def test_imaginary_moment_raises(self):
        with pytest.raises(NumericalConsistencyError):
            qm._moments(1, np.array([0]), np.array([0]), np.array([1e-9j]), qm.PAULI[:1])


class TestMapOnGenericState:
    """On a state without the Werner symmetries the map must still tell mode A
    from mode B and T from its transpose."""

    @pytest.mark.parametrize("n_max, seed", [(4, 11), (6, 12)])
    def test_moments_match_dense_observables(self, n_max, seed):
        rho = random_density(n_max, seed)
        eye = np.eye(n_max)
        spins = build_spin_operators(n_max)
        matrix = dense(rho.pattern, n_max * n_max)

        def mean(obs):
            return np.trace(matrix @ obs).real

        bloch_A = np.array([mean(np.kron(s, eye)) for s in spins])
        bloch_B = np.array([mean(np.kron(eye, s)) for s in spins])
        corr = np.array([[mean(np.kron(si, sj)) for sj in spins] for si in spins])
        # The references themselves must tell the swaps apart.
        assert np.abs(bloch_A - bloch_B).max() > 1e-3
        assert np.abs(corr - corr.T).max() > 1e-3
        moments = qubit_moments(map_to_qubits(rho))
        assert np.abs(moments[1:, 0] - bloch_A).max() <= 1e-14
        assert np.abs(moments[0, 1:] - bloch_B).max() <= 1e-14
        assert np.abs(moments[1:, 1:] - corr).max() <= 1e-14

    @pytest.mark.parametrize("n_max, seed", [(4, 11), (6, 12), (4, 13), (6, 14)])
    def test_bit_identical_to_dense_pair_trace_on_generic_state(self, n_max, seed):
        rho = random_density(n_max, seed)
        assert np.array_equal(map_to_qubits(rho), dense_pair_trace(rho))

    @pytest.mark.parametrize("n_max, seed", [(4, 13), (6, 14)])
    def test_trace_matches_moment_route(self, n_max, seed):
        rho = random_density(n_max, seed)
        assert np.abs(map_to_qubits(rho) - qm._map_via_moments(rho)).max() <= 1e-14


class TestMappedEntanglement:
    def test_reference_threshold(self):
        # r = s = 1: 1 / (1 + 2 / tanh 2).
        thr = mapped_entanglement_threshold(1.0, 1.0)
        assert thr == pytest.approx(1.0 / (1.0 + 2.0 / math.tanh(2.0)), abs=1e-14)
        assert thr == pytest.approx(0.32524, abs=1e-5)

    def test_bisection_agrees_with_closed_form(self):
        for r in (0.5, 1.0, 2.0):
            for s in (0.5, 1.0, 2.0):
                closed = mapped_entanglement_threshold(r, s)
                assert mapped_threshold_pencil(r, s) == pytest.approx(closed, abs=1e-6)

    def test_pencil_equals_closed_form(self):
        # r, s = 0 and the s whose tanh^2 2s underflows (a zero thermal
        # floor under the coherence) or is subnormal included.
        values = [0.0, 1e-200, 1e-160, 1e-10, 0.05, 0.3, 0.7, 1.0, 1.6, 2.5, 5.0]
        for r in values:
            for s in values:
                closed = mapped_entanglement_threshold(r, s)
                assert abs(mapped_threshold_pencil(r, s) - closed) <= 2.3e-16, (r, s)
        assert mapped_threshold_pencil(0.0, 1.0) == 1.0
        assert mapped_threshold_pencil(1.0, 0.0) == 0.0
        assert mapped_threshold_pencil(1.0, 1e-200) == 0.0

    def test_large_squeezing_limit(self):
        assert mapped_entanglement_threshold(5.0, 5.0) == pytest.approx(1 / 3, abs=1e-3)

    def test_degenerate_limits(self):
        assert mapped_entanglement_threshold(0.0, 1.0) == 1.0
        assert mapped_entanglement_threshold(1.0, 0.0) == 0.0

    def test_ppt_eigenvalue_changes_sign_at_threshold(self):
        r = s = 1.0
        thr = mapped_entanglement_threshold(r, s)
        below = closed_form_two_qubit(WernerParams(p=thr - 1e-3, r=r, s=s))
        above = closed_form_two_qubit(WernerParams(p=thr + 1e-3, r=r, s=s))
        assert hermitian_eigenvalues(partial_transpose_qubit(below)).eigenvalues[0] > 0.0
        assert hermitian_eigenvalues(partial_transpose_qubit(above)).eigenvalues[0] < 0.0

    def test_partial_transpose_qubit_swaps_coherence(self):
        m = np.zeros((4, 4), dtype=np.complex128)
        m[0, 3] = 1.0
        mt = partial_transpose_qubit(m)
        assert mt[2, 1] == 1.0
        assert mt[0, 3] == 0.0


class TestNonlocality:
    def test_reference_threshold(self):
        assert nonlocality_threshold(5.0, 5.0) == pytest.approx(1 / math.sqrt(2), abs=1e-3)

    def test_no_violation_without_squeezing(self):
        assert nonlocality_threshold(0.0, 1.0) == 1.0

    def test_bell_straddles_two_at_threshold(self):
        for r in (1.0, 2.0):
            for s in (1.0, 2.0):
                thr = nonlocality_threshold(r, s)
                low = bell_max_closed_form(WernerParams(p=thr - 1e-5, r=r, s=s))
                high = bell_max_closed_form(WernerParams(p=thr + 1e-5, r=r, s=s))
                assert low < 2.0 < high

    def test_bell_analysis_matches_closed_form(self):
        params = WernerParams(p=0.9, r=1.0, s=1.0)
        bell = bell_max(correlation_tensor_closed_form(params))
        assert bell == pytest.approx(bell_max_closed_form(params), abs=1e-10)
        assert (bell > 2.0) == (params.p > nonlocality_threshold(params.r, params.s))

    def test_matches_mpmath_down_to_tiny_squeezing(self):
        # The quadratic root (a (a - 1) + sqrt(disc)) / (a^2 + b^2), a = tanh^2 2s,
        # b = tanh 2r, at enough digits to survive its cancellation (~a
        # relative), on a log grid from 1e-300 to 19 and at three points
        # where the unrationalised double form printed 0, 1.23 or divided
        # by zero.
        grid = [float(v) for v in np.logspace(-300, math.log10(19.0), 16)]
        points = [(r, s) for r in grid for s in grid]
        points += [(1e-20, 1e-10), (1e-16, 1e-8), (1e-170, 1e-100)]
        for r, s in points:
            with mpmath.workdps(40 + max(0, round(-2 * math.log10(s)))):
                a = mpmath.tanh(2 * mpmath.mpf(s)) ** 2
                b = mpmath.tanh(2 * mpmath.mpf(r))
                disc = a * (a - a * b * b + 2 * b * b)
                exact = (a * (a - 1) + mpmath.sqrt(disc)) / (a * a + b * b)
            threshold = nonlocality_threshold(r, s)
            assert abs(threshold - exact) <= 1e-15 * exact, (r, s)
            assert mapped_entanglement_threshold(r, s) <= threshold * (1 + 4 * 2.0 ** -52), (r, s)

    def test_tsirelson_bound(self):
        for p in (0.2, 0.6, 1.0):
            value = bell_max_closed_form(WernerParams(p=p, r=2.0, s=2.0))
            assert value <= 2.0 * math.sqrt(2.0) + 1e-12
