"""Tests for the mode-to-qubit compression, its PPT analysis and CHSH."""

import math

import numpy as np
import pytest

from cvwerner.errors import NumericalConsistencyError
from cvwerner.fock_core import FockCutoff
from cvwerner.qubit_map import (
    QubitPairState,
    bell_analysis,
    bell_max_closed_form,
    build_spin_operators,
    closed_form_two_qubit,
    correlation_tensor_closed_form,
    map_to_qubits,
    mapped_entanglement_threshold,
    mapped_threshold_bisection,
    min_eigenvalue_ppt,
    nonlocality_threshold,
    partial_transpose_qubit,
)
from cvwerner.states import WernerParams, werner_state

CUTOFF = FockCutoff(n_max=16, tail_bound=0.999)


def mapped(params):
    return map_to_qubits(werner_state(params, CUTOFF))


class TestSpinOperators:
    @pytest.mark.parametrize("n_max", [2, 4, 12])
    def test_pauli_algebra(self, n_max):
        ops = build_spin_operators(n_max)
        eye = np.eye(n_max)
        s1, s2, s3 = ops.as_tuple()
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
        ops = build_spin_operators(6)
        ladder = (ops.s1 + 1j * ops.s2) / 2.0
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
        q = map_to_qubits(rho)
        dev = np.abs(q.rho4 - closed_form_two_qubit(params)).max()
        assert dev <= 1e-10 + rho.trace_deficit

    @pytest.mark.parametrize("p, r, s", [(0.5, 1.0, 1.0), (0.9, 2.0, 2.0), (0.2, 0.5, 2.0)])
    def test_matches_truncated_closed_form(self, p, r, s):
        params = WernerParams(p=p, r=r, s=s)
        q = map_to_qubits(werner_state(params, CUTOFF))
        truncated = closed_form_two_qubit(params, n_max=CUTOFF.n_max)
        assert np.abs(q.rho4 - truncated).max() <= 1e-14

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
        q = map_to_qubits(rho)
        dev = np.abs(q.corr_tensor - correlation_tensor_closed_form(params)).max()
        assert dev <= 1e-10 + rho.trace_deficit

    def test_rejects_odd_cutoff(self):
        rho = werner_state(WernerParams(p=0.5, r=0.5, s=0.5),
                           FockCutoff(n_max=9, tail_bound=0.999))
        with pytest.raises(ValueError):
            map_to_qubits(rho)


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
                assert mapped_threshold_bisection(r, s) == pytest.approx(closed, abs=1e-6)

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
        assert min_eigenvalue_ppt(below) > 0.0
        assert min_eigenvalue_ppt(above) < 0.0

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
        t = correlation_tensor_closed_form(params)
        q = QubitPairState(rho4=closed_form_two_qubit(params),
                           bloch_A=np.zeros(3), bloch_B=np.zeros(3),
                           corr_tensor=t, trace_deficit=0.0)
        analysis = bell_analysis(q)
        assert analysis.bell_max == pytest.approx(bell_max_closed_form(params), abs=1e-10)
        assert analysis.is_nonlocal == (analysis.bell_max > 2.0)

    def test_tsirelson_bound(self):
        for p in (0.2, 0.6, 1.0):
            value = bell_max_closed_form(WernerParams(p=p, r=2.0, s=2.0))
            assert value <= 2.0 * math.sqrt(2.0) + 1e-12
