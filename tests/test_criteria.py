"""Tests for the direct PPT spectrum, separability cells and squeezing."""

import math
import re

import numpy as np
import pytest

from cvwerner.criteria import (
    MOMENT_LEVELS_CEILING,
    MOMENT_TAIL_BOUND,
    SQUEEZING_CONSISTENCY_TOL,
    SeparabilityCells,
    bisect_direct_threshold,
    direct_entanglement_threshold,
    enumerate_ppt_spectrum,
    enumerated_entanglement_threshold,
    largest_separable_p,
    mapped_vs_direct_gap,
    ppt_spectrum_analytic,
    ppt_spectrum_bruteforce,
    published_squeezing_threshold,
    published_squeezing_threshold_lambda_form,
    q_tilde_one_bound,
    quadrature_x,
    reconstruct_from_cells,
    squeezing_criterion,
    squeezing_threshold,
    squeezing_variance_analytic,
    squeezing_variance_dense,
    squeezing_variance_direct,
)
from cvwerner import criteria
from cvwerner.cli import CRITERIA
from cvwerner.errors import CutoffTooSmallError
from cvwerner.fock_core import FockCutoff, partial_transpose_A
from cvwerner.states import WernerParams, werner_state

CUTOFF = FockCutoff(n_max=10, tail_bound=0.999)


def table_verdict(name, params):
    """(decision, threshold_p, margin) from the criterion table's eval line."""
    match = re.fullmatch(rf"{name}: (true|false) threshold_p=(\S+) margin=(\S+) method=\w+",
                         CRITERIA[name].line(params))
    return match[1] == "true", float(match[2]), float(match[3])


class TestPptSpectrum:
    def test_block_values(self):
        params = WernerParams(p=0.5, r=1.0, s=0.7)
        spec = ppt_spectrum_analytic(params)
        p, l1, l2 = 0.5, math.tanh(1.0), math.tanh(0.7)
        expected_diag = p * (1 - l1 ** 2) * l1 ** 4 + (1 - p) * (1 - l2 ** 2) ** 2 * l2 ** 8
        assert spec.x_diag(2) == pytest.approx(expected_diag, rel=1e-14)
        base = (1 - p) * (1 - l2 ** 2) ** 2 * l2 ** 6
        off = p * (1 - l1 ** 2) * l1 ** 3
        assert spec.x_pair_plus(1, 2) == pytest.approx(base + off, rel=1e-14)
        assert spec.x_pair_minus(1, 2) == pytest.approx(base - off, rel=1e-14)

    def test_enumeration_matches_bruteforce(self):
        params = WernerParams(p=0.5, r=1.0, s=1.0)
        brute = ppt_spectrum_bruteforce(params, CUTOFF)
        analytic = enumerate_ppt_spectrum(params, CUTOFF.n_max)
        assert brute.size == analytic.size == CUTOFF.dim
        assert np.abs(brute - analytic).max() < 1e-12

    def test_matches_numpy_oracle(self):
        params = WernerParams(p=0.7, r=0.8, s=1.2)
        rho = werner_state(params, CUTOFF)
        oracle = np.linalg.eigvalsh(partial_transpose_A(rho))
        analytic = enumerate_ppt_spectrum(params, CUTOFF.n_max)
        assert np.abs(oracle - analytic).max() < 1e-12

    def test_negative_eigenvalue_detects_entanglement(self):
        entangled = ppt_spectrum_analytic(WernerParams(p=0.9, r=1.0, s=0.5))
        separable = ppt_spectrum_analytic(WernerParams(p=0.0, r=1.0, s=0.5))
        assert entangled.min_eigenvalue_estimate < 0.0
        assert separable.min_eigenvalue_estimate >= 0.0


class TestDirectThreshold:
    def test_equal_parameters_entangle_for_all_p(self):
        # q = tanh r / tanh^2 s > 1 whenever r = s > 0.
        result = direct_entanglement_threshold(1.0, 1.0)
        assert result.regime == "q>1"
        assert result.threshold == 0.0

    def test_weak_squeezing_regime(self):
        # q < 1: the infimum is attained at m + n = 1.
        result = direct_entanglement_threshold(0.5, 1.0)
        assert result.regime == "q<1"
        l1, l2 = math.tanh(0.5), math.tanh(1.0)
        therm = (1 - l2 ** 2) ** 2 * l2 ** 2
        nopa = (1 - l1 ** 2) * l1
        assert result.threshold == pytest.approx(therm / (therm + nopa), rel=1e-12)
        assert result.threshold == pytest.approx(0.21966, abs=1e-5)

    def test_marginal_regime(self):
        # lambda1 = lambda2^2 gives threshold (1 - lambda1) / 2.
        l1 = math.tanh(1.0) ** 2
        r = math.atanh(l1)
        result = direct_entanglement_threshold(r, 1.0)
        # Floating-point round-trip may land infinitesimally on either side
        # of q = 1; the threshold value is continuous across the boundary.
        assert result.regime in ("q=1", "q<1")
        assert result.threshold == pytest.approx((1 - l1) / 2.0, rel=1e-9)

    def test_degenerate_limits(self):
        assert direct_entanglement_threshold(0.0, 1.0).threshold == 1.0
        assert direct_entanglement_threshold(1.0, 0.0).threshold == 0.0

    def test_bisection_matches_enumeration(self):
        for r, s in [(0.5, 1.0), (1.0, 1.0), (2.0, 0.5)]:
            enumerated = enumerated_entanglement_threshold(r, s)
            assert bisect_direct_threshold(r, s) == pytest.approx(enumerated, abs=1e-6)

    def test_verdict(self):
        decision, threshold, margin = table_verdict("entangled_ppt_direct",
                                                    WernerParams(p=0.5, r=0.5, s=1.0))
        assert decision
        assert margin == pytest.approx(0.5 - threshold)
        assert not table_verdict("entangled_ppt_direct", WernerParams(p=0.1, r=0.5, s=1.0))[0]


def enumerated_direct_reference(r, s, horizon=200):
    """The 200-term enumeration that direct_entanglement_threshold replaced."""
    l1, l2 = math.tanh(r), math.tanh(s)
    if l1 == 0.0:
        return 1.0
    if l2 == 0.0:
        return 0.0
    q = l1 / (l2 * l2)
    enum = min(criteria._entanglement_p_k(l1, l2, k) for k in range(1, horizon + 1))
    if q > 1.0:
        limit = 0.0
    elif q == 1.0:
        limit = (1.0 - l1) / 2.0
    else:
        limit = 1.0
    return min(enum, limit)


def enumerated_separable_reference(r, s, horizon=200):
    """The 200-term enumeration that largest_separable_p replaced."""
    l1, l2 = math.tanh(r), math.tanh(s)
    if l1 == 0.0:
        return 1.0
    if l2 == 0.0:
        return 0.0
    best = min(
        min(criteria._entanglement_p_k(l1, l2, k), criteria._positivity_p_k(l1, l2, k))
        for k in range(1, horizon + 1)
    )
    q = l1 / l2 ** 2
    if q > 1.0:
        best = 0.0
    elif q == 1.0:
        best = min(best, (1.0 - l1) / 2.0)
    q_tilde = l1 / l2 ** 4
    if q_tilde > 1.0:
        best = 0.0
    elif q_tilde == 1.0:
        limit = 1.0 / (1.0 + (1 - l1 * l1) / ((1 - l2 * l2) ** 2 * (1 - l2 ** 4)))
        best = min(best, limit)
    return best


class TestClosedFormThresholds:
    def test_equal_to_enumeration_on_grid(self):
        grid = [float(v) for v in np.linspace(0.01, 3.0, 120)]
        interior = 0
        for r in grid:
            for s in grid:
                direct = direct_entanglement_threshold(r, s).threshold
                separable = largest_separable_p(r, s)
                assert direct == enumerated_direct_reference(r, s), (r, s)
                assert separable == enumerated_separable_reference(r, s), (r, s)
                l1, l2 = math.tanh(r), math.tanh(s)
                interior += separable < min(criteria._entanglement_p_k(l1, l2, 1),
                                            criteria._positivity_p_k(l1, l2, 1))
        # The grid exercises the stationary point, not only the k = 1 cell.
        assert interior > 0

    def test_separable_bound_past_the_horizon(self):
        # q_tilde = 0.99999 at r = 3 puts the least positive cell near
        # k = 321, past the 200-term horizon the enumeration stopped at.
        r = 3.0
        l1 = math.tanh(r)
        s = math.atanh((l1 / 0.99999) ** 0.25)
        reference = enumerated_separable_reference(r, s, horizon=4999)
        assert largest_separable_p(r, s) == pytest.approx(reference, rel=1e-12)
        assert largest_separable_p(r, s) < enumerated_separable_reference(r, s)

    def test_never_above_enumeration_near_q_tilde_one(self):
        # Near q_tilde = 1 the least positive cell sits deep in k; wherever
        # it lies inside the horizon the two agree bit for bit.
        rng = np.random.default_rng(11)
        for r, q_tilde in zip(rng.uniform(0.01, 3.0, 300), rng.uniform(0.95, 1.0, 300)):
            r, l2 = float(r), (math.tanh(r) / q_tilde) ** 0.25
            if l2 >= 1.0:
                continue  # no s reaches this q_tilde at this r
            s = math.atanh(l2)
            closed, reference = largest_separable_p(r, s), enumerated_separable_reference(r, s)
            assert closed <= reference, (r, s)
            l1 = math.tanh(r)
            log_qt = math.log(l1 / math.tanh(s) ** 4)
            if log_qt < 0.0:
                k_star = math.log(log_qt / ((1 - l1 * l1) * (log_qt + math.log(l1)))) / math.log(l1)
                if k_star < 199:
                    assert closed == reference, (r, s)


class TestGapInterval:
    def test_strong_gap_exactly_when_tanh_r_exceeds_tanh_sq_s(self):
        for r in (0.2, 0.7, 1.5):
            for s in (0.2, 0.7, 1.5):
                gap = mapped_vs_direct_gap(r, s)
                assert gap.extends_to_zero == (math.tanh(r) > math.tanh(s) ** 2)

    def test_interval_orientation(self):
        gap = mapped_vs_direct_gap(1.0, 1.0)
        assert gap.nonempty
        assert gap.lower == 0.0
        assert gap.as_tuple() == (gap.lower, gap.upper)


class TestSeparabilityCells:
    def test_reconstruction_is_exact(self):
        params = WernerParams(p=0.5, r=1.0, s=1.0)
        rho = werner_state(params, CUTOFF)
        rebuilt = reconstruct_from_cells(params, CUTOFF)
        assert np.abs(rebuilt - rho.data).max() < 1e-10

    def test_cell_weights_sum_to_one(self):
        params = WernerParams(p=0.4, r=0.9, s=1.1)
        cells = SeparabilityCells(params)
        horizon = 400
        total = sum(cells.P(m) for m in range(horizon))
        total += sum(
            cells.alpha(m, n) + cells.gamma(m, n)
            for m in range(horizon) for n in range(horizon) if m != n
        )
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_separable_bound_below_entanglement_threshold(self):
        for r, s in [(0.3, 1.0), (0.2, 1.5), (0.5, 1.2)]:
            sep = largest_separable_p(r, s)
            ent = direct_entanglement_threshold(r, s).threshold
            assert sep <= ent + 1e-12

    def test_equal_parameters_have_no_certified_region(self):
        # q > 1 whenever r = s > 0, so the certificate degenerates to p = 0.
        assert largest_separable_p(1.0, 1.0) == 0.0

    def test_q_tilde_one_bound(self):
        l2 = math.tanh(1.2)
        expected = (1 - l2 ** 2) ** 2 / (2.0 * (1 - l2 ** 2 + l2 ** 4))
        assert q_tilde_one_bound(1.2) == pytest.approx(expected, rel=1e-14)

    def test_verdict(self):
        decision, threshold, margin = table_verdict("separable_sufficient",
                                                    WernerParams(p=0.02, r=0.3, s=1.5))
        assert decision
        assert margin == pytest.approx(threshold - 0.02)
        assert not table_verdict("separable_sufficient", WernerParams(p=0.9, r=0.3, s=1.5))[0]


class TestNonlocalityVerdict:
    def test_verdict(self):
        assert table_verdict("nonlocal", WernerParams(p=0.9, r=2.0, s=2.0))[0]
        assert not table_verdict("nonlocal", WernerParams(p=0.5, r=2.0, s=2.0))[0]


class TestSqueezing:
    def test_analytic_variance(self):
        params = WernerParams(p=0.5, r=1.0, s=0.0)
        expected = 0.5 * math.exp(-2.0) + 0.5
        assert squeezing_variance_analytic(params) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize(
        "params",
        [
            WernerParams(p=0.5, r=1.0, s=0.0),
            WernerParams(p=0.5, r=0.5, s=0.5),
            WernerParams(p=0.9, r=2.0, s=2.0),
            WernerParams(p=0.0, r=0.0, s=1.0),
            WernerParams(p=0.5, r=3.0, s=2.0),  # 4096 levels
        ],
    )
    def test_direct_matches_analytic(self, params):
        analytic = squeezing_variance_analytic(params)
        direct = squeezing_variance_direct(params)
        assert abs(analytic - direct) < SQUEEZING_CONSISTENCY_TOL

    def test_dense_route_matches_analytic(self):
        params = WernerParams(p=0.5, r=0.4, s=0.3)
        rho = werner_state(params, FockCutoff(n_max=30, tail_bound=0.999))
        dense = squeezing_variance_dense(rho)
        assert dense == pytest.approx(squeezing_variance_analytic(params), abs=1e-8)

    def test_threshold_reduces_to_tanh_on_diagonal(self):
        for r in (0.5, 1.0, 2.0):
            assert squeezing_threshold(r, r) == pytest.approx(math.tanh(r), rel=1e-12)

    def test_threshold_boundary(self):
        # The variance crosses 1 exactly at the threshold probability.
        r, s = 1.0, 0.7
        thr = squeezing_threshold(r, s)
        assert squeezing_variance_analytic(WernerParams(p=thr, r=r, s=s)) == pytest.approx(1.0)

    def test_degenerate_limits(self):
        assert squeezing_threshold(0.0, 1.0) == 1.0
        assert squeezing_threshold(1.0, 0.0) == 0.0

    def test_published_threshold_disagrees_below_saturation(self):
        # The reference closed form replaces cosh(2s) - 1 = 4 sinh^2(s) ... / 2
        # by 4 n_bar + 1 terms; it coincides with the variance-derived
        # threshold only asymptotically, not at moderate parameters.
        r = s = 0.5
        published = published_squeezing_threshold(r, math.sinh(s) ** 2)
        derived = squeezing_threshold(r, s)
        assert abs(published - derived) > 0.1

    def test_published_lambda_form_matches_published(self):
        r = s = 0.8
        lam = math.tanh(r)
        a = published_squeezing_threshold(r, math.sinh(s) ** 2)
        b = published_squeezing_threshold_lambda_form(lam)
        assert a == pytest.approx(b, rel=1e-12)

    def test_verdict(self):
        squeezed = squeezing_criterion(WernerParams(p=0.9, r=1.0, s=0.3))
        assert squeezed.decision
        assert squeezed.method == "both"
        noisy = squeezing_criterion(WernerParams(p=0.2, r=1.0, s=1.0))
        assert not noisy.decision


def dense_squeezing_variance(params, n):
    """Var(x_A - x_B) by dense n x n quadrature algebra: the O(n^3) reference."""
    x = quadrature_x(n)
    l1 = params.lambda1
    amps = math.sqrt(1.0 - l1 * l1) * l1 ** np.arange(n)
    psi = np.diag(amps).astype(np.complex128)
    applied = x @ psi - psi @ x.T  # (x_A - x_B) |psi>, reshaped
    var_nopa = float((np.abs(applied) ** 2).sum())
    mean_nopa = np.einsum("mn,mn->", psi.conj(), applied).real

    l2 = params.lambda2
    probs = (1.0 - l2 * l2) * l2 ** (2 * np.arange(n))
    x2 = (x @ x).real
    mom2 = float(probs @ np.diagonal(x2))
    mom1 = float(probs @ np.diagonal(x).real)
    var_thermal = 2.0 * mom2 - 2.0 * mom1 * mom1

    mean = params.p * mean_nopa
    return params.p * var_nopa + (1.0 - params.p) * var_thermal - mean * mean


class TestBandedSqueezing:
    @pytest.mark.parametrize("n", [16, 64, 256])
    @pytest.mark.parametrize(
        "params",
        [
            WernerParams(p=0.5, r=0.0, s=1.0),
            WernerParams(p=0.3, r=1.0, s=0.0),
            WernerParams(p=1.0, r=0.0, s=0.0),
            WernerParams(p=0.7, r=1.2, s=1.2),
            WernerParams(p=0.9, r=2.0, s=0.4),
            WernerParams(p=0.2, r=0.5, s=2.0),
        ],
    )
    def test_matches_dense_reference(self, params, n):
        banded = squeezing_variance_direct(params, n_max=n)
        assert abs(banded - dense_squeezing_variance(params, n)) <= 1e-12

    def test_vacuum_variance_is_exactly_one(self):
        assert squeezing_variance_direct(WernerParams(p=1.0, r=0.0, s=0.0)) == 1.0
        assert squeezing_variance_direct(WernerParams(p=0.0, r=0.0, s=0.0)) == 1.0

    @pytest.mark.parametrize("r, s", [(0.0, 0.0), (1.0, 0.3), (2.4, 1.0), (3.0, 2.0)])
    def test_cutoff_is_smallest_power_of_two_within_tail(self, r, s):
        params = WernerParams(p=0.5, r=r, s=s)
        n = criteria._moment_cutoff(params)
        lam = max(params.lambda1, params.lambda2)
        assert n >= 16 and n & (n - 1) == 0
        assert criteria._moment_tail(lam, n) <= MOMENT_TAIL_BOUND
        if n > 16:
            assert criteria._moment_tail(lam, n // 2) > MOMENT_TAIL_BOUND

    def test_moment_tail_is_exact(self):
        lam, n = 0.8, 40
        k = np.arange(n, 4000)
        summed = float(((1 - lam * lam) * lam ** (2 * k) * (2 * k + 1)).sum())
        assert criteria._moment_tail(lam, n) == pytest.approx(summed, rel=1e-12)

    def test_past_ceiling_raises_typed_error(self):
        with pytest.raises(CutoffTooSmallError) as info:
            squeezing_criterion(WernerParams(p=0.5, r=9.0, s=1.0))
        assert info.value.minimal_n_max > MOMENT_LEVELS_CEILING
