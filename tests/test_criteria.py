"""Tests for the direct PPT spectrum, separability cells and squeezing."""

import math
import re
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvwerner.criteria import (
    SQUEEZING_CHECK_LEVELS,
    direct_entanglement_threshold,
    direct_threshold_pencil,
    enumerate_ppt_spectrum,
    largest_separable_p,
    ppt_spectrum_bruteforce,
    published_squeezing_threshold,
    published_squeezing_threshold_lambda_form,
    reconstruct_from_cells,
    squeezing_criterion,
    squeezing_threshold,
    squeezing_variance_analytic,
    squeezing_variance_direct,
)
from cvwerner import criteria, states
from cvwerner.cli import CRITERIA
from cvwerner.errors import ParameterRangeError
from cvwerner.fock_core import FockCutoff
from cvwerner.numerics import hermitian_eigenvalues
from cvwerner.qubit_map import mapped_entanglement_threshold
from cvwerner.states import WernerParams, werner_state
from cvwerner.tolerances import ORACLE_TOL, SQUEEZING_CONSISTENCY_TOL
from densify import dense

CUTOFF = FockCutoff(n_max=10, tail_bound=0.999)


def table_verdict(name, params):
    """(decision, threshold_p, margin) from the criterion table's eval line."""
    match = re.fullmatch(rf"{name}: (true|false) threshold_p=(\S+) margin=(\S+) method=\w+",
                         CRITERIA[name].line(params))
    return match[1] == "true", float(match[2]), float(match[3])


# Seeded (p, r, s) points, plus points where every pair-block weight past some
# k <= 200 underflows (q > 1 and q < 1) and the lambda = 0 edges.
_rng = np.random.default_rng(2024)
SEEDED_POINTS = [(float(p), float(r), float(s)) for p, r, s in
                 zip(_rng.uniform(0, 1, 40), _rng.uniform(0, 3, 40), _rng.uniform(0, 3, 40))]
SEEDED_POINTS += [(0.5, 0.01, 0.1), (0.5, 0.005, 0.1), (0.5, 0.0, 1.0), (0.5, 1.0, 0.0)]

# Agreement of the numpy forms with the scalar loops they replaced: numpy's
# float ** int-array may differ from Python's scalar ** by one ulp.
LOOP_REFERENCE_TOL = 4.5e-16


def enumerate_ppt_spectrum_reference(params, n_max):
    """The scalar loop over levels and pairs that enumerate_ppt_spectrum replaced."""
    vals = [sum(criteria._pair_terms(params, 2 * l)) for l in range(n_max)]
    for m in range(n_max):
        for n in range(m + 1, n_max):
            base, off = criteria._pair_terms(params, m + n)
            vals.append(base + off)
            vals.append(base - off)
    return np.sort(np.array(vals))


def dense_partial_transpose(rho):
    """The dense reshape-transpose partial_transpose_A replaced:
    result[(m,n),(m',n')] = rho[(m',n),(m,n')]."""
    d = rho.cutoff.dim
    return dense(rho.pattern, d).reshape((rho.n_max,) * 4).transpose(2, 1, 0, 3).reshape(d, d)


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestPptSpectrum:
    def test_block_values(self):
        # |2,2> sits at m+n = 4 and the pair (1, 2) at m+n = 3.
        params = WernerParams(p=0.5, r=1.0, s=0.7)
        p, l1, l2 = 0.5, math.tanh(1.0), math.tanh(0.7)
        expected_diag = p * (1 - l1 ** 2) * l1 ** 4 + (1 - p) * (1 - l2 ** 2) ** 2 * l2 ** 8
        assert sum(criteria._pair_terms(params, 4)) == pytest.approx(expected_diag, rel=1e-14)
        base = (1 - p) * (1 - l2 ** 2) ** 2 * l2 ** 6
        off = p * (1 - l1 ** 2) * l1 ** 3
        assert criteria._pair_terms(params, 3) == pytest.approx((base, off), rel=1e-14)

    def test_enumeration_matches_bruteforce(self):
        params = WernerParams(p=0.5, r=1.0, s=1.0)
        brute = ppt_spectrum_bruteforce(params, CUTOFF)
        analytic = enumerate_ppt_spectrum(params, CUTOFF.n_max)
        assert brute.size == analytic.size == CUTOFF.dim
        assert np.abs(brute - analytic).max() < 1e-12

    def test_bruteforce_at_large_cutoff(self):
        params = WernerParams(p=0.6, r=1.2, s=0.9)
        brute = ppt_spectrum_bruteforce(params, FockCutoff(n_max=32, tail_bound=0.999))
        analytic = enumerate_ppt_spectrum(params, 32)
        assert brute.size == analytic.size == 32 * 32
        assert np.abs(brute - analytic).max() < ORACLE_TOL

    def test_matches_numpy_oracle(self):
        params = WernerParams(p=0.7, r=0.8, s=1.2)
        rho = werner_state(params, CUTOFF)
        oracle = np.linalg.eigvalsh(dense_partial_transpose(rho))
        analytic = enumerate_ppt_spectrum(params, CUTOFF.n_max)
        assert np.abs(oracle - analytic).max() < 1e-12

    @pytest.mark.parametrize("n_max", [2, 12, 24, 32])
    @pytest.mark.parametrize("r, s", [(0.9, 0.6), (0.0, 0.6), (0.9, 0.0)])
    def test_bit_identical_to_dense_route(self, n_max, r, s):
        # The dense route: the whole matrix transposed, then scanned again.
        cutoff = FockCutoff(n_max=n_max, tail_bound=1.0 - 1e-15)
        for p in (0.0, 0.37, 1.0):
            params = WernerParams(p=p, r=r, s=s)
            transposed = dense_partial_transpose(werner_state(params, cutoff))
            reference = hermitian_eigenvalues(transposed).eigenvalues
            assert same_bits(ppt_spectrum_bruteforce(params, cutoff), reference), p

    @pytest.mark.parametrize("p, r, s", SEEDED_POINTS)
    def test_numpy_forms_match_scalar_loops(self, p, r, s):
        params = WernerParams(p=p, r=r, s=s)
        for n_max in (2, 7, 16):
            enumerated = enumerate_ppt_spectrum(params, n_max)
            reference = enumerate_ppt_spectrum_reference(params, n_max)
            assert enumerated.shape == reference.shape == (n_max * n_max,)
            assert np.abs(enumerated - reference).max() <= LOOP_REFERENCE_TOL


class TestDirectThreshold:
    def test_equal_parameters_entangle_for_all_p(self):
        # q = tanh r / tanh^2 s > 1 whenever r = s > 0.
        assert direct_entanglement_threshold(1.0, 1.0) == 0.0

    def test_weak_squeezing_regime(self):
        # q < 1: the infimum is attained at m + n = 1.
        threshold = direct_entanglement_threshold(0.5, 1.0)
        l1, l2 = math.tanh(0.5), math.tanh(1.0)
        therm = (1 - l2 ** 2) ** 2 * l2 ** 2
        nopa = (1 - l1 ** 2) * l1
        assert threshold == pytest.approx(therm / (therm + nopa), rel=1e-12)
        assert threshold == pytest.approx(0.21966, abs=1e-5)

    def test_marginal_regime(self):
        # lambda1 = lambda2^2 gives threshold (1 - lambda1) / 2.
        l1 = math.tanh(1.0) ** 2
        r = math.atanh(l1)
        # Floating-point round-trip may land infinitesimally on either side
        # of q = 1; the threshold value is continuous across the boundary.
        assert direct_entanglement_threshold(r, 1.0) == pytest.approx((1 - l1) / 2.0, rel=1e-9)

    def test_degenerate_limits(self):
        assert direct_entanglement_threshold(0.0, 1.0) == 1.0
        assert direct_entanglement_threshold(1.0, 0.0) == 0.0

    @pytest.mark.parametrize("r, s", [(1e-200, 1e-200), (1e-100, 1e-170)])
    def test_enumeration_where_tanh_s_squared_underflows(self, r, s):
        # tanh(s)^2 and every block weight past the first underflow to 0, so
        # q = tanh r / tanh^2 s is infinite and the limit is the q > 1 one.
        # The truncation's pencil sees a zero thermal floor under the k = 1
        # pair's coherence.
        assert direct_entanglement_threshold(r, s) == 0.0
        assert direct_entanglement_threshold(r, s, 4) == 0.0
        assert direct_threshold_pencil(r, s, 4) == 0.0

    def test_verdict(self):
        decision, threshold, margin = table_verdict("entangled_ppt_direct",
                                                    WernerParams(p=0.5, r=0.5, s=1.0))
        assert decision
        assert margin == pytest.approx(0.5 - threshold)
        assert not table_verdict("entangled_ppt_direct", WernerParams(p=0.1, r=0.5, s=1.0))[0]


# r and s on both sides of q = tanh r / tanh^2 s = 1, with the edges where
# tanh s or tanh^2 s underflows (a zero thermal floor).
PENCIL_RS = [0.0, 1e-200, 1e-10, 0.05, 0.3, 0.7, 1.0, 1.6, 2.5, 5.0]


class TestTruncatedDirectThreshold:
    """The truncation's closed form min(p_1, p_K), K = 2 n_max - 3, against
    the pencil of the truncated state's partial transpose."""

    @pytest.mark.parametrize("n_max", [4, 12, 24])
    def test_pencil_equals_closed_form(self, n_max):
        regimes = set()
        for r in PENCIL_RS:
            for s in PENCIL_RS:
                closed = direct_entanglement_threshold(r, s, n_max)
                assert abs(direct_threshold_pencil(r, s, n_max) - closed) <= 2.3e-16, (r, s)
                l1, l2 = math.tanh(r), math.tanh(s)
                if l1 and l2 * l2:
                    regimes.add(l1 / (l2 * l2) > 1.0)
        assert regimes == {False, True}

    @pytest.mark.parametrize("n_max, s", [(4, 4.75e-33), (12, 2.04e-8)])
    def test_subnormal_floor(self, n_max, s):
        # The thermal weight of the last pair block is subnormal, and its
        # coherence over it overflows: the threshold is below 1e-308.
        assert direct_threshold_pencil(2.0, s, n_max) == 0.0
        assert direct_entanglement_threshold(2.0, s, n_max) <= 1e-307

    @pytest.mark.parametrize("r, s, n_max", [(1e-10, 1e-5, 24), (1e-8, 1e-4, 24),
                                             (1e-12, 1e-6, 32)])
    def test_underflowed_last_block_against_mpmath(self, r, s, n_max):
        # Both weights of block K underflow to 0 in floats; p_K comes from
        # their ratio, near q = 1, not from the k -> infinity limit (0 here).
        with mpmath.workdps(50):
            l1, l2 = mpmath.tanh(mpmath.mpf(r)), mpmath.tanh(mpmath.mpf(s))

            def p_k(k):
                thermal = (1 - l2 ** 2) ** 2 * l2 ** (2 * k)
                return thermal / (thermal + (1 - l1 ** 2) * l1 ** k)

            exact = float(min(p_k(1), p_k(2 * n_max - 3)))
        value = direct_entanglement_threshold(r, s, n_max)
        assert abs(value - exact) <= 1e-13 * exact, (value, exact)

    def test_truncation_bounds_the_infinite_threshold(self):
        # The truncation drops the blocks past K, so its threshold is never
        # below the infimum over all blocks, and in the q > 1 regime it
        # falls towards the limit 0 as n_max grows.
        for r, s in [(0.5, 1.0), (1.0, 1.0), (2.0, 0.5)]:
            infinite = direct_entanglement_threshold(r, s)
            truncated = [direct_entanglement_threshold(r, s, n) for n in (4, 12, 24)]
            assert all(value >= infinite for value in truncated)
            assert truncated == sorted(truncated, reverse=True)
        assert direct_entanglement_threshold(0.5, 1.0, 12) == direct_entanglement_threshold(0.5, 1.0)

    def test_k_counts_only_pair_blocks(self):
        # K = 2 n_max - 3 is the largest m + n over pairs m < n < n_max;
        # the 1x1 block at 2 n_max - 2 never goes negative.
        l1, l2 = math.tanh(2.0), math.tanh(0.5)
        for n_max in (4, 12):
            expected = min(criteria._entanglement_p_k(l1, l2, k) for k in range(1, 2 * n_max - 2))
            assert direct_entanglement_threshold(2.0, 0.5, n_max) == expected
            assert direct_entanglement_threshold(2.0, 0.5, n_max) != min(
                expected, criteria._entanglement_p_k(l1, l2, 2 * n_max - 2))

    def test_cutoff_rule(self):
        for n_max in (1, 2.5):
            with pytest.raises(ParameterRangeError):
                direct_entanglement_threshold(1.0, 1.0, n_max)
            with pytest.raises(ParameterRangeError):
                direct_threshold_pencil(1.0, 1.0, n_max)


def block_thresholds(l1, l2, horizon=200):
    """The per-block entanglement and cell-positivity thresholds for
    k = 1 .. horizon, equal bit for bit to _entanglement_p_k and
    _positivity_p_k (test_block_thresholds_equal_scalar_per_k).

    Each weight is the table's k = 0 prefactor times Python's scalar power
    (numpy's float ** int-array may differ by an ulp), and every other step
    is one +, -, * or /, which numpy rounds as Python does. Blocks whose
    weights underflow take the scalar functions' limits.
    """
    ks = range(1, horizon + 1)
    therm_0, nopa_0 = criteria._block_weights(l1, l2, 0)
    cell_0 = criteria._block_weights(l1, l2, 0, cell=True)[0]
    therm = therm_0 * np.array([l2 ** (2 * k) for k in ks])
    nopa = nopa_0 * np.array([l1 ** k for k in ks])
    cell = cell_0 * np.array([l2 ** (4 * k) for k in ks])
    total = therm + nopa
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        entangle = (therm / total).tolist()
        positive = (1.0 / (1.0 + nopa * (1.0 - nopa) / cell)).tolist()
    for i in np.flatnonzero(total == 0.0):
        entangle[i] = criteria._entanglement_p_k(l1, l2, ks[i])
    for i in np.flatnonzero(cell == 0.0):
        positive[i] = criteria._positivity_p_k(l1, l2, ks[i])
    return entangle, positive


def enumerated_direct_reference(r, s, blocks):
    """The 200-term enumeration that direct_entanglement_threshold replaced,
    over ``blocks`` = block_thresholds(tanh r, tanh s)."""
    l1, l2 = math.tanh(r), math.tanh(s)
    if l1 == 0.0:
        return 1.0
    if l2 == 0.0:
        return 0.0
    q = l1 / (l2 * l2)
    enum = min(blocks[0])
    if q > 1.0:
        limit = 0.0
    elif q == 1.0:
        limit = (1.0 - l1) / 2.0
    else:
        limit = 1.0
    return min(enum, limit)


def enumerated_separable_reference(r, s, horizon=200, blocks=None):
    """The 200-term enumeration that largest_separable_p replaced.
    ``blocks`` is block_thresholds(tanh r, tanh s, horizon) when the caller
    has it already; the least of both lists is the least over k of the
    per-k minimum, exactly."""
    l1, l2 = math.tanh(r), math.tanh(s)
    if l1 == 0.0:
        return 1.0
    if l2 == 0.0:
        return 0.0
    entangle, positive = blocks if blocks is not None else block_thresholds(l1, l2, horizon)
    best = min(min(entangle), min(positive))
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
    @pytest.mark.parametrize("p, r, s", SEEDED_POINTS)
    def test_block_thresholds_equal_scalar_per_k(self, p, r, s):
        l1, l2 = math.tanh(r), math.tanh(s)
        ks = range(1, 201)
        assert block_thresholds(l1, l2) == ([criteria._entanglement_p_k(l1, l2, k) for k in ks],
                                            [criteria._positivity_p_k(l1, l2, k) for k in ks])

    def test_equal_to_enumeration_on_grid(self):
        grid = [float(v) for v in np.linspace(0.01, 3.0, 120)]
        interior = 0
        for r in grid:
            for s in grid:
                direct = direct_entanglement_threshold(r, s)
                separable = largest_separable_p(r, s)
                blocks = block_thresholds(math.tanh(r), math.tanh(s))
                assert direct == enumerated_direct_reference(r, s, blocks), (r, s)
                assert separable == enumerated_separable_reference(r, s, blocks=blocks), (r, s)
                interior += separable < min(blocks[0][0], blocks[1][0])
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
    """The p interval (direct, mapped], entangled yet PPT after mapping."""

    def test_strong_gap_exactly_when_tanh_r_exceeds_tanh_sq_s(self):
        for r in (0.2, 0.7, 1.5):
            for s in (0.2, 0.7, 1.5):
                direct = direct_entanglement_threshold(r, s)
                mapped = mapped_entanglement_threshold(r, s)
                assert (direct == 0.0 < mapped) == (math.tanh(r) > math.tanh(s) ** 2)

    def test_interval_orientation(self):
        assert direct_entanglement_threshold(1.0, 1.0) == 0.0
        assert mapped_entanglement_threshold(1.0, 1.0) > 0.0


def cell_alpha(params, m, n):
    """alpha = p c_k^2 + (1 - p) b_k of the (m, n) cell, k = m + n."""
    thermal, coherence = criteria._block_weights(params.lambda1, params.lambda2, m + n,
                                                 cell=True, thermal=1 - params.p)
    return params.p * coherence ** 2 + thermal


def cell_gamma_beta(params, m, n):
    """gamma = (1 - p) t_k and beta = p c_k of the (m, n) cell, k = m + n."""
    return criteria._block_weights(params.lambda1, params.lambda2, m + n,
                                   thermal=1 - params.p, nopa=params.p)


def reconstruct_from_cells_reference(params, n_max):
    """The scalar double loop over (m, n) that reconstruct_from_cells replaced."""
    data = np.zeros((n_max * n_max, n_max * n_max), dtype=np.complex128)
    p, l1, l2 = params.p, params.lambda1, params.lambda2
    a_weight = p * (1 - l1 * l1) ** 2
    b_weight = (1 - p) * (1 - l2 * l2) ** 2 * (1 - l2 ** 4)

    def flat(m, n):
        return m * n_max + n

    for m in range(n_max):
        partners = (a_weight * l1 ** (2 * m) / (1 - l1 * l1)
                    + b_weight * l2 ** (4 * m) / (1 - l2 ** 4) - cell_alpha(params, m, m))
        data[flat(m, m), flat(m, m)] = cell_alpha(params, m, m) + partners
    for m in range(n_max):
        for n in range(n_max):
            if m == n:
                continue
            gamma, beta = cell_gamma_beta(params, m, n)
            data[flat(m, n), flat(m, n)] = gamma
            data[flat(m, m), flat(n, n)] += 0.5 * beta
            data[flat(n, n), flat(m, m)] += 0.5 * beta
    return data


def reconstruct_from_cells_dense(params, n_max):
    """The d x d reconstruction that the triplets replaced: every flat index
    takes gamma on its diagonal, then the alpha-sums and beta are written."""
    d = n_max * n_max
    data = np.zeros((d, d))
    levels = np.arange(n_max)
    pairs = levels * (n_max + 1)
    m, n = np.divmod(np.arange(d), n_max)
    data.reshape(-1)[:: d + 1] = criteria._pair_terms(params, m + n)[0]
    thermal, coherence = criteria._block_weights(params.lambda1, params.lambda2, levels, cell=True)
    data[pairs, pairs] = (params.p * coherence ** 2 / (1 - (coherence[1] / coherence[0]) ** 2)
                          + (1 - params.p) * thermal / (1 - thermal[1] / thermal[0]))
    m, n = np.triu_indices(n_max, 1)
    data[pairs[m], pairs[n]] = data[pairs[n], pairs[m]] = criteria._pair_terms(params, m + n)[1]
    return data


class TestSeparabilityCells:
    def test_reconstruction_is_exact(self):
        params = WernerParams(p=0.5, r=1.0, s=1.0)
        rho = werner_state(params, CUTOFF)
        rebuilt = dense(reconstruct_from_cells(params, CUTOFF.n_max), CUTOFF.dim)
        assert np.abs(rebuilt - dense(rho.pattern, CUTOFF.dim)).max() < 1e-10

    @pytest.mark.parametrize("p, r, s", SEEDED_POINTS)
    def test_reconstruction_matches_scalar_loop(self, p, r, s):
        params = WernerParams(p=p, r=r, s=s)
        for n_max in (2, 7, 12):
            rebuilt = dense(reconstruct_from_cells(params, n_max), n_max * n_max)
            assert np.abs(rebuilt - reconstruct_from_cells_reference(params, n_max)).max() <= 1e-15

    @pytest.mark.parametrize("n_max", [2, 3, 12, 32])
    def test_triplets_are_the_dense_reconstruction(self, n_max):
        # Bit for bit on the state's positions, exact zeros dropped (s = 1e-20
        # underflows the thermal products), and nothing anywhere else.
        edges = [(0.0, 0.7, 0.4), (1.0, 0.7, 0.4), (0.5, 0.0, 0.4), (0.5, 1.0, 1e-20),
                 (1.0, 0.0, 1e-20)]
        for p, r, s in SEEDED_POINTS[:12] + edges:
            params = WernerParams(p=p, r=r, s=s)
            rows, cols, values = reconstruct_from_cells(params, n_max)
            layout = states._werner_layout(np.ones((n_max, n_max)), np.ones(n_max ** 2))
            assert np.isin(rows * n_max ** 2 + cols, layout[0] * n_max ** 2 + layout[1]).all()
            reference = reconstruct_from_cells_dense(params, n_max)
            assert values.dtype == np.float64 and values.all()
            assert (values.view(np.int64) == reference[rows, cols].view(np.int64)).all()
            reference[rows, cols] = 0.0
            assert not reference.any()

    def test_no_dense_matrix_is_made(self):
        # The reconstruction is at most 2 n_max^2 - n_max triplets: at
        # n_max = 64 a dense float64 matrix would take 134 MB.
        params = WernerParams(p=0.5, r=1.0, s=1.0)
        reconstruct_from_cells(params, 64)
        tracemalloc.start()
        try:
            rows = reconstruct_from_cells(params, 64)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows.size == 2 * 64 ** 2 - 64
        assert peak < 2e6

    def test_cell_weights_sum_to_one(self):
        params = WernerParams(p=0.4, r=0.9, s=1.1)
        horizon = 400
        m, n = np.divmod(np.arange(horizon * horizon), horizon)
        # P_m = alpha(m, m) on the diagonal, alpha + gamma off it.
        total = cell_alpha(params, m, n).sum() + cell_gamma_beta(params, m, n)[0][m != n].sum()
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_separable_bound_below_entanglement_threshold(self):
        for r, s in [(0.3, 1.0), (0.2, 1.5), (0.5, 1.2)]:
            sep = largest_separable_p(r, s)
            ent = direct_entanglement_threshold(r, s)
            assert sep <= ent + 1e-12

    def test_equal_parameters_have_no_certified_region(self):
        # q > 1 whenever r = s > 0, so the certificate degenerates to p = 0.
        assert largest_separable_p(1.0, 1.0) == 0.0

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
            WernerParams(p=0.5, r=3.0, s=2.0),
        ],
    )
    def test_direct_matches_analytic(self, params):
        # 4096 levels leave a tail below 1e-16 at every point here.
        analytic = squeezing_variance_analytic(params)
        direct = squeezing_variance_direct(params, n_max=4096)
        assert abs(analytic - direct) < 1e-6

    def test_dense_route_matches_analytic(self):
        # Anchors the dense reference of TestBandedSqueezing to the closed form.
        params = WernerParams(p=0.5, r=0.4, s=0.3)
        dense = dense_squeezing_variance(params, 30)
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

    @pytest.mark.parametrize("r, s", [(1e-100, 1e-100), (1e-17, 1e-9), (1e-15, 1e-9),
                                      (1e-8, 3.0), (0.3, 1e-5), (1.0, 0.7), (5.0, 5.0)])
    def test_threshold_matches_high_precision(self, r, s):
        # cosh 2s - 1 and cosh 2s - e^{-2r} both cancel in double precision
        # when r and s are tiny; the 50-digit value is the reference.
        assert squeezing_threshold(r, s) == pytest.approx(
            mpmath_squeezing_threshold(r, s), rel=1e-14)

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

    @pytest.mark.parametrize("r, n_thermal", [(-1.0, 0.0), (math.nan, 0.0), (1.0, -0.5)])
    def test_published_threshold_range(self, r, n_thermal):
        with pytest.raises(ParameterRangeError):
            published_squeezing_threshold(r, n_thermal)

    @pytest.mark.parametrize("lam", [-0.5, 1.0, math.nan])
    def test_published_lambda_form_range(self, lam):
        with pytest.raises(ParameterRangeError):
            published_squeezing_threshold_lambda_form(lam)

    def test_verdict(self):
        squeezed = squeezing_criterion(WernerParams(p=0.9, r=1.0, s=0.3))
        assert squeezed.decision
        assert squeezed.method == "both"
        noisy = squeezing_criterion(WernerParams(p=0.2, r=1.0, s=1.0))
        assert not noisy.decision


def mpmath_squeezing_threshold(r, s):
    """(cosh 2s - 1) / (cosh 2s - e^{-2r}), correct to 50 significant digits.

    Both differences cancel about 2 log10(1/s) and log10(1/r) digits, at
    most 200 here, so 500 working digits leave more than 50.
    """
    import mpmath

    with mpmath.workdps(500):
        c = mpmath.cosh(2 * mpmath.mpf(s))
        return float((c - 1) / (c - mpmath.exp(-2 * mpmath.mpf(r))))


def quadrature_x(n_max):
    """Position quadrature matrix on a truncated single mode."""
    a = np.diag(np.sqrt(np.arange(1, n_max)), 1).astype(np.complex128)
    return (a + a.conj().T) / math.sqrt(2.0)


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


def mpmath_truncated_squeezing_variance(params, n):
    """The banded sums of squeezing_variance_direct term by term in 50
    digits, from the same double-precision lambdas."""
    import mpmath

    with mpmath.workdps(50):
        l1, l2 = mpmath.mpf(params.lambda1), mpmath.mpf(params.lambda2)
        x, y = l1 * l1, l2 * l2
        nopa = (1 - l1) ** 2 * (1 - x) * mpmath.fsum(i * x ** (i - 1) for i in range(1, n))
        thermal = ((1 - y) * mpmath.fsum(y ** k * (2 * k + 1) for k in range(n))
                   - n * (1 - y) * y ** (n - 1))
        return float(params.p * nopa + (1 - params.p) * thermal)


class TestTruncatedSqueezing:
    @pytest.mark.parametrize("p", [0.0, 0.37, 1.0])
    @pytest.mark.parametrize("r, s", [(0.0, 0.0), (0.5, 1.0), (1.0, 0.5), (2.0, 2.0),
                                      (2.5, 0.3), (0.2, 2.5)])
    def test_equals_analytic_where_tail_is_negligible(self, p, r, s):
        n = 4096
        lam = max(math.tanh(r), math.tanh(s))
        # Second-moment tail sum_{k>=n} (1 - l^2) l^{2k} (2k + 1).
        tail = lam ** (2 * n) * ((2 * n + 1) + 2 * lam * lam / (1 - lam * lam))
        assert tail < 1e-16
        params = WernerParams(p=p, r=r, s=s)
        assert criteria._truncated_squeezing_variance(params, n) == pytest.approx(
            squeezing_variance_analytic(params), rel=1e-12)

    @pytest.mark.parametrize("p, r, s", [(0.37, 1.0, 1.0), (0.37, 5.0, 5.0), (0.0, 0.0, 12.0),
                                         (0.5, 19.0, 19.0), (0.2, 0.5, 2.5), (1.0, 3.0, 0.0)])
    def test_matches_50_digit_sum(self, p, r, s):
        # At s = 12, (1 - y^m) / (1 - y) in place of expm1 is off by ~6e-7.
        params = WernerParams(p=p, r=r, s=s)
        n = SQUEEZING_CHECK_LEVELS
        assert abs(criteria._truncated_squeezing_variance(params, n)
                   - mpmath_truncated_squeezing_variance(params, n)) <= 1e-13

    @settings(max_examples=300, deadline=None)
    @given(p=st.floats(0.0, 1.0), r=st.floats(0.0, 19.0), s=st.floats(0.0, 19.0))
    def test_banded_equals_truncated_closed_form(self, p, r, s):
        params = WernerParams(p=p, r=r, s=s)
        squeezing_criterion(params)
        assert abs(squeezing_variance_direct(params) - criteria._truncated_squeezing_variance(
            params, SQUEEZING_CHECK_LEVELS)) <= SQUEEZING_CONSISTENCY_TOL
