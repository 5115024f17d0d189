"""Tests for the Werner-family state constructors and cutoff selection."""

import math

import numpy as np
import pytest

from cvwerner.errors import CutoffTooSmallError, ParameterRangeError
from cvwerner.fock_core import CompositeIndex, FockCutoff
from cvwerner.states import (
    WernerParams,
    nopa_state,
    select_cutoff,
    symmetric_params,
    thermal_product_state,
    thermal_single_mode,
    werner_state,
)

LOOSE = FockCutoff(n_max=12, tail_bound=0.999)


class TestWernerParams:
    def test_lambdas(self):
        params = WernerParams(p=0.5, r=1.0, s=0.5)
        assert params.lambda1 == pytest.approx(math.tanh(1.0))
        assert params.lambda2 == pytest.approx(math.tanh(0.5))
        assert params.mean_thermal_photons == pytest.approx(math.sinh(0.5) ** 2)

    def test_symmetric(self):
        params = symmetric_params(0.3, 1.2)
        assert params.r == params.s == 1.2

    def test_validation(self):
        with pytest.raises(ValueError):
            WernerParams(p=1.5, r=1.0, s=1.0)
        with pytest.raises(ValueError):
            WernerParams(p=0.5, r=-0.1, s=1.0)

    @pytest.mark.parametrize(
        "p, r, s",
        [(math.nan, 1.0, 1.0), (0.5, math.nan, 1.0), (0.5, 1.0, math.inf),
         (0.5, math.inf, 1.0), (0.5, 20.0, 1.0), (0.5, 1.0, 19.5)],
    )
    def test_non_finite_and_saturating_rejected(self, p, r, s):
        with pytest.raises(ParameterRangeError):
            WernerParams(p=p, r=r, s=s)

    def test_largest_unsaturated_point_accepted(self):
        params = WernerParams(p=0.5, r=18.0, s=18.0)
        assert params.lambda1 < 1.0


class TestNopaState:
    def test_entries(self):
        # <m,m| rho |n,n> = (1 - lam^2) lam^(m+n) with lam = tanh r.
        rho = nopa_state(1.0, LOOSE)
        lam = math.tanh(1.0)
        i12 = CompositeIndex.from_modes(1, 1, 12).flat
        j12 = CompositeIndex.from_modes(2, 2, 12).flat
        assert rho.data[i12, j12].real == pytest.approx((1 - lam ** 2) * lam ** 3)
        assert rho.data[i12, j12].real == pytest.approx(0.18552, abs=1e-5)

    def test_off_diagonal_support(self):
        # Only |m,m><n,n| entries are populated.
        rho = nopa_state(0.8, LOOSE)
        mask = np.abs(rho.data) > 0
        for flat_i in range(LOOSE.dim):
            for flat_j in range(LOOSE.dim):
                if mask[flat_i, flat_j]:
                    i = CompositeIndex.from_flat(flat_i, 12)
                    j = CompositeIndex.from_flat(flat_j, 12)
                    assert i.m == i.n and j.m == j.n

    def test_trace_deficit_is_geometric_tail(self):
        rho = nopa_state(1.0, LOOSE)
        assert rho.trace_deficit == pytest.approx(math.tanh(1.0) ** 24, rel=1e-12)
        assert np.trace(rho.data).real == pytest.approx(1.0 - rho.trace_deficit)

    def test_vacuum_limit(self):
        rho = nopa_state(0.0, FockCutoff(n_max=4, tail_bound=1e-12))
        expected = np.zeros((16, 16))
        expected[0, 0] = 1.0
        assert np.abs(rho.data - expected).max() == 0.0

    def test_cutoff_too_small(self):
        with pytest.raises(CutoffTooSmallError) as err:
            nopa_state(2.0, FockCutoff(n_max=6, tail_bound=1e-10))
        assert err.value.minimal_n_max > 6


class TestThermalStates:
    def test_single_mode_entry(self):
        # diag((1 - lam^2) lam^(2k)); at lam = 0.5, k = 1: 0.75 * 0.25.
        s = math.atanh(0.5)
        single = thermal_single_mode(s, 8)
        assert single[1, 1].real == pytest.approx(0.75 * 0.25)

    def test_product_entry(self):
        # diagonal (m, n) entry is (1 - lam^2)^2 lam^(2(m+n)).
        s = math.atanh(0.5)
        rho = thermal_product_state(s, LOOSE)
        i11 = CompositeIndex.from_modes(1, 1, 12).flat
        assert rho.data[i11, i11].real == pytest.approx(0.03515625)

    def test_product_entry_at_s_one(self):
        rho = thermal_product_state(1.0, LOOSE)
        i01 = CompositeIndex.from_modes(0, 1, 12).flat
        assert rho.data[i01, i01].real == pytest.approx(0.102304, abs=1e-6)

    def test_is_diagonal(self):
        rho = thermal_product_state(0.7, LOOSE)
        assert np.abs(rho.data - np.diag(np.diagonal(rho.data))).max() == 0.0

    def test_trace_deficit(self):
        rho = thermal_product_state(1.0, LOOSE)
        lam = math.tanh(1.0)
        kept = 1.0 - lam ** 24
        assert rho.trace_deficit == pytest.approx(1.0 - kept * kept, rel=1e-12)


class TestWernerState:
    def test_mixture_entries(self):
        params = WernerParams(p=0.5, r=1.0, s=1.0)
        rho = werner_state(params, LOOSE)
        lam = math.tanh(1.0)
        i00 = CompositeIndex.from_modes(0, 0, 12).flat
        i11 = CompositeIndex.from_modes(1, 1, 12).flat
        i01 = CompositeIndex.from_modes(0, 1, 12).flat
        assert rho.data[i00, i11].real == pytest.approx(0.5 * (1 - lam ** 2) * lam)
        assert rho.data[i00, i11].real == pytest.approx(0.15993, abs=1e-5)
        assert rho.data[i01, i01].real == pytest.approx(0.051152, abs=1e-6)

    def test_deficit_is_weighted_sum(self):
        params = WernerParams(p=0.3, r=0.8, s=1.1)
        rho = werner_state(params, LOOSE)
        nopa = nopa_state(0.8, LOOSE)
        thermal = thermal_product_state(1.1, LOOSE)
        expected = 0.3 * nopa.trace_deficit + 0.7 * thermal.trace_deficit
        assert rho.trace_deficit == pytest.approx(expected, rel=1e-12)

    def test_pure_limits(self):
        cutoff = FockCutoff(n_max=10, tail_bound=0.999)
        nopa = werner_state(WernerParams(p=1.0, r=0.9, s=1.7), cutoff)
        assert np.abs(nopa.data - nopa_state(0.9, cutoff).data).max() == 0.0
        thermal = werner_state(WernerParams(p=0.0, r=0.9, s=1.7), cutoff)
        assert np.abs(thermal.data - thermal_product_state(1.7, cutoff).data).max() == 0.0

    def test_cutoff_too_small(self):
        with pytest.raises(CutoffTooSmallError):
            werner_state(WernerParams(p=0.5, r=1.0, s=1.0),
                         FockCutoff(n_max=6, tail_bound=1e-10))


class TestSelectCutoff:
    def test_reference_point(self):
        # r = s = 1 at tail_bound 1e-10 needs tanh(1)^(2 n) <= 5e-11.
        cutoff = select_cutoff(WernerParams(p=1.0, r=1.0, s=1.0), 1e-10)
        assert cutoff.n_max == 44

    def test_result_is_even(self):
        for r in (0.3, 0.7, 1.1):
            cutoff = select_cutoff(WernerParams(p=0.5, r=r, s=r), 1e-8)
            assert cutoff.n_max % 2 == 0

    def test_selected_cutoff_admits_the_state(self):
        params = WernerParams(p=0.5, r=1.0, s=1.2)
        cutoff = select_cutoff(params, 1e-9)
        rho = werner_state(params, cutoff)
        assert rho.trace_deficit <= 1e-9

    def test_out_of_range(self):
        with pytest.raises(ParameterRangeError):
            select_cutoff(WernerParams(p=0.5, r=5.0, s=5.0), 1e-10)

    def test_invalid_tail_bound(self):
        with pytest.raises(ValueError):
            select_cutoff(WernerParams(p=0.5, r=1.0, s=1.0), 0.0)
