"""Tests for the Werner-family state constructors and their cutoff checks."""

import math
import tracemalloc

import numpy as np
import pytest

from cvwerner import criteria, qubit_map, states, teleport
from cvwerner.errors import CutoffTooSmallError, CvWernerError, ParameterRangeError
from cvwerner.fock_core import FockCutoff
from cvwerner.numerics import _nonzero_pattern
from cvwerner.states import WernerParams, werner_state
from densify import dense

LOOSE = FockCutoff(n_max=12, tail_bound=0.999)
POINT = WernerParams(p=0.5, r=0.7, s=0.4)


def nopa(r, cutoff):
    """The squeezed vacuum: the Werner state at p = 1."""
    return werner_state(WernerParams(p=1.0, r=r, s=0.0), cutoff)


def thermal_product(s, cutoff):
    """The thermal product: the Werner state at p = 0."""
    return werner_state(WernerParams(p=0.0, r=0.0, s=s), cutoff)


def least_thermal_levels(lam, bound):
    """Least n with 1 - (1 - lam^(2n))^2 <= bound, i.e.
    lam^(2n) <= 1 - sqrt(1 - bound)."""
    x = bound / (1.0 + math.sqrt(1.0 - bound))
    return math.ceil(math.log(x) / (2.0 * math.log(lam)))


def least_nopa_levels(lam, bound):
    """Least n with lam^(2n) <= bound."""
    return math.ceil(math.log(bound) / (2.0 * math.log(lam)))


def thermal_single_mode(s, n_max):
    """Single-mode thermal matrix diag((1-lam^2) lam^(2k)), lam = tanh s."""
    lam = math.tanh(s)
    probs = (1.0 - lam * lam) * lam ** (2 * np.arange(n_max))
    return np.diag(probs).astype(np.complex128)


def dense_reference(p, r, s, n_max):
    """(NOPA, thermal product, mixture) matrices built densely: the outer
    product of two n_max^2-vectors, the Kronecker product of two thermal
    matrices and their weighted sum."""
    lam1 = math.tanh(r)
    amps = math.sqrt(1.0 - lam1 * lam1) * lam1 ** np.arange(n_max)
    vec = np.zeros(n_max * n_max, dtype=np.complex128)
    vec[np.arange(n_max) * n_max + np.arange(n_max)] = amps
    nopa = np.outer(vec, vec.conj())
    single = thermal_single_mode(s, n_max)
    thermal = np.kron(single, single)
    return nopa, thermal, p * nopa + (1.0 - p) * thermal


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestWernerParams:
    def test_lambdas(self):
        params = WernerParams(p=0.5, r=1.0, s=0.5)
        assert params.lambda1 == pytest.approx(math.tanh(1.0))
        assert params.lambda2 == pytest.approx(math.tanh(0.5))

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


@pytest.mark.parametrize("call", [
    pytest.param(lambda: WernerParams(p=1.5, r=1.0, s=1.0), id="p-above-1"),
    pytest.param(lambda: WernerParams(p=-0.1, r=1.0, s=1.0), id="p-below-0"),
    pytest.param(lambda: WernerParams(p=0.5, r=-0.1, s=1.0), id="r-negative"),
    pytest.param(lambda: WernerParams(p=0.5, r=1.0, s=-0.1), id="s-negative"),
    pytest.param(lambda: teleport.fidelity_werner(2, 1, 1), id="fidelity_werner-p"),
    pytest.param(lambda: qubit_map.nonlocality_threshold(-1, 1), id="nonlocality-r"),
    pytest.param(lambda: qubit_map.mapped_entanglement_threshold(1, -1), id="mapped-s"),
    pytest.param(lambda: FockCutoff(n_max=1), id="cutoff-n_max"),
    pytest.param(lambda: FockCutoff(n_max=4, tail_bound=1.0), id="cutoff-tail_bound"),
    pytest.param(lambda: qubit_map.build_spin_operators(5), id="spin-odd-n_max"),
    pytest.param(lambda: qubit_map.map_to_qubits(werner_state(
        WernerParams(p=0.5, r=0.5, s=0.5), FockCutoff(n_max=5, tail_bound=0.999))),
        id="map-odd-n_max"),
    # Every level count meets one cutoff rule: an integer >= 2, even where
    # levels are paired into qubits.
    pytest.param(lambda: werner_state(POINT, FockCutoff(n_max=2.5)), id="cutoff-float"),
    pytest.param(lambda: FockCutoff(n_max="4"), id="cutoff-str"),
    pytest.param(lambda: FockCutoff(n_max=True), id="cutoff-bool"),
    pytest.param(lambda: criteria.enumerate_ppt_spectrum(POINT, 1.5), id="enumerate-float"),
    pytest.param(lambda: criteria.enumerate_ppt_spectrum(POINT, 0), id="enumerate-0"),
    pytest.param(lambda: criteria.reconstruct_from_cells(POINT, 1), id="cells-1"),
    pytest.param(lambda: qubit_map.closed_form_two_qubit(POINT, n_max=3), id="closed-form-odd"),
    pytest.param(lambda: qubit_map.closed_form_two_qubit(POINT, n_max=0), id="closed-form-0"),
    pytest.param(lambda: criteria.squeezing_variance_direct(POINT, n_max=1), id="squeezing-1"),
    pytest.param(lambda: criteria.squeezing_variance_direct(POINT, n_max=0), id="squeezing-0"),
    pytest.param(lambda: qubit_map.build_spin_operators(4.0), id="spin-float"),
])
def test_out_of_range_inputs_raise_typed_errors(call):
    # ParameterRangeError is a ValueError too, so callers catching either work.
    with pytest.raises(CvWernerError) as info:
        call()
    assert isinstance(info.value, ParameterRangeError)
    assert isinstance(info.value, ValueError)


def test_cutoff_rule_accepts_numpy_integers():
    n = np.int64(4)
    assert FockCutoff(n_max=n).dim == 16
    assert criteria.enumerate_ppt_spectrum(POINT, n).size == 16
    assert np.array_equal(qubit_map.closed_form_two_qubit(POINT, n_max=n),
                          qubit_map.closed_form_two_qubit(POINT, n_max=4))
    assert (criteria.squeezing_variance_direct(POINT, n_max=n)
            == criteria.squeezing_variance_direct(POINT, n_max=4))


RS_FUNCTIONS = {
    "direct": criteria.direct_entanglement_threshold,
    "direct_pencil": lambda r, s: criteria.direct_threshold_pencil(r, s, 4),
    "separable": criteria.largest_separable_p,
    "squeezing": criteria.squeezing_threshold,
    "mapped": qubit_map.mapped_entanglement_threshold,
    "mapped_pencil": qubit_map.mapped_threshold_pencil,
    "nonlocal": qubit_map.nonlocality_threshold,
    "fidelity_werner": lambda r, s: teleport.fidelity_werner(0.5, r, s),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0, 20.0])
@pytest.mark.parametrize("name", list(RS_FUNCTIONS))
def test_rs_functions_share_the_params_range(name, value):
    # The range WernerParams accepts for r and s, no wider: NaN, inf, a
    # negative value or a saturating tanh raise instead of returning a
    # number (NaN, a negative p, or 1.0 for every p).
    function = RS_FUNCTIONS[name]
    with pytest.raises(ParameterRangeError):
        function(value, 1.0)
    with pytest.raises(ParameterRangeError):
        function(1.0, value)


class TestNopaState:
    """The Werner state at p = 1."""

    def test_entries(self):
        # <m,m| rho |n,n> = (1 - lam^2) lam^(m+n) with lam = tanh r.
        rho = dense(nopa(1.0, LOOSE).pattern, LOOSE.dim)
        lam = math.tanh(1.0)
        i12 = 1 * 12 + 1
        j12 = 2 * 12 + 2
        assert rho[i12, j12].real == pytest.approx((1 - lam ** 2) * lam ** 3)
        assert rho[i12, j12].real == pytest.approx(0.18552, abs=1e-5)

    def test_off_diagonal_support(self):
        # Only |m,m><n,n| entries are populated.
        mask = np.abs(dense(nopa(0.8, LOOSE).pattern, LOOSE.dim)) > 0
        for flat_i in range(LOOSE.dim):
            for flat_j in range(LOOSE.dim):
                if mask[flat_i, flat_j]:
                    assert flat_i // 12 == flat_i % 12 and flat_j // 12 == flat_j % 12

    def test_trace_deficit_is_geometric_tail(self):
        rho = nopa(1.0, LOOSE)
        assert rho.trace_deficit == pytest.approx(math.tanh(1.0) ** 24, rel=1e-12)
        assert np.trace(dense(rho.pattern, LOOSE.dim)).real == pytest.approx(
            1.0 - rho.trace_deficit)

    def test_vacuum_limit(self):
        rho = nopa(0.0, FockCutoff(n_max=4, tail_bound=1e-12))
        expected = np.zeros((16, 16))
        expected[0, 0] = 1.0
        assert np.abs(dense(rho.pattern, 16) - expected).max() == 0.0

    def test_cutoff_too_small(self):
        with pytest.raises(CutoffTooSmallError, match="tail"):
            nopa(2.0, FockCutoff(n_max=6, tail_bound=1e-10))


class TestThermalStates:
    """The thermal product is the Werner state at p = 0."""

    def test_single_mode_entry(self):
        # diag((1 - lam^2) lam^(2k)); at lam = 0.5, k = 1: 0.75 * 0.25.
        s = math.atanh(0.5)
        single = thermal_single_mode(s, 8)
        assert single[1, 1].real == pytest.approx(0.75 * 0.25)

    def test_product_entry(self):
        # diagonal (m, n) entry is (1 - lam^2)^2 lam^(2(m+n)).
        s = math.atanh(0.5)
        rho = dense(thermal_product(s, LOOSE).pattern, LOOSE.dim)
        i11 = 1 * 12 + 1
        assert rho[i11, i11].real == pytest.approx(0.03515625)

    def test_product_entry_at_s_one(self):
        rho = dense(thermal_product(1.0, LOOSE).pattern, LOOSE.dim)
        i01 = 0 * 12 + 1
        assert rho[i01, i01].real == pytest.approx(0.102304, abs=1e-6)

    def test_is_diagonal(self):
        rho = dense(thermal_product(0.7, LOOSE).pattern, LOOSE.dim)
        assert np.abs(rho - np.diag(np.diagonal(rho))).max() == 0.0

    def test_trace_deficit(self):
        rho = thermal_product(1.0, LOOSE)
        lam = math.tanh(1.0)
        kept = 1.0 - lam ** 24
        assert rho.trace_deficit == pytest.approx(1.0 - kept * kept, rel=1e-12)


class TestWernerState:
    def test_mixture_entries(self):
        params = WernerParams(p=0.5, r=1.0, s=1.0)
        rho = dense(werner_state(params, LOOSE).pattern, LOOSE.dim)
        lam = math.tanh(1.0)
        i00, i11, i01 = 0 * 12 + 0, 1 * 12 + 1, 0 * 12 + 1
        assert rho[i00, i11].real == pytest.approx(0.5 * (1 - lam ** 2) * lam)
        assert rho[i00, i11].real == pytest.approx(0.15993, abs=1e-5)
        assert rho[i01, i01].real == pytest.approx(0.051152, abs=1e-6)

    def test_deficit_is_weighted_sum(self):
        params = WernerParams(p=0.3, r=0.8, s=1.1)
        rho = werner_state(params, LOOSE)
        expected = (0.3 * nopa(0.8, LOOSE).trace_deficit
                    + 0.7 * thermal_product(1.1, LOOSE).trace_deficit)
        assert rho.trace_deficit == pytest.approx(expected, rel=1e-12)

    def test_pure_limits(self):
        # At p = 1 the thermal parameter drops out, at p = 0 the squeezing.
        cutoff = FockCutoff(n_max=10, tail_bound=0.999)
        pure = werner_state(WernerParams(p=1.0, r=0.9, s=1.7), cutoff)
        assert np.abs(dense(pure.pattern, cutoff.dim)
                      - dense(nopa(0.9, cutoff).pattern, cutoff.dim)).max() == 0.0
        thermal = werner_state(WernerParams(p=0.0, r=0.9, s=1.7), cutoff)
        assert np.abs(dense(thermal.pattern, cutoff.dim)
                      - dense(thermal_product(1.7, cutoff).pattern, cutoff.dim)).max() == 0.0

    def test_cutoff_too_small(self):
        with pytest.raises(CutoffTooSmallError):
            werner_state(WernerParams(p=0.5, r=1.0, s=1.0),
                         FockCutoff(n_max=6, tail_bound=1e-10))

    # At s = 1e-5 the thermal products of high levels underflow to 0, and
    # at r = 1e-10 so do the coherences between them: the pattern drops
    # those entries as the dense scan does.
    @pytest.mark.parametrize("n_max", [2, 12, 24, 32])
    @pytest.mark.parametrize("r, s", [(0.9, 0.6), (0.0, 0.6), (0.9, 0.0),
                                      (0.9, 1e-5), (1e-10, 1e-5)])
    def test_bit_identical_to_dense_reference(self, n_max, r, s):
        cutoff = FockCutoff(n_max=n_max, tail_bound=1.0 - 1e-15)
        for p in (0.0, 0.37, 1.0):
            nopa, thermal, mixture = dense_reference(p, r, s, n_max)
            rho = werner_state(WernerParams(p=p, r=r, s=s), cutoff)
            # The state is real: the complex reference has no imaginary
            # part, and its real part has the state's bits, entry for entry
            # and as a pattern.
            assert not mixture.imag.any()
            assert same_bits(dense(rho.pattern, cutoff.dim), mixture.real)
            reference = _nonzero_pattern(mixture.real)
            for part, expected in zip(rho.pattern, reference):
                assert part.dtype == expected.dtype
                assert same_bits(part, expected)
            if p == 1.0:
                assert same_bits(mixture, nopa)
            if p == 0.0:
                assert same_bits(mixture, thermal)


def test_werner_matrices_are_float64():
    # Every matrix built from Werner data is real symmetric: amplitudes and
    # thermal weights are real, so no complex buffer is made.
    rho = werner_state(POINT, LOOSE)
    assert rho.pattern[2].dtype == np.float64
    assert qubit_map.map_to_qubits(rho).dtype == np.float64
    assert criteria.reconstruct_from_cells(POINT, 6).dtype == np.float64
    assert qubit_map.closed_form_two_qubit(POINT).dtype == np.float64
    assert qubit_map.closed_form_two_qubit(POINT, n_max=6).dtype == np.float64


def test_no_dense_matrix_is_made():
    # The state is built as its 2 n_max^2 - n_max triplets: at n_max = 64
    # they take 0.19 MB, where a dense float64 matrix would take 134 MB.
    cutoff = FockCutoff(n_max=64, tail_bound=1.0 - 1e-15)
    werner_state(POINT, cutoff)
    tracemalloc.start()
    try:
        rho = werner_state(POINT, cutoff)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rho.pattern[2].size == 2 * 64 ** 2 - 64
    assert peak < 2e6


class TestMinimalCutoff:
    """werner_state's tail check at p = 0 and p = 1 rejects one level below
    the least level count whose exact tail fits the bound."""

    @pytest.mark.parametrize("s", [0.3, 1.0, 2.0, 3.5, 5.0, 8.0])
    @pytest.mark.parametrize("bound", [1e-3, 1e-10, 1e-14])
    def test_thermal_is_least_within_bound(self, s, bound):
        lam = math.tanh(s)
        n = least_thermal_levels(lam, bound)
        assert states._thermal_deficit(lam, n) <= bound < states._thermal_deficit(lam, n - 1)
        with pytest.raises(CutoffTooSmallError):
            thermal_product(s, FockCutoff(n_max=n - 1, tail_bound=bound))

    @pytest.mark.parametrize("r", [0.3, 1.0, 2.0, 5.0])
    def test_nopa_is_least_within_bound(self, r):
        lam = math.tanh(r)
        n = least_nopa_levels(lam, 1e-10)
        assert states._nopa_deficit(lam, n) <= 1e-10 < states._nopa_deficit(lam, n - 1)
        with pytest.raises(CutoffTooSmallError):
            nopa(r, FockCutoff(n_max=n - 1, tail_bound=1e-10))

    def test_accepted_at_the_least_level_count(self):
        # Small enough to build: at tanh 0.3 the thermal product needs 4
        # levels for a 1e-3 tail and the squeezed vacuum 10 for 1e-10.
        lam = math.tanh(0.3)
        n = least_thermal_levels(lam, 1e-3)
        rho = thermal_product(0.3, FockCutoff(n_max=n, tail_bound=1e-3))
        assert rho.trace_deficit == states._thermal_deficit(lam, n)
        n = least_nopa_levels(lam, 1e-10)
        rho = nopa(0.3, FockCutoff(n_max=n, tail_bound=1e-10))
        assert rho.trace_deficit == states._nopa_deficit(lam, n)
