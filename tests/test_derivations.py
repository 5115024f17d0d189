"""Symbolic checks of the closed forms behind three checks of `validate`.

`closed_form_two_qubit(params, n_max)` is the pair-index trace of the Werner
state truncated to n_max levels per mode, and the diagonal of
`reconstruct_from_cells` sums each cell's weight over all partners as a
geometric series. Each closed form is stated from its definition, a finite
sum over the kept levels, and sympy proves the identity by induction on
the number of terms: the closed form is 0 for no term and grows by the
next term. The library's float functions are then held to the exact
rational value of the definition at seeded points, so a closed form in
the code that drifts from its derivation (a dropped square, an exponent
off by one) fails here.

The teleport fidelity's closed form, `fidelity_werner(p, r, s)`, is
derived from the numeric oracle's factorised sum of Gaussian integrals,
and the library is held to that sum at 30 digits.
"""

import mpmath
import numpy as np
import pytest
import sympy as sp

from cvwerner.criteria import reconstruct_from_cells
from cvwerner.qubit_map import closed_form_two_qubit
from cvwerner.states import WernerParams
from cvwerner.teleport import fidelity_werner

lam, lam1, lam2, p = sp.symbols("lambda lambda1 lambda2 p", positive=True)
h, k, m = sp.symbols("h k m", integer=True, nonnegative=True)


def is_partial_sum(closed, term, count):
    """True if closed(count) = sum of term(i) over i < count, proved by
    induction on ``count``: closed(0) = 0 and closed(count + 1) - closed(count)
    = term(count)."""
    step = closed.subs(count, count + 1) - closed - term.subs(k, count)
    return sp.simplify(closed.subs(count, 0)) == 0 and sp.simplify(step) == 0


def kept_pair_weight(n):
    """(1 - lambda^(2n)) / (1 + lambda^2): closed_form_two_qubit's truncation
    factor over its untruncated weight 1 / (1 + lambda^2)."""
    return (1 - lam ** (2 * n)) / (1 + lam ** 2)


class TestPairTraceTruncation:
    """Mode populations (1 - lambda^2) lambda^(2k) and squeezed-vacuum
    amplitudes, kept to levels k < n = 2h and traced over the pair index of
    level k = 2j + q. Both modes of the thermal product carry the factor, so
    its weight takes it squared."""

    def test_even_levels(self):
        # sum_{j<h} (1 - lambda^2) lambda^(4j): qubit 0 of a thermal mode,
        # and the squeezed vacuum's |00><00|.
        term = (1 - lam ** 2) * lam ** (4 * k)
        assert is_partial_sum(kept_pair_weight(2 * h), term, h)

    def test_odd_levels(self):
        # sum_{j<h} (1 - lambda^2) lambda^(2 (2j + 1)): qubit 1, and |11><11|.
        term = (1 - lam ** 2) * lam ** (2 * (2 * k + 1))
        assert is_partial_sum(lam ** 2 * kept_pair_weight(2 * h), term, h)

    def test_coherence(self):
        # sum_{j<h} (1 - lambda^2) lambda^(2j) lambda^(2j + 1): |00><11|.
        term = (1 - lam ** 2) * lam ** (4 * k + 1)
        assert is_partial_sum(lam * kept_pair_weight(2 * h), term, h)

    @pytest.mark.parametrize("n_max", [2, 4, 6, 8])
    def test_library_matches_exact_pair_trace(self, n_max):
        rng = np.random.default_rng(n_max)
        for p_, r, s in zip(rng.uniform(0, 1, 6), rng.uniform(0.05, 2, 6), rng.uniform(0.05, 2, 6)):
            params = WernerParams(p=p_, r=r, s=s)
            exact = exact_pair_trace(params, n_max)
            assert np.abs(closed_form_two_qubit(params, n_max=n_max) - exact).max() <= 1e-15


def exact_pair_trace(params, n_max):
    """The pair-index trace of the truncated Werner state in exact rationals,
    summed level by level from its definition, rounded once to floats."""
    weight = sp.Rational(params.p)
    l1, l2 = sp.Rational(params.lambda1), sp.Rational(params.lambda2)
    amps = [l1 ** a for a in range(n_max)]  # times sqrt(1 - l1^2) each
    probs = [(1 - l2 ** 2) * l2 ** (2 * a) for a in range(n_max)]
    rho4 = [[sp.Integer(0)] * 4 for _ in range(4)]
    for a in range(n_max):
        for b in range(n_max):
            q, r = a % 2, b % 2
            rho4[2 * q + r][2 * q + r] += (1 - weight) * probs[a] * probs[b]
            if a // 2 == b // 2:  # |a,a><b,b| of the squeezed vacuum
                rho4[3 * q][3 * r] += weight * (1 - l1 ** 2) * amps[a] * amps[b]
    return np.array([[float(x) for x in row] for row in rho4])


class TestCellDiagonal:
    """The cells of (m, n) over all n >= 0 put alpha(m, n) = p c_k^2 + (1 - p) b_k,
    k = m + n, on |m,m>. Their sum is a geometric series in k >= m, written in
    the code with its ratio read off the weights at k = 1 and k = 0."""

    c = (1 - lam1 ** 2) * lam1 ** k
    b = (1 - lam2 ** 2) ** 2 * (1 - lam2 ** 4) * lam2 ** (4 * k)
    # The code's closed form: p c_m^2 / (1 - (c_1 / c_0)^2) + (1 - p) b_m / (1 - b_1 / b_0).
    nopa = p * c.subs(k, m) ** 2 / (1 - (c.subs(k, 1) / c.subs(k, 0)) ** 2)
    thermal = (1 - p) * b.subs(k, m) / (1 - b.subs(k, 1) / b.subs(k, 0))

    def test_partial_sums_over_partners(self):
        # sum_{n<N} of each weight is its closed form times 1 - ratio^N, which
        # tends to the closed form, as each ratio lies in [0, 1).
        count = sp.Symbol("N", integer=True, nonnegative=True)
        assert is_partial_sum(self.nopa * (1 - lam1 ** (2 * count)),
                              p * self.c.subs(k, m + k) ** 2, count)
        assert is_partial_sum(self.thermal * (1 - lam2 ** (4 * count)),
                              (1 - p) * self.b.subs(k, m + k), count)

    def test_sum_is_the_werner_diagonal(self):
        # p (1 - lambda1^2) lambda1^(2m) + (1 - p) ((1 - lambda2^2) lambda2^(2m))^2.
        entry = (p * (1 - lam1 ** 2) * lam1 ** (2 * m)
                 + (1 - p) * ((1 - lam2 ** 2) * lam2 ** (2 * m)) ** 2)
        assert sp.simplify(self.nopa + self.thermal - entry) == 0

    @pytest.mark.parametrize("n_max", [2, 5, 12])
    def test_library_matches_exact_diagonal(self, n_max):
        rng = np.random.default_rng(100 + n_max)
        levels = np.arange(n_max)
        for p_, r, s in zip(rng.uniform(0, 1, 7), rng.uniform(0.05, 2, 7), rng.uniform(0.05, 2, 7)):
            params = WernerParams(p=p_, r=r, s=s)
            diagonal = reconstruct_from_cells(params, n_max)[levels * (n_max + 1),
                                                             levels * (n_max + 1)]
            w, l1, l2 = (sp.Rational(x) for x in (params.p, params.lambda1, params.lambda2))
            exact = np.array([float(w * (1 - l1 ** 2) * l1 ** (2 * a)
                                    + (1 - w) * ((1 - l2 ** 2) * l2 ** (2 * a)) ** 2)
                              for a in levels])
            # 1 - lambda^2 loses digits as lambda nears 1: a few eps relative.
            assert (np.abs(diagonal.real - exact) <= 1e-13 * exact).all()
            assert not diagonal.imag.any()



r_sym, s_sym, u, v = sp.symbols("r s u v", positive=True)


def gaussian_integral(variance):
    """int exp(-u^2 / (2 variance)) du over the real line."""
    return sp.sqrt(2 * sp.pi * variance)


class TestTeleportFidelity:
    """The numeric oracle's factorised sum, F = (pi/2) sum_c w_c norm_c a_c^2 b_c^2,
    rebuilt term by term: a_c is the anti-squeezed Gaussian integral, and b_c
    the squeezed factor times the input autocorrelation T exp(-u^2 / 2), a
    Gaussian of variance v / (v + 1) for squeezed variance v, with T the
    integral of exp(-2 z^2) / pi, a Gaussian of variance 1/4. The sum is the
    general (r, s) closed form p / (1 + e^{-2r}) + (1 - p) / (2 cosh^2 s)."""

    components = ((p, sp.exp(-2 * r_sym), sp.exp(2 * r_sym)),
                  (1 - p, sp.cosh(2 * s_sym), sp.cosh(2 * s_sym)))
    overlap = gaussian_integral(sp.Rational(1, 4)) / sp.pi
    closed = p / (1 + sp.exp(-2 * r_sym)) + (1 - p) / (2 * sp.cosh(s_sym) ** 2)

    @classmethod
    def oracle_sum(cls):
        total = 0
        for weight, squeezed, anti in cls.components:
            norm = 4 / ((2 * sp.pi) ** 2 * sp.sqrt(squeezed * anti * anti * squeezed))
            a = gaussian_integral(anti)
            b = cls.overlap * gaussian_integral(squeezed / (squeezed + 1))
            total += weight * norm * a * a * b * b
        return sp.pi / 2 * total

    def test_integral_rules(self):
        assert sp.simplify(sp.integrate(sp.exp(-u ** 2 / (2 * v)), (u, -sp.oo, sp.oo))
                           - gaussian_integral(v)) == 0
        # exp(-u^2 / 2v) exp(-u^2 / 2) is one Gaussian of variance v / (v + 1).
        assert sp.simplify(-u ** 2 / (2 * v) - u ** 2 / 2
                           + u ** 2 / (2 * (v / (v + 1)))) == 0
        assert sp.simplify(sp.integrate(sp.exp(-2 * u ** 2) / sp.pi, (u, -sp.oo, sp.oo))
                           - self.overlap) == 0

    def test_oracle_sum_is_the_general_closed_form(self):
        difference = (self.oracle_sum() - self.closed).rewrite(sp.exp)
        assert sp.simplify(difference) == 0

    def test_library_matches_the_oracle_sum(self):
        # fidelity_werner against the symbolic sum at 30 digits, half of the
        # seeded points with r = s, to two ulps of 1 (the worst of 6000
        # seeded points is one).
        rng = np.random.default_rng(23)
        exact = sp.lambdify((p, r_sym, s_sym), self.oracle_sum(), "mpmath")
        for p_, r, s in zip(rng.uniform(0, 1, 12), rng.uniform(0, 19, 12), rng.uniform(0, 19, 12)):
            for point in ((p_, r, s), (p_, r, r)):
                with mpmath.workdps(30):
                    reference = float(exact(*map(mpmath.mpf, point)))
                assert abs(fidelity_werner(*point) - reference) <= 4.5e-16, point
