"""Tests for the teleportation-fidelity closed forms and the quadrature oracle."""

import math

import numpy as np
import pytest

from cvwerner.errors import ParameterRangeError
from cvwerner.numerics import GRID_POINTS, WIDTH_SIGMAS, integrate_line
from cvwerner.states import WernerParams
from cvwerner import teleport as tp
from cvwerner import tolerances as tol
from cvwerner.teleport import (
    channel_components,
    fidelity_numeric_oracle,
    fidelity_report,
    fidelity_werner,
)


class TestClosedForms:
    def test_nopa_anchors(self):
        # At p = 1 the channel is the squeezed vacuum, whatever s.
        assert fidelity_werner(1.0, 0.0, 0.0) == 0.5
        assert fidelity_werner(1.0, 1.0, 0.3) == 1.0 / (1.0 + math.exp(-2.0))
        assert fidelity_werner(1.0, 1.0, 1.0) == pytest.approx(0.880797, abs=1e-6)

    def test_nopa_is_increasing(self):
        values = [fidelity_werner(1.0, r, r) for r in np.linspace(0, 3, 13)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_werner_mixture(self):
        fidelity = fidelity_werner(0.5, 1.0, 1.0)
        d_eff = 2.0 * math.cosh(1.0) ** 2
        expected = 0.5 / (1.0 + math.exp(-2.0)) + 0.5 / d_eff
        assert fidelity == pytest.approx(expected, rel=1e-14)
        assert fidelity == pytest.approx(0.545392, abs=1e-6)

    def test_werner_approaches_p_at_large_squeezing(self):
        # The thermal contribution 1/(2 cosh^2 s) dies off, leaving F -> p.
        assert fidelity_werner(0.5, 6.0, 6.0) == pytest.approx(0.5, abs=2e-5)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            fidelity_werner(1.0, -0.5, 0.0)
        with pytest.raises(ValueError):
            fidelity_werner(0.5, 1.0, -0.5)
        # The p rule and message of WernerParams, which name the value.
        for p in (1.2, 1.5, math.nan):
            with pytest.raises(ParameterRangeError, match=rf"p must lie in \[0, 1\], got {p}$"):
                fidelity_werner(p, 1.0, 1.0)


class TestWignerChannel:
    def test_component_weights(self):
        channel = channel_components(WernerParams(p=0.3, r=1.0, s=0.5))
        assert [c.weight for c in channel] == [0.3, 0.7]
        pure = channel_components(WernerParams(p=1.0, r=1.0, s=0.5))
        assert len(pure) == 1

    def test_squeezed_variances(self):
        nopa, thermal = channel_components(WernerParams(p=0.5, r=1.0, s=0.5))
        assert nopa.var_squeezed == pytest.approx(math.exp(-2.0))
        assert nopa.var_antisqueezed == pytest.approx(math.exp(2.0))
        assert thermal.var_squeezed == thermal.var_antisqueezed == pytest.approx(math.cosh(1.0))

    def test_wigner_normalization(self):
        # In the doubled +- variables each component integrates to 4: its
        # norm times the four 1-D integrals of its Gaussian factors.
        totals = []
        for comp in channel_components(WernerParams(p=0.5, r=0.5, s=0.5)):
            total = comp.norm
            for variance in four_variances(comp):
                total *= integrate_line(variance, lambda u: comp.factor(u, variance))
            totals.append(total)
        assert totals == pytest.approx([4.0, 4.0], abs=1e-6)


def four_variances(c):
    """The variances of the (x_-, x_+, p_-, p_+) factors of a component."""
    return c.var_squeezed, c.var_antisqueezed, c.var_antisqueezed, c.var_squeezed


def closed_form_fidelity(p, r, s):
    """General (r, s) fidelity, Braunstein & Kimble, PRL 80, 869 (1998)."""
    return p / (1.0 + math.exp(-2.0 * r)) + (1.0 - p) / (2.0 * math.cosh(s) ** 2)


def dense_input_autocorrelation(axis, center):
    """1D overlap integral of the input Wigner marginal with its shift, on a
    dense grid: the oracle's autocorrelation before it was factorised.

    For input marginal w(x) = (1/sqrt(pi)) exp(-(x - c)^2) returns
    A(u) = integral w(x) w(x + u) dx, sampled on ``axis`` as the shift u.
    """
    span = 8.5
    x = np.linspace(center - span, center + span, 401)
    w = np.exp(-((x - center) ** 2)) / math.sqrt(math.pi)
    shifted = np.exp(-((x[None, :] + axis[:, None] - center) ** 2)) / math.sqrt(math.pi)
    return np.trapezoid(w[None, :] * shifted, x=x, axis=1)


def oracle_autocorrelation_axes(params):
    """The shift grids of the oracle's x_- and p_+ integrals, which carry
    the input autocorrelation."""
    axes = []
    for c in channel_components(params):
        half_width = WIDTH_SIGMAS * math.sqrt(min(c.var_squeezed, tp.INPUT_VARIANCE))
        axes.append(np.linspace(-half_width, half_width, GRID_POINTS))
    return axes


def dense_oracle_reference(params):
    """The 2-D quadrature the separable oracle replaced.

    One grid shared by every factor, sized from the widest and narrowest
    of them; the kernel K(x_-, p_+) as a sum of outer products, each
    scaled by its (x_+, p_-) integral; then a 2-D trapezoid over the
    kernel times the outer product of the input autocorrelations, for an
    input coherent state at the origin.
    """
    channel = channel_components(params)
    stds = [math.sqrt(v) for c in channel for v in four_variances(c)]
    half_width = 6.0 + 6.2 * max(stds)
    points = (int(math.ceil(2.0 * half_width / (min(min(stds), 1.0) / 3.0))) + 1) | 1
    axis = np.linspace(-half_width, half_width, points)
    dx = axis[1] - axis[0]

    def trapezoid_2d(values):
        return np.trapezoid(np.trapezoid(values, dx=dx, axis=-1), dx=dx)

    kernel = np.zeros((points, points))
    for c in channel:
        var_xminus, var_xplus, var_pminus, var_pplus = four_variances(c)
        inner = trapezoid_2d(np.outer(c.factor(axis, var_xplus), c.factor(axis, var_pminus)))
        fx = c.factor(-axis, var_xminus)
        fp = c.factor(axis, var_pplus)
        kernel += c.weight * c.norm * inner * np.outer(fx, fp)
    a = dense_input_autocorrelation(axis, 0.0)
    autocorrelation = np.outer(a, a)
    return 0.5 * math.pi * trapezoid_2d(kernel * autocorrelation)


def four_integral_oracle_reference(params):
    """The oracle before its duplicate integrals were merged: one
    integrate_line call for each of the four factors of each component,
    with the sign flip on x_- applied literally."""
    overlap = tp._input_overlap()
    total = 0.0
    for c in channel_components(params):
        var_xminus, var_xplus, var_pminus, var_pplus = four_variances(c)
        x_plus = integrate_line(var_xplus, lambda u: c.factor(u, var_xplus))
        p_minus = integrate_line(var_pminus, lambda u: c.factor(u, var_pminus))
        x_minus = integrate_line(
            min(var_xminus, tp.INPUT_VARIANCE),
            lambda u: c.factor(-u, var_xminus) * tp._input_autocorrelation(u, overlap),
        )
        p_plus = integrate_line(
            min(var_pplus, tp.INPUT_VARIANCE),
            lambda u: c.factor(u, var_pplus) * tp._input_autocorrelation(u, overlap),
        )
        total += c.weight * c.norm * x_plus * p_minus * x_minus * p_plus
    return 0.5 * math.pi * total


def seeded_oracle_points():
    """Seeded (p, r, s) with r = s and r != s over the accepted range, the
    pure and thermal ends of p, and the r = s = 19 edge."""
    rng = np.random.default_rng(17)
    points = [(0.7, 19.0, 19.0), (1.0, 19.0, 19.0), (0.0, 19.0, 19.0), (0.5, 0.0, 0.0)]
    for p, r, s in zip(rng.uniform(0.0, 1.0, 60), rng.uniform(0.0, 19.0, 60),
                       rng.uniform(0.0, 19.0, 60)):
        points += [(float(p), float(r), float(s)), (float(p), float(r), float(r))]
    return points


class TestNumericOracle:
    def test_vacuum_channel_anchor(self):
        value = fidelity_numeric_oracle(WernerParams(p=1.0, r=0.0, s=0.0))
        assert value == pytest.approx(0.5, abs=1e-6)

    def test_pure_squeezing_anchor(self):
        value = fidelity_numeric_oracle(WernerParams(p=1.0, r=1.0, s=1.0))
        assert value == pytest.approx(fidelity_werner(1.0, 1.0, 1.0), abs=1e-6)

    def test_mixture_anchor(self):
        value = fidelity_numeric_oracle(WernerParams(p=0.5, r=1.0, s=1.0))
        assert value == pytest.approx(0.545392, abs=1e-4)

    @pytest.mark.parametrize("r", [0.0, 1.0, 5.0, 19.0])
    @pytest.mark.parametrize("center", [0.0, 1.4, -0.7])
    def test_factorised_overlap_matches_dense_autocorrelation(self, r, center):
        overlap = tp._input_overlap()
        for axis in oracle_autocorrelation_axes(WernerParams(p=0.5, r=r, s=r)):
            factorised = tp._input_autocorrelation(axis, overlap)
            assert np.abs(factorised - dense_input_autocorrelation(axis, center)).max() <= 1e-15

    @pytest.mark.parametrize("p", [0.0, 0.3, 0.77, 1.0])
    def test_agrees_with_closed_form_to_rounding(self, p):
        for r in np.linspace(0.0, 19.0, 77):
            r = float(r)
            value = fidelity_numeric_oracle(WernerParams(p=p, r=r, s=r))
            assert abs(value - closed_form_fidelity(p, r, r)) <= 2e-15, r

    def test_report_cross_check(self):
        report = fidelity_report(WernerParams(p=0.7, r=0.8, s=0.8))
        assert report.method_agreement < 1e-6
        assert report.fidelity_numeric == pytest.approx(
            report.fidelity_closed_form, abs=1e-6
        )

    @pytest.mark.parametrize("r", [0.3, 1.0, 1.65])
    def test_matches_dense_2d_reference(self, r):
        # At these r the shared grid stays below 2001 points an axis, so
        # the dense reference resolves every factor.
        params = WernerParams(p=0.5, r=r, s=r)
        assert abs(fidelity_numeric_oracle(params) - dense_oracle_reference(params)) <= 1e-10

    @pytest.mark.parametrize("p, r, s", [(0.5, 1.0, 0.3), (0.2, 0.5, 2.0), (0.9, 2.0, 0.5)])
    def test_matches_general_closed_form_off_diagonal(self, p, r, s):
        value = fidelity_numeric_oracle(WernerParams(p=p, r=r, s=s))
        assert abs(value - closed_form_fidelity(p, r, s)) <= 2e-15

    @pytest.mark.parametrize("p, calls", [(0.5, 5), (1.0, 3), (0.0, 3)])
    def test_one_integral_per_distinct_factor(self, monkeypatch, p, calls):
        # The overlap T, then one anti-squeezed and one squeezed integral
        # per component. T is a constant, integrated on the first call of
        # the process only.
        counted = []

        def counting(variance, integrand):
            counted.append(variance)
            return integrate_line(variance, integrand)

        monkeypatch.setattr(tp, "integrate_line", counting)
        tp._input_overlap.cache_clear()
        params = WernerParams(p=p, r=1.0, s=0.5)
        first = fidelity_numeric_oracle(params)
        assert len(counted) == calls
        assert fidelity_numeric_oracle(params) == first
        assert len(counted) == 2 * calls - 1

    def test_bit_identical_to_four_integral_route(self):
        for p, r, s in seeded_oracle_points():
            params = WernerParams(p=p, r=r, s=s)
            reference = four_integral_oracle_reference(params)
            assert fidelity_numeric_oracle(params) == reference, (p, r, s)

    def test_finite_at_tanh_saturation_edge(self):
        value = fidelity_numeric_oracle(WernerParams(p=0.7, r=19.0, s=19.0))
        assert math.isfinite(value)
        assert abs(value - closed_form_fidelity(0.7, 19.0, 19.0)) <= 1e-9

    def test_report_off_diagonal(self):
        for p, r, s in [(0.5, 1.0, 0.5), (0.2, 0.1, 2.0), (0.9, 19.0, 0.0)]:
            params = WernerParams(p=p, r=r, s=s)
            report = fidelity_report(params)
            assert abs(report.fidelity_closed_form - closed_form_fidelity(p, r, s)) <= 1e-15
            assert report.fidelity_numeric == fidelity_numeric_oracle(params)
            assert report.method_agreement <= tol.CROSS_CHECK_TOL
