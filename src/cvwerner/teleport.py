"""Coherent-state teleportation fidelity through the Werner channel.

The standard continuous-variable teleportation protocol with a shared
two-mode channel reduces to a convolution: the output Wigner function is
the input smeared by a kernel obtained from the channel's Wigner
function by integrating out the (x_+, p_-) quadrature combinations.

Both channel components (squeezed vacuum and thermal product) are
Gaussian, so the channel Wigner function is a two-term Gaussian mixture.
Only the mixture is non-Gaussian. In the combinations x_pm = x_A +- x_B,
p_pm = p_A +- p_B each component is a product of four 1-D Gaussian
factors with two variances: x_- and p_+ share the squeezed one, x_+ and
p_- the anti-squeezed one (exp(-+2r) for the NOPA, cosh 2s for both in
the thermal product; Braunstein & Kimble, PRL 80, 869 (1998)). The input
autocorrelation is a product ax(x_-) ap(p_+) with ax = ap, so the
fidelity integral is a sum over components of two distinct 1-D integrals,
each squared. Each goes to ``numerics.integrate_line`` with the variance
of its narrowest factor (a channel factor, or the input autocorrelation
when that is narrower), which sizes the grid; the result is independent
of the closed form it cross-checks, ``fidelity_werner``, which holds at
every (r, s).

The autocorrelation of a coherent-state marginal w(x) = exp(-(x - c)^2)
/ sqrt(pi) factorises: with z = x - c + u/2,
w(x) w(x + u) = exp(-2 z^2) exp(-u^2 / 2) / pi, so
ax(u) = T exp(-u^2 / 2) with T the 1-D integral of exp(-2 z^2) / pi.
T is computed once per process by the same quadrature, and neither
it nor ax depends on the centre c, so the oracle takes no input
amplitude.

Wigner convention: vacuum W(x, p) = (1/pi) exp(-x^2 - p^2), integrating
to 1, with x = (a + a^dag)/sqrt(2); a coherent amplitude alpha sits at
x = sqrt(2) Re(alpha), p = sqrt(2) Im(alpha).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterRangeError
from .numerics import integrate_line
from .states import WernerParams, _check_rs

# Variance of the input autocorrelation exp(-u^2 / 2) / sqrt(2 pi) of a
# coherent state in either quadrature.
INPUT_VARIANCE = 1.0
# Variance of exp(-2 z^2), the integrand of the input overlap T.
OVERLAP_VARIANCE = 0.25


@dataclass(frozen=True)
class GaussianComponent:
    """One Gaussian term of the channel Wigner function, in +- variables:
    x_- and p_+ have the squeezed variance, x_+ and p_- the anti-squeezed."""

    weight: float
    var_squeezed: float
    var_antisqueezed: float

    @property
    def norm(self) -> float:
        # The +- variables double-cover phase space: the Wigner function
        # integrates to 4 over (x_-, x_+, p_-, p_+).
        prod = self.var_squeezed * self.var_antisqueezed * self.var_antisqueezed * self.var_squeezed
        return 4.0 / ((2.0 * math.pi) ** 2 * math.sqrt(prod))

    def factor(self, coords: np.ndarray, variance: float) -> np.ndarray:
        return np.exp(-coords * coords / (2.0 * variance))


def channel_components(params: WernerParams) -> tuple[GaussianComponent, ...]:
    """Channel Wigner function as a mixture of Gaussian components."""
    comps = []
    if params.p > 0.0:
        comps.append(GaussianComponent(weight=params.p, var_squeezed=math.exp(-2.0 * params.r),
                                       var_antisqueezed=math.exp(2.0 * params.r)))
    if params.p < 1.0:
        c = math.cosh(2.0 * params.s)
        comps.append(GaussianComponent(weight=1.0 - params.p, var_squeezed=c, var_antisqueezed=c))
    return tuple(comps)


@dataclass(frozen=True)
class FidelityReport:
    fidelity_closed_form: float
    fidelity_numeric: float
    method_agreement: float


def fidelity_werner(p: float, r: float, s: float) -> float:
    """Closed-form Werner-channel fidelity at any (r, s),
    F = p / (1 + e^{-2r}) + (1 - p) / (2 cosh^2 s)
    (Braunstein & Kimble, PRL 80, 869 (1998)): the squeezed-vacuum
    channel's fidelity weighted by p, plus 1/d for the thermal product,
    whose effective dimension is d = 2 cosh^2 s.
    """
    if not 0.0 <= p <= 1.0:
        raise ParameterRangeError("p must lie in [0, 1]")
    _check_rs(r, s)
    return p * (1.0 / (1.0 + math.exp(-2.0 * r))) + (1.0 - p) / (2.0 * math.cosh(s) ** 2)


@functools.cache
def _input_overlap() -> float:
    """T = integral exp(-2 z^2) / pi dz, the factor of the input
    autocorrelation ax(u) = T exp(-u^2 / 2) that does not depend on u.
    It is a constant, so it is integrated once per process."""
    return integrate_line(OVERLAP_VARIANCE, lambda z: np.exp(-2.0 * z * z) / math.pi)


def _input_autocorrelation(u: np.ndarray, overlap: float) -> np.ndarray:
    """Autocorrelation ax(u) = T exp(-u^2 / 2) of a coherent-state marginal,
    sampled at the shifts ``u``, with ``overlap`` = T."""
    return overlap * np.exp(-u * u / (2.0 * INPUT_VARIANCE))


def fidelity_numeric_oracle(params: WernerParams) -> float:
    """Teleportation fidelity by separable quadrature.

    F = (pi/2) * sum over components c of
    w_c norm_c (int f_x+) (int f_p-) (int f_x-(-u) ax(u) du) (int f_p+(u) ap(u) du),
    with ax, ap the autocorrelations of the input coherent state's Wigner
    marginals. This is the kernel-times-autocorrelation double integral
    written out factor by factor. The x_+ and p_- integrals are the same
    anti-squeezed integral a_c; the components are even and ax = ap =
    T exp(-u^2 / 2), so the x_- and p_+ integrals are the same squeezed
    integral b_c, and F = (pi/2) sum_c w_c norm_c a_c a_c b_c b_c. Each 1-D
    integral runs on its own grid, so the result agrees with the closed
    form to rounding over the whole accepted (r, s) range.
    """
    overlap = _input_overlap()
    total = 0.0
    for c in channel_components(params):
        anti = integrate_line(c.var_antisqueezed, lambda u: c.factor(u, c.var_antisqueezed))
        squeezed = integrate_line(
            min(c.var_squeezed, INPUT_VARIANCE),
            lambda u: c.factor(u, c.var_squeezed) * _input_autocorrelation(u, overlap),
        )
        total += c.weight * c.norm * anti * anti * squeezed * squeezed
    return 0.5 * math.pi * total


def fidelity_report(params: WernerParams) -> FidelityReport:
    """Closed form next to the numeric oracle."""
    closed = fidelity_werner(params.p, params.r, params.s)
    numeric = fidelity_numeric_oracle(params)
    return FidelityReport(fidelity_closed_form=closed, fidelity_numeric=numeric,
                          method_agreement=abs(closed - numeric))
