"""Constructors for the continuous-variable Werner family.

The CV Werner state on the truncated two-mode Fock space is the convex
mixture, weighted by p, of

* the two-mode squeezed vacuum produced by a non-degenerate optical
  parametric amplifier (NOPA), with coefficient lambda1 = tanh r, and
* the product of two equal thermal states, with lambda2 = tanh s.

Its two components are the states at p = 1 and p = 0.

The caller chooses the cutoff; no cutoff is selected here. The
constructor holds the exact geometric tail it truncates to the cutoff's
tail_bound and raises CutoffTooSmallError past it. The lost trace mass
is carried on the returned state as trace_deficit.

The matrix comes from one builder, which fills a single zeroed
n_max^2 x n_max^2 buffer: the squeezed-vacuum coherences go into the
n_max x n_max sub-block of the |m,m> rows and columns, and the thermal
product is added onto the diagonal. No other entry is nonzero, so no
dense temporary of the full size is made.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CutoffTooSmallError, ParameterRangeError
from .fock_core import FockCutoff, TwoModeDensityMatrix


def _check_rs(r: float, s: float = 0.0) -> None:
    """Raise ParameterRangeError unless r and s are finite, >= 0 and below
    the point where tanh rounds to 1; every public function of r or s
    calls it."""
    if not (math.isfinite(r) and math.isfinite(s)):
        raise ParameterRangeError(f"r and s must be finite, got r={r}, s={s}")
    if r < 0.0 or s < 0.0:
        raise ParameterRangeError(f"r and s must be >= 0, got r={r}, s={s}")
    # Past r or s ~ 19.1, tanh rounds to 1: every (1 - lambda^2) factor
    # is then 0 and the thresholds divide by it.
    if math.tanh(r) == 1.0 or math.tanh(s) == 1.0:
        raise ParameterRangeError(
            f"tanh saturates to 1 at r={r}, s={s}; r and s must stay below about 19.1")


@dataclass(frozen=True)
class WernerParams:
    """Parameter point (p, r, s) of the Werner mixture.

    p is the weight of the squeezed-vacuum component, r the squeezing
    parameter and s the thermal-noise parameter.
    """

    p: float
    r: float
    s: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ParameterRangeError(f"p must lie in [0, 1], got {self.p}")
        _check_rs(self.r, self.s)

    @property
    def lambda1(self) -> float:
        return math.tanh(self.r)

    @property
    def lambda2(self) -> float:
        return math.tanh(self.s)


def _nopa_deficit(lam1: float, n_max: int) -> float:
    return lam1 ** (2 * n_max)


def _thermal_deficit(lam2: float, n_max: int) -> float:
    # 1 - (1 - x)^2 with x = lam2^(2 n_max), without cancellation at small x
    x = lam2 ** (2 * n_max)
    return x * (2.0 - x)


def _werner_data(p: float, lam1: float, lam2: float, n_max: int) -> np.ndarray:
    """Matrix of p * NOPA(lam1) + (1 - p) * thermal(lam2) x thermal(lam2).

    Only two patterns are nonzero: the squeezed-vacuum coherences
    |m,m><k,k|, which sit at flat indices m (n_max + 1), and the thermal
    diagonal. Each is written into one zeroed buffer.
    """
    levels = np.arange(n_max)
    amps = math.sqrt(1.0 - lam1 * lam1) * lam1 ** levels
    probs = (1.0 - lam2 * lam2) * lam2 ** (2 * levels)
    d = n_max * n_max
    data = np.zeros((d, d), dtype=np.complex128)
    pairs = levels * (n_max + 1)
    data[np.ix_(pairs, pairs)] = p * np.outer(amps, amps)
    data.reshape(-1)[:: d + 1] += (1.0 - p) * np.outer(probs, probs).ravel()
    return data


def werner_state(params: WernerParams, cutoff: FockCutoff) -> TwoModeDensityMatrix:
    """Convex mixture p * NOPA(r) + (1 - p) * thermal(s) x thermal(s).

    Only the mixture's trace deficit, the p-weighted sum of the component
    tails, is held to the cutoff's tail_bound, so one component alone may
    exceed it.
    """
    n, p = cutoff.n_max, params.p
    deficit = (p * _nopa_deficit(params.lambda1, n)
               + (1.0 - p) * _thermal_deficit(params.lambda2, n))
    if deficit > cutoff.tail_bound:
        raise CutoffTooSmallError(
            f"Werner tail {deficit:.3e} exceeds tail_bound {cutoff.tail_bound:.3e} "
            f"at n_max={n}")
    data = _werner_data(p, params.lambda1, params.lambda2, n)
    return TwoModeDensityMatrix(cutoff=cutoff, data=data, trace_deficit=deficit)

