"""Constructors for the continuous-variable Werner family.

Three states on the truncated two-mode Fock space:

* the two-mode squeezed vacuum produced by a non-degenerate optical
  parametric amplifier (NOPA), with coefficient lambda1 = tanh r,
* the product of two equal thermal states, with lambda2 = tanh s,
* their convex mixture, the CV Werner state, weighted by p.

Truncation cutoffs are chosen from the exact geometric tails of both
components, and the lost trace mass is carried on the returned state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tolerances as tol
from .errors import CutoffTooSmallError, ParameterRangeError
from .fock_core import FockCutoff, TwoModeDensityMatrix

# Cutoff clamp range: the floor keeps tiny states usable by the qubit map,
# the ceiling keeps dense two-mode matrices at desk scale (4096 x 4096).
N_MAX_FLOOR = 4
N_MAX_CEILING = 64


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
        if not all(math.isfinite(v) for v in (self.p, self.r, self.s)):
            raise ParameterRangeError(
                f"p, r and s must be finite, got p={self.p}, r={self.r}, s={self.s}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {self.p}")
        if self.r < 0.0 or self.s < 0.0:
            raise ValueError(f"r and s must be >= 0, got r={self.r}, s={self.s}")
        # Past r or s ~ 19.1, tanh rounds to 1: every (1 - lambda^2) factor
        # is then 0 and the thresholds divide by it.
        if math.tanh(self.r) == 1.0 or math.tanh(self.s) == 1.0:
            raise ParameterRangeError(
                f"tanh saturates to 1 at r={self.r}, s={self.s}; "
                "r and s must stay below about 19.1")

    @property
    def lambda1(self) -> float:
        return math.tanh(self.r)

    @property
    def lambda2(self) -> float:
        return math.tanh(self.s)

    @property
    def mean_thermal_photons(self) -> float:
        return math.sinh(self.s) ** 2


def symmetric_params(p: float, r: float) -> WernerParams:
    """The one-squeezing-parameter family with equal r and s."""
    return WernerParams(p=p, r=r, s=r)


def _nopa_deficit(lam1: float, n_max: int) -> float:
    return lam1 ** (2 * n_max)


def _thermal_deficit(lam2: float, n_max: int) -> float:
    kept = 1.0 - lam2 ** (2 * n_max)
    return 1.0 - kept * kept


def nopa_state(r: float, cutoff: FockCutoff) -> TwoModeDensityMatrix:
    """Two-mode squeezed vacuum: <m,m|rho|n,n> = (1-lam^2) lam^(m+n)."""
    if r < 0:
        raise ValueError(f"squeezing parameter must be >= 0, got r={r}")
    lam = math.tanh(r)
    n = cutoff.n_max
    deficit = _nopa_deficit(lam, n)
    if deficit > cutoff.tail_bound:
        raise CutoffTooSmallError(
            f"NOPA tail {deficit:.3e} exceeds tail_bound {cutoff.tail_bound:.3e} "
            f"at n_max={n}",
            minimal_n_max=_minimal_n_max_nopa(lam, cutoff.tail_bound),
        )
    amps = math.sqrt(1.0 - lam * lam) * lam ** np.arange(n)
    vec = np.zeros(n * n, dtype=np.complex128)
    vec[np.arange(n) * n + np.arange(n)] = amps
    data = np.outer(vec, vec.conj())
    return TwoModeDensityMatrix(cutoff=cutoff, data=data, trace_deficit=deficit)


def thermal_single_mode(s: float, n_max: int) -> np.ndarray:
    """Single-mode thermal matrix diag((1-lam^2) lam^(2k))."""
    lam = math.tanh(s)
    probs = (1.0 - lam * lam) * lam ** (2 * np.arange(n_max))
    return np.diag(probs).astype(np.complex128)


def thermal_product_state(s: float, cutoff: FockCutoff) -> TwoModeDensityMatrix:
    """Product of equal thermal states, diagonal in the Fock basis."""
    if s < 0:
        raise ValueError(f"thermal parameter must be >= 0, got s={s}")
    lam = math.tanh(s)
    n = cutoff.n_max
    deficit = _thermal_deficit(lam, n)
    if deficit > cutoff.tail_bound:
        raise CutoffTooSmallError(
            f"thermal tail {deficit:.3e} exceeds tail_bound {cutoff.tail_bound:.3e} "
            f"at n_max={n}",
            minimal_n_max=_minimal_n_max_thermal(lam, cutoff.tail_bound),
        )
    single = thermal_single_mode(s, n)
    data = np.kron(single, single)
    return TwoModeDensityMatrix(cutoff=cutoff, data=data, trace_deficit=deficit)


def werner_state(params: WernerParams, cutoff: FockCutoff) -> TwoModeDensityMatrix:
    """Convex mixture p * NOPA(r) + (1 - p) * thermal(s) x thermal(s).

    The component tail checks are applied against twice the cutoff's
    tail_bound weighted by the mixture, so the mixture itself respects
    the bound even when one pure component alone would not.
    """
    relaxed = FockCutoff(n_max=cutoff.n_max, tail_bound=1.0 - 1e-15)
    nopa = nopa_state(params.r, relaxed)
    thermal = thermal_product_state(params.s, relaxed)
    deficit = params.p * nopa.trace_deficit + (1.0 - params.p) * thermal.trace_deficit
    if deficit > cutoff.tail_bound:
        raise CutoffTooSmallError(
            f"Werner tail {deficit:.3e} exceeds tail_bound {cutoff.tail_bound:.3e} "
            f"at n_max={cutoff.n_max}",
            minimal_n_max=None,
        )
    data = params.p * nopa.data + (1.0 - params.p) * thermal.data
    return TwoModeDensityMatrix(cutoff=cutoff, data=data, trace_deficit=deficit)


def _minimal_n_max_nopa(lam1: float, bound: float) -> int:
    if lam1 == 0.0:
        return N_MAX_FLOOR
    # lam1^(2n) <= bound
    return max(N_MAX_FLOOR, math.ceil(math.log(bound) / (2.0 * math.log(lam1))))


def _minimal_n_max_thermal(lam2: float, bound: float) -> int:
    if lam2 == 0.0:
        return N_MAX_FLOOR
    n = N_MAX_FLOOR
    while _thermal_deficit(lam2, n) > bound and n <= 10 * N_MAX_CEILING:
        n += 1
    return n


def select_cutoff(params: WernerParams, tail_bound: float = tol.DEFAULT_TAIL_BOUND) -> FockCutoff:
    """Smallest even n_max whose weighted component tails fit the bound.

    Each component tail must stay below tail_bound / 2 after weighting by
    its mixture probability. The result is clamped to [N_MAX_FLOOR,
    N_MAX_CEILING] and rounded up to even so the pseudo-spin pairing of
    the qubit map closes within the truncation.
    """
    if not 0.0 < tail_bound < 1.0:
        raise ValueError(f"tail_bound must lie in (0, 1), got {tail_bound}")
    half = tail_bound / 2.0
    lam1, lam2 = params.lambda1, params.lambda2
    n = N_MAX_FLOOR
    while True:
        ok_nopa = params.p * _nopa_deficit(lam1, n) <= half
        ok_thermal = (1.0 - params.p) * _thermal_deficit(lam2, n) <= half
        if ok_nopa and ok_thermal:
            break
        n += 1
        if n > N_MAX_CEILING:
            raise ParameterRangeError(
                f"parameters (p={params.p}, r={params.r}, s={params.s}) need "
                f"n_max > {N_MAX_CEILING} for tail_bound {tail_bound:.3e}; "
                "reduce squeezing/noise or relax the tail bound"
            )
    if n % 2:
        n += 1
    n = min(max(n, N_MAX_FLOOR), N_MAX_CEILING)
    return FockCutoff(n_max=n, tail_bound=tail_bound)
