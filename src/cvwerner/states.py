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

The state is built as its nonzero pattern, and no n_max^2 x n_max^2
matrix is made. The squeezed-vacuum coherences |m,m><k,k| sit where the
rows and columns at flat indices m (n_max + 1) cross, and the thermal
product is the diagonal: 2 n_max^2 - n_max entries (0.2 MB at n_max =
64, where the dense matrix would take 134 MB), laid out as row-major
(rows, cols, values) triplets by ``_werner_layout``, which the cell
reconstruction shares. Every amplitude and weight is real, so the values
are float64. An entry that is exactly zero (a component at weight 0, or
a product that underflows) is dropped, as a scan of the dense matrix
drops it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CutoffTooSmallError, ParameterRangeError
from .fock_core import FockCutoff, TwoModeDensityMatrix


def _check_p(p: float) -> None:
    """Raise ParameterRangeError, naming p, unless 0 <= p <= 1 (so NaN fails)."""
    if not 0.0 <= p <= 1.0:
        raise ParameterRangeError(f"p must lie in [0, 1], got {p}")


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
        _check_p(self.p)
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


def _werner_layout(coherences: np.ndarray, diagonal: np.ndarray):
    """Row-major nonzeros ``(rows, cols, values)`` of the n_max^2 x n_max^2
    matrix with ``coherences[m, k]`` on |m,m><k,k| and ``diagonal[i]`` on
    the rest of the diagonal, |m,n> at flat index i = m n_max + n: the one
    layout of the truncated Werner matrix. Row by row it is n_max runs, each
    one row of an n_max x 2 n_max table: row |m,m> with its n_max
    coherences, then the n_max rows up to |m+1,m+1>, each holding its
    diagonal entry alone (none after the last). Exact zeros are dropped.
    """
    n_max = coherences.shape[0]
    pairs = np.arange(n_max) * (n_max + 1)
    # Run m: row |m,m> n_max times, then the n_max rows after it (past d in
    # the last run, which is cut).
    rows = pairs[:, None] + np.concatenate([np.zeros(n_max, np.intp), np.arange(1, n_max + 1)])
    cols = rows.copy()
    cols[:, :n_max] = pairs
    values = np.empty((n_max, 2 * n_max))
    values[:, :n_max] = coherences
    values[:-1, n_max:] = diagonal[1:].reshape(n_max - 1, n_max + 1)[:, :n_max]
    rows, cols, values = (part.ravel()[:-n_max] for part in (rows, cols, values))
    kept = values != 0.0
    return rows[kept], cols[kept], values[kept]


def werner_state(params: WernerParams, cutoff: FockCutoff) -> TwoModeDensityMatrix:
    """Convex mixture p * NOPA(r) + (1 - p) * thermal(s) x thermal(s).

    Only the mixture's trace deficit, the p-weighted sum of the component
    tails, is held to the cutoff's tail_bound, so one component alone may
    exceed it.
    """
    n, p, lam1, lam2 = cutoff.n_max, params.p, params.lambda1, params.lambda2
    deficit = p * _nopa_deficit(lam1, n) + (1.0 - p) * _thermal_deficit(lam2, n)
    if deficit > cutoff.tail_bound:
        raise CutoffTooSmallError(
            f"Werner tail {deficit:.3e} exceeds tail_bound {cutoff.tail_bound:.3e} "
            f"at n_max={n}")
    # The squeezed-vacuum coherences, each |m,m> with its thermal weight
    # added, and the thermal weights on the rest of the diagonal.
    levels = np.arange(n)
    amps = math.sqrt(1.0 - lam1 * lam1) * lam1 ** levels
    probs = (1.0 - lam2 * lam2) * lam2 ** (2 * levels)
    thermal = (1.0 - p) * np.outer(probs, probs).ravel()
    coherences = p * np.outer(amps, amps)
    # |m,m> sits at flat index m (n + 1) of both.
    coherences.ravel()[:: n + 1] += thermal[:: n + 1]
    return TwoModeDensityMatrix(cutoff=cutoff, pattern=_werner_layout(coherences, thermal),
                                trace_deficit=deficit)

