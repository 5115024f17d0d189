"""Direct entanglement, separability and squeezing analysis of the Werner state.

The partially transposed Werner state is block diagonal: 1x1 blocks on
|l,l> and 2x2 blocks on span{|m,n>, |n,m>} for m != n, so its full
spectrum is available in closed form. Every closed-form verdict here is
cross-checkable against brute-force computation on the truncated matrix.

Where the reference closed forms for the regime bounds contain internal
inconsistencies, the per-(m,n) inequalities derived from the cell
decomposition are authoritative; the trichotomy ratios that the numerics
support are q = lambda1 / lambda2^2 for entanglement and
q_tilde = lambda1 / lambda2^4 for positivity of the cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CutoffTooSmallError, NumericalConsistencyError
from .fock_core import FockCutoff, TwoModeDensityMatrix, partial_transpose_A
from .numerics import _bisect_threshold, hermitian_eigenvalues
from .states import WernerParams, werner_state

# Enumeration horizon of the validate partners of the direct threshold (the
# enumerated threshold, its bisection and the analytic spectrum's infimum).
# The production thresholds are closed forms and read no horizon.
DEFAULT_HORIZON = 200

# Criterion identifiers used in verdicts and CLI output.
ENTANGLED_PPT_DIRECT = "entangled_ppt_direct"
ENTANGLED_PPT_MAPPED = "entangled_ppt_mapped"
SEPARABLE_SUFFICIENT = "separable_sufficient"
NONLOCAL = "nonlocal"
SQUEEZED = "squeezed"


@dataclass(frozen=True)
class CriterionVerdict:
    criterion: str
    decision: bool
    threshold_p: float | None
    margin: float
    method: str  # "analytic", "brute_force" or "both"


@dataclass(frozen=True)
class PptSpectrum:
    """Analytic eigenvalue families of the partially transposed Werner state."""

    params: WernerParams
    horizon: int
    min_eigenvalue_estimate: float

    def x_diag(self, l: int) -> float:
        p, l1, l2 = self.params.p, self.params.lambda1, self.params.lambda2
        return p * (1 - l1 * l1) * l1 ** (2 * l) + (1 - p) * (1 - l2 * l2) ** 2 * l2 ** (4 * l)

    def _pair(self, m: int, n: int):
        p, l1, l2 = self.params.p, self.params.lambda1, self.params.lambda2
        base = (1 - p) * (1 - l2 * l2) ** 2 * l2 ** (2 * (m + n))
        off = p * (1 - l1 * l1) * l1 ** (m + n)
        return base, off

    def x_pair_plus(self, m: int, n: int) -> float:
        base, off = self._pair(m, n)
        return base + off

    def x_pair_minus(self, m: int, n: int) -> float:
        base, off = self._pair(m, n)
        return base - off


def ppt_spectrum_analytic(params: WernerParams, horizon: int = DEFAULT_HORIZON) -> PptSpectrum:
    """Closed-form partial-transpose spectrum, with its enumerated infimum."""
    spec = PptSpectrum(params=params, horizon=horizon, min_eigenvalue_estimate=0.0)
    lows = [spec.x_pair_minus(0, k) for k in range(1, horizon + 1)]
    object.__setattr__(spec, "min_eigenvalue_estimate", min(lows))
    return spec


def enumerate_ppt_spectrum(params: WernerParams, n_max: int) -> np.ndarray:
    """All analytic eigenvalues of the truncated partial transpose, sorted."""
    spec = ppt_spectrum_analytic(params, horizon=2 * n_max)
    vals = [spec.x_diag(l) for l in range(n_max)]
    for m in range(n_max):
        for n in range(m + 1, n_max):
            vals.append(spec.x_pair_plus(m, n))
            vals.append(spec.x_pair_minus(m, n))
    return np.sort(np.array(vals))


def ppt_spectrum_bruteforce(params: WernerParams, cutoff: FockCutoff) -> np.ndarray:
    """Eigenvalues of the partially transposed truncated state, sorted."""
    rho = werner_state(params, cutoff)
    return hermitian_eigenvalues(partial_transpose_A(rho)).eigenvalues


def _entanglement_p_k(l1: float, l2: float, k: int) -> float:
    """Threshold probability at which the (m, n) pair block with m+n = k
    acquires a negative partial-transpose eigenvalue."""
    therm = (1 - l2 * l2) ** 2 * l2 ** (2 * k)
    nopa = (1 - l1 * l1) * l1 ** k
    if therm + nopa == 0.0:
        # Both geometric terms underflowed; fall back on the k -> infinity
        # limit governed by q = l1 / l2^2.
        q = l1 / (l2 * l2)
        if q > 1.0:
            return 0.0
        if q == 1.0:
            return (1.0 - l1) / 2.0
        return 1.0
    return therm / (therm + nopa)


@dataclass(frozen=True)
class DirectThreshold:
    """Direct (infinite-dimensional) entanglement threshold with regime tag."""

    threshold: float
    regime: str  # "never", "q>1", "q=1", "q<1"
    q: float


def direct_entanglement_threshold(r: float, s: float) -> DirectThreshold:
    """Infimum over m+n = k >= 1 of the pair-block negativity thresholds.

    The NOPA/thermal weight ratio of block k goes as q^k, with
    q = lambda1 / lambda2^2, so the infimum is a closed form: 0 for q > 1
    (entangled for every p > 0, which covers the whole r = s family),
    min(p_1, (1 - lambda1) / 2) for q = 1 and p_1, the k = 1 block, for
    q < 1.
    """
    l1, l2 = math.tanh(r), math.tanh(s)
    if l1 == 0.0:
        return DirectThreshold(threshold=1.0, regime="never", q=0.0)
    if l2 * l2 == 0.0:
        return DirectThreshold(threshold=0.0, regime="q>1", q=math.inf)
    q = l1 / (l2 * l2)
    if q > 1.0:
        return DirectThreshold(threshold=0.0, regime="q>1", q=q)
    p_1 = _entanglement_p_k(l1, l2, 1)
    if q == 1.0:
        return DirectThreshold(threshold=min(p_1, (1.0 - l1) / 2.0), regime="q=1", q=q)
    return DirectThreshold(threshold=p_1, regime="q<1", q=q)


def enumerated_entanglement_threshold(r: float, s: float,
                                      horizon: int = DEFAULT_HORIZON) -> float:
    """Minimum pair-block threshold over m+n <= horizon, without the limit.

    This is the finite object that bisection on the enumerated spectrum
    converges to; in the q > 1 regime it stays a horizon-dependent
    distance above the true infimum 0.
    """
    l1, l2 = math.tanh(r), math.tanh(s)
    if l1 == 0.0:
        return 1.0
    if l2 == 0.0:
        return 0.0
    return min(_entanglement_p_k(l1, l2, k) for k in range(1, horizon + 1))


def bisect_direct_threshold(r: float, s: float, tol_p: float = 1e-9,
                            horizon: int = DEFAULT_HORIZON) -> float:
    """Brute-force direct threshold: bisect p on the spectrum's infimum sign."""
    return _bisect_threshold(
        lambda p: ppt_spectrum_analytic(WernerParams(p=p, r=r, s=s), horizon).min_eigenvalue_estimate,
        tol_p)


def threshold_verdict(criterion: str, params: WernerParams, threshold: float) -> CriterionVerdict:
    """Verdict of a threshold in p: p > threshold, or p <= threshold for the
    separability bound, with the margin signed so that it is positive on
    the side the verdict asserts."""
    if criterion == SEPARABLE_SUFFICIENT:
        decision, margin = params.p <= threshold, threshold - params.p
    else:
        decision, margin = params.p > threshold, params.p - threshold
    return CriterionVerdict(criterion=criterion, decision=decision, threshold_p=threshold,
                            margin=margin, method="analytic")


@dataclass(frozen=True)
class GapInterval:
    """p-range where the full state is entangled but its qubit image is PPT."""

    lower: float  # direct entanglement threshold
    upper: float  # mapped entanglement threshold
    nonempty: bool
    extends_to_zero: bool  # every p > 0 up to `upper` is in the gap

    def as_tuple(self):
        return (self.lower, self.upper) if self.nonempty else None


def mapped_vs_direct_gap(r: float, s: float) -> GapInterval:
    """Interval of p entangled under the direct test yet PPT after mapping.

    ``extends_to_zero`` marks the strong form in which the whole interval
    (0, upper] consists of such states; it holds exactly when
    tanh r > tanh^2 s, i.e. when the direct threshold vanishes.
    """
    from .qubit_map import mapped_entanglement_threshold

    direct = direct_entanglement_threshold(r, s).threshold
    mapped = mapped_entanglement_threshold(r, s)
    nonempty = direct < mapped and mapped > 0.0
    return GapInterval(
        lower=direct,
        upper=mapped,
        nonempty=nonempty,
        extends_to_zero=nonempty and direct == 0.0,
    )


@dataclass(frozen=True)
class SeparabilityCells:
    """Cell decomposition of the Werner state over Fock-pair subspaces.

    The state splits into weights P_m on |m,m><m,m| plus 4x4 cells on
    span{|mm>, |mn>, |nm>, |nn>} with entries alpha, beta, gamma; summing
    the cells over ordered pairs (m, n), m != n, reassembles the state
    exactly.
    """

    params: WernerParams

    def P(self, m: int) -> float:
        p, l1, l2 = self.params.p, self.params.lambda1, self.params.lambda2
        return (
            p * (1 - l1 * l1) ** 2 * l1 ** (4 * m)
            + (1 - p) * (1 - l2 * l2) ** 2 * (1 - l2 ** 4) * l2 ** (8 * m)
        )

    def alpha(self, m: int, n: int) -> float:
        p, l1, l2 = self.params.p, self.params.lambda1, self.params.lambda2
        k = m + n
        return (
            p * (1 - l1 * l1) ** 2 * l1 ** (2 * k)
            + (1 - p) * (1 - l2 * l2) ** 2 * (1 - l2 ** 4) * l2 ** (4 * k)
        )

    def beta(self, m: int, n: int) -> float:
        p, l1 = self.params.p, self.params.lambda1
        return p * (1 - l1 * l1) * l1 ** (m + n)

    def gamma(self, m: int, n: int) -> float:
        p, l2 = self.params.p, self.params.lambda2
        return (1 - p) * (1 - l2 * l2) ** 2 * l2 ** (2 * (m + n))


def reconstruct_from_cells(params: WernerParams, cutoff: FockCutoff) -> np.ndarray:
    """Rebuild the truncated Werner matrix from its cell decomposition.

    Diagonal entries |m,m> accumulate alpha contributions from every
    partner n != m, including partners beyond the cutoff. Since
    alpha(m, n) = A l1^(2(m+n)) + B l2^(4(m+n)) with A = p (1 - l1^2)^2
    and B = (1 - p)(1 - l2^2)^2 (1 - l2^4), that sum is two geometric
    series over all n minus the n = m term:
    A l1^(2m) / (1 - l1^2) + B l2^(4m) / (1 - l2^4) - alpha(m, m).
    """
    cells = SeparabilityCells(params)
    n_max = cutoff.n_max
    data = np.zeros((n_max * n_max, n_max * n_max), dtype=np.complex128)
    p, l1, l2 = params.p, params.lambda1, params.lambda2
    a_weight = p * (1 - l1 * l1) ** 2
    b_weight = (1 - p) * (1 - l2 * l2) ** 2 * (1 - l2 ** 4)

    def flat(m, n):
        return m * n_max + n

    for m in range(n_max):
        partners = (a_weight * l1 ** (2 * m) / (1 - l1 * l1)
                    + b_weight * l2 ** (4 * m) / (1 - l2 ** 4) - cells.alpha(m, m))
        data[flat(m, m), flat(m, m)] = cells.P(m) + partners
    for m in range(n_max):
        for n in range(n_max):
            if m == n:
                continue
            data[flat(m, n), flat(m, n)] = cells.gamma(m, n)
            data[flat(m, m), flat(n, n)] += 0.5 * cells.beta(m, n)
            data[flat(n, n), flat(m, m)] += 0.5 * cells.beta(m, n)
    return data


def _positivity_p_k(l1: float, l2: float, k: int) -> float:
    """Largest p keeping the m+n = k cell positive semidefinite (alpha >= beta)."""
    if l1 == 0.0:
        return 1.0
    if l2 == 0.0:
        return 0.0
    nopa = (1 - l1 * l1) * l1 ** k
    therm = (1 - l2 * l2) ** 2 * (1 - l2 ** 4) * l2 ** (4 * k)
    if therm == 0.0:
        # Underflow of the thermal cell weight; resolve by the k -> infinity
        # limit governed by q_tilde = l1 / l2^4.
        return 0.0 if nopa > 0.0 else (0.0 if l1 > l2 ** 4 else 1.0)
    # alpha >= beta  <=>  p * nopa * (1 - nopa) <= (1 - p) * therm
    return 1.0 / (1.0 + nopa * (1.0 - nopa) / therm)


def largest_separable_p(r: float, s: float) -> float:
    """Largest p for which the cell decomposition certifies separability.

    The bound is the infimum over k = m+n >= 1 of the per-cell PPT bound
    (gamma >= beta) and positivity bound (alpha >= beta), closed with the
    k -> infinity limits governed by q = lambda1 / lambda2^2 and
    q_tilde = lambda1 / lambda2^4. Both infima are closed forms. The PPT
    bound is the direct threshold's, least at k = 1 when q < 1. The
    positivity bound is least where f(k) = q_tilde^k - c (q_tilde lambda1)^k,
    c = 1 - lambda1^2, is greatest; for q_tilde < 1, f rises to its one
    stationary point
    k* = ln(ln q_tilde / (c ln(q_tilde lambda1))) / ln lambda1
    and falls after it, so over k >= 1 the least bound lies at k = 1,
    floor(k*) or ceil(k*).
    """
    l1, l2 = math.tanh(r), math.tanh(s)
    if l1 == 0.0:
        return 1.0  # diagonal mixture of products for every p
    if l2 ** 4 == 0.0:
        return 0.0  # q_tilde is infinite
    q = l1 / l2 ** 2
    q_tilde = l1 / l2 ** 4
    if q > 1.0 or q_tilde > 1.0:
        return 0.0
    ks = {1}
    if q_tilde < 1.0:
        log_qt, log_l1 = math.log(q_tilde), math.log(l1)
        k_star = math.log(log_qt / ((1.0 - l1 * l1) * (log_qt + log_l1))) / log_l1
        ks.update(k for k in (math.floor(k_star), math.ceil(k_star)) if k >= 1)
    best = min(_entanglement_p_k(l1, l2, 1), *(_positivity_p_k(l1, l2, k) for k in ks))
    if q == 1.0:
        best = min(best, (1.0 - l1) / 2.0)
    if q_tilde == 1.0:
        limit = 1.0 / (1.0 + (1 - l1 * l1) / ((1 - l2 * l2) ** 2 * (1 - l2 ** 4)))
        best = min(best, limit)
    return best


def q_tilde_one_bound(s: float) -> float:
    """Separability bound on the q_tilde = 1 surface, in closed form."""
    l2 = math.tanh(s)
    return (1 - l2 * l2) ** 2 / (2.0 * (1 - l2 * l2 + l2 ** 4))


# ---------------------------------------------------------------------------
# Squeezing
# ---------------------------------------------------------------------------

# Quadrature convention: x = (a + a^dag) / sqrt(2), so the vacuum variance of
# x_A - x_B is exactly 1 and the squeezing boundary is Var < 1.

SQUEEZING_CONSISTENCY_TOL = 1e-6


def quadrature_x(n_max: int) -> np.ndarray:
    """Position quadrature matrix on a truncated single mode."""
    a = np.diag(np.sqrt(np.arange(1, n_max)), 1).astype(np.complex128)
    return (a + a.conj().T) / math.sqrt(2.0)


def squeezing_variance_analytic(params: WernerParams) -> float:
    """Var(x_A - x_B) of the mixture: p e^{-2r} + (1-p) cosh(2s)."""
    return params.p * math.exp(-2.0 * params.r) + (1.0 - params.p) * math.cosh(2.0 * params.s)


def squeezing_threshold(r: float, s: float) -> float:
    """Probability above which Var(x_A - x_B) < 1.

    Derived from the mixture variance; for r = s this reduces to tanh r.
    Returns 0 when the thermal part is vacuum (any p > 0 squeezes) and 1
    when r = 0 (no mixing probability squeezes).
    """
    if r == 0.0:
        return 1.0
    c = math.cosh(2.0 * s)
    return (c - 1.0) / (c - math.exp(-2.0 * r))


def published_squeezing_threshold(r: float, n_thermal: float) -> float:
    """Squeezing threshold as printed in the reference derivation.

    Kept verbatim for comparison; it disagrees with the first-principles
    mixture variance (see ``squeezing_threshold``), which the direct
    matrix computation confirms.
    """
    return 1.0 / (1.0 + (1.0 - math.exp(-2.0 * r)) / (1.0 + 4.0 * n_thermal))


def published_squeezing_threshold_lambda_form(lam: float) -> float:
    """Equal-parameter (r = s) lambda form of the printed threshold."""
    return 1.0 / (1.0 + 2.0 * lam * (1.0 - lam * lam) / ((1.0 + lam) * (1.0 + 3.0 * lam * lam)))


# At the ceiling the banded vectors of squeezing_variance_direct take a few
# tens of MB.
MOMENT_TAIL_BOUND = 1e-9
MOMENT_LEVELS_FLOOR = 16
MOMENT_LEVELS_CEILING = 2 ** 20


def _moment_tail(lam: float, n: int) -> float:
    """Sum over k >= n of (1 - lam^2) lam^(2k) (2k + 1), in closed form."""
    return lam ** (2 * n) * ((2 * n + 1) + 2.0 * lam * lam / (1.0 - lam * lam))


def _moment_cutoff(params: WernerParams) -> int:
    """Smallest power of two (>= 16) whose second-moment tail is <= 1e-9.

    Raises CutoffTooSmallError, carrying the level count that would be
    needed, when that exceeds MOMENT_LEVELS_CEILING.
    """
    lam = max(params.lambda1, params.lambda2)
    if lam >= 1.0:
        raise CutoffTooSmallError(
            f"squeezing moments of (r={params.r}, s={params.s}) have no finite "
            "cutoff: tanh saturates to 1", minimal_n_max=None)
    n = MOMENT_LEVELS_FLOOR
    while _moment_tail(lam, n) > MOMENT_TAIL_BOUND:
        n *= 2
    if n > MOMENT_LEVELS_CEILING:
        raise CutoffTooSmallError(
            f"squeezing moments of (r={params.r}, s={params.s}) need {n} Fock "
            f"levels for a tail <= {MOMENT_TAIL_BOUND:g}, above the ceiling of "
            f"{MOMENT_LEVELS_CEILING}", minimal_n_max=n)
    return n


def squeezing_variance_direct(params: WernerParams, n_max: int | None = None) -> float:
    """Var(x_A - x_B) from truncated matrix algebra, component by component.

    On n_max levels x = (a + a^dag) / sqrt(2) is tridiagonal with
    off-diagonal e_i = sqrt((i + 1) / 2), and the squeezed vacuum is
    diagonal in the two-mode basis, psi = diag(c), c_k = sqrt(1 - l1^2) l1^k.
    So (x_A - x_B)|psi> lives on the two off-diagonals, with entries
    +-e_i (c_{i+1} - c_i), and has mean zero; the thermal part needs only
    diag(x^2)_k = e_{k-1}^2 + e_k^2, whose last entry is cut at the
    truncation edge, since diag(x) = 0. Every sum is O(n_max) on vectors.
    """
    n = n_max if n_max is not None else _moment_cutoff(params)
    levels = np.arange(n, dtype=np.float64)
    l1 = params.lambda1
    amps = math.sqrt(1.0 - l1 * l1) * l1 ** levels
    # 2 e_i^2 (c_{i+1} - c_i)^2 with c_{i+1} - c_i = -(1 - l1) c_i.
    var_nopa = float(((1.0 - l1) ** 2 * (levels[1:] * amps[:-1] ** 2)).sum())

    l2 = params.lambda2
    probs = (1.0 - l2 * l2) * l2 ** (2.0 * levels)
    # 2 diag(x^2): 2k + 1 below the edge, n - 1 on the last level.
    var_thermal = float((probs * (2.0 * levels + 1.0)).sum()) - n * float(probs[-1])

    return params.p * var_nopa + (1.0 - params.p) * var_thermal


def squeezing_variance_dense(rho: TwoModeDensityMatrix) -> float:
    """Var(x_A - x_B) straight from a dense two-mode matrix (small cutoffs)."""
    from .fock_core import expectation, tensor_product

    n = rho.n_max
    x = quadrature_x(n)
    eye = np.eye(n, dtype=np.complex128)
    big_x = tensor_product(x, eye) - tensor_product(eye, x)
    mean = expectation(rho, big_x)
    second = expectation(rho, big_x @ big_x)
    return second - mean * mean


def squeezing_criterion(params: WernerParams) -> CriterionVerdict:
    """Squeezing verdict with a built-in closed-form vs matrix cross-check."""
    analytic = squeezing_variance_analytic(params)
    direct = squeezing_variance_direct(params)
    if abs(analytic - direct) > SQUEEZING_CONSISTENCY_TOL:
        raise NumericalConsistencyError(
            f"squeezing variance mismatch: analytic {analytic} vs direct {direct}"
        )
    return CriterionVerdict(
        criterion=SQUEEZED,
        decision=direct < 1.0,
        threshold_p=squeezing_threshold(params.r, params.s),
        margin=1.0 - direct,
        method="both",
    )
