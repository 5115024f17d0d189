"""Direct entanglement, separability and squeezing analysis of the Werner state.

The partially transposed Werner state is block diagonal: 1x1 blocks on
|l,l> and 2x2 blocks on span{|m,n>, |n,m>} for m != n, so its full
spectrum is available in closed form. Every closed-form verdict here is
cross-checkable against brute-force computation on the truncated matrix.

The weights of those blocks and of the separability cells live in one
table, ``_block_weights``; the k -> infinity regime rule lives in one
function, ``_limit``, which the pair blocks (q = lambda1 / lambda2^2) and
the cells (q_tilde = lambda1 / lambda2^4) both call. The separable bound
is built on the direct threshold. The printed thresholds and the
``validate`` partners of the enumerated spectrum and the cell
reconstruction all read the table, so ``validate`` checks against the
brute-force state the weights the thresholds use. The cell reconstruction
is triplets on the state's own positions (``states._werner_layout``), so
no d x d matrix is made. The direct threshold's
partner, ``direct_threshold_pencil``, reads no weight: it solves the
pencil of the truncated state's partial transpose at p = 1 against its
diagonal at p = 0 once, for the closed form of the same truncation.
The per-(m,n) inequalities of the cell decomposition are authoritative
where the reference closed forms for the regime bounds are inconsistent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalConsistencyError, ParameterRangeError
from .fock_core import FockCutoff, TwoModeDensityMatrix, _check_n_max, partial_transpose_A
from .numerics import _pattern_eigenvalues, _pencil_threshold
from .states import WernerParams, _check_rs, _werner_layout, werner_state
from .tolerances import CROSS_CHECK_TOL

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
    threshold_p: float
    margin: float
    method: str  # "analytic" (closed form) or "both" (closed form, matrix-checked)


def _block_weights(l1: float, l2: float, k, cell=False, thermal=1.0, nopa=1.0):
    """The table of p-free block weights at m+n = k, thermal weight first,
    for an int k or elementwise for an integer array k:

    - pair blocks: the thermal t_k = (1 - l2^2)^2 l2^(2k) and the NOPA
      coherence c_k = (1 - l1^2) l1^k;
    - cells (``cell=True``): the thermal b_k = (1 - l2^2)^2 (1 - l2^4) l2^(4k)
      and c_k, whose square is the NOPA cell weight.

    ``thermal`` and ``nopa`` scale the two (by 1 - p and p) before the
    powers are taken, so they cost no array operation.
    """
    thermal *= (1 - l2 * l2) ** 2
    coherence = nopa * (1 - l1 * l1) * l1 ** k
    if cell:
        return thermal * (1 - l2 ** 4) * l2 ** (4 * k), coherence
    return thermal * l2 ** (2 * k), coherence


def _pair_terms(params: WernerParams, k):
    """Thermal diagonal (1 - p) t_k and NOPA coherence p c_k of the pair
    blocks with m+n = k, for an int k or elementwise for an integer array k."""
    return _block_weights(params.lambda1, params.lambda2, k, thermal=1 - params.p, nopa=params.p)


def enumerate_ppt_spectrum(params: WernerParams, n_max: int) -> np.ndarray:
    """All analytic eigenvalues of the truncated partial transpose, sorted:
    base + off at m+n = 2l for each level |l,l>, and base +- off for each
    pair m < n."""
    n_max = _check_n_max(n_max)
    diag = np.add(*_pair_terms(params, 2 * np.arange(n_max)))
    m, n = np.triu_indices(n_max, 1)
    base, off = _pair_terms(params, m + n)
    return np.sort(np.concatenate([diag, base + off, base - off]))


def ppt_spectrum_bruteforce(params: WernerParams, cutoff: FockCutoff) -> np.ndarray:
    """Eigenvalues of the partially transposed truncated state, sorted.

    The state is built as its nonzero pattern, gated once at
    construction, with no dense matrix made; the partial transpose
    permutes that pattern and the eigensolver splits it into blocks.
    """
    return _ppt_spectrum(werner_state(params, cutoff))


def _ppt_spectrum(rho: TwoModeDensityMatrix) -> np.ndarray:
    """``ppt_spectrum_bruteforce`` of a state already built; ``validate``
    reads the same state for its cell check."""
    return _pattern_eigenvalues(rho.cutoff.dim, *partial_transpose_A(rho)).eigenvalues


def _limit(l1: float, l2_power: float, at_one) -> float:
    """k -> infinity limit of block bounds whose NOPA/thermal weight ratio
    goes as q^k, q = l1 / l2_power: 1 for q < 1 or l1 = 0, ``at_one()`` for
    q = 1, 0 for q > 1 or an underflowed l2_power (q infinite)."""
    if l1 == 0.0:
        return 1.0
    if l2_power == 0.0:
        return 0.0
    q = l1 / l2_power
    if q > 1.0:
        return 0.0
    return at_one() if q == 1.0 else 1.0


def _entanglement_limit(l1: float, l2: float) -> float:
    """``_limit`` of the pair-block thresholds: q = l1 / l2^2, (1 - l1) / 2 at q = 1."""
    return _limit(l1, l2 * l2, lambda: (1.0 - l1) / 2.0)


def _entanglement_p_k(l1: float, l2: float, k: int) -> float:
    """Threshold probability at which the (m, n) pair block with m+n = k
    acquires a negative partial-transpose eigenvalue, t_k / (t_k + c_k).

    Where both weights underflow, their ratio is taken in logs as
    (c_0 / t_0) q^k, q = l1 / l2^2. With l1 = 0 or an underflowed l2^2
    that ratio is 0 or infinite, and the block takes the k -> infinity
    limit of ``_entanglement_limit``.
    """
    therm, nopa = _block_weights(l1, l2, k)
    total = therm + nopa
    if total != 0.0:
        return therm / total
    if l1 == 0.0 or l2 * l2 == 0.0:
        return _entanglement_limit(l1, l2)
    t_0, c_0 = _block_weights(l1, l2, 0)
    log_ratio = math.log(c_0 / t_0) + k * math.log(l1 / (l2 * l2))
    if log_ratio > 0.0:
        ratio = math.exp(-log_ratio)
        return ratio / (1.0 + ratio)
    return 1.0 / (1.0 + math.exp(log_ratio))


def direct_entanglement_threshold(r: float, s: float, n_max: int | None = None) -> float:
    """Infimum over m+n = k >= 1 of the pair-block negativity thresholds.

    The block thresholds fall or rise monotonically in k, so the infimum
    is min(p_1, limit), with the k = 1 block p_1 and the k -> infinity
    limit of ``_entanglement_limit``: 0 for q > 1, which covers the whole
    r = s family. With ``n_max``, it is the threshold of the state
    truncated to n_max levels per mode, min(p_1, p_K): the largest pair
    block m < n < n_max has K = 2 n_max - 3. K = 2 n_max - 2 is a trap:
    that k is held only by the 1x1 block |n_max - 1, n_max - 1>, which is
    never negative. Where both weights of block K underflow to 0, p_K is
    1 / (1 + (c_0 / t_0) q^K), taken in logs (``_entanglement_p_k``).
    The float pencil ``direct_threshold_pencil`` lacks such underflowed
    blocks: at r = 1e-10, s = 1e-5, n_max = 24 it reads 0.4999999994,
    where p_K = 0.49999999920000143.
    """
    _check_rs(r, s)
    l1, l2 = math.tanh(r), math.tanh(s)
    last = (_entanglement_limit(l1, l2) if n_max is None
            else _entanglement_p_k(l1, l2, 2 * _check_n_max(n_max) - 3))
    return min(_entanglement_p_k(l1, l2, 1), last)


def direct_threshold_pencil(r: float, s: float, n_max: int) -> float:
    """Brute-force direct threshold of the state truncated to n_max levels
    per mode: the partial transpose of the mixture is p PT(NOPA) +
    (1 - p) thermal (x) thermal, whose thermal part is diagonal, so the
    threshold is one eigensolve of that pencil (``numerics._pencil_threshold``)
    on the states at p = 1 and p = 0."""
    cutoff = FockCutoff(n_max=n_max, tail_bound=1.0 - 1e-15)
    nopa = werner_state(WernerParams(p=1.0, r=r, s=s), cutoff)
    # The thermal product is diagonal, so its pattern holds only diagonal entries.
    rows, _, values = werner_state(WernerParams(p=0.0, r=r, s=s), cutoff).pattern
    floor = np.zeros(cutoff.dim)
    floor[rows] = values
    return _pencil_threshold(cutoff.dim, *partial_transpose_A(nopa), floor)


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


def reconstruct_from_cells(params: WernerParams, n_max: int):
    """Rebuild the Werner matrix truncated to n_max levels per mode from its
    cell decomposition, as triplets on the state's layout (``_werner_layout``).

    The state is the sum of weights P_m on |m,m><m,m| and of 4x4 cells on
    span{|mm>, |mn>, |nm>, |nn>} over ordered pairs m != n. With k = m + n,
    the cell entries are the pair terms gamma = (1 - p) t_k and beta = p c_k
    of ``_pair_terms`` and alpha = p c_k^2 + (1 - p) b_k; P_m = alpha(m, m).
    So |m,n> takes gamma, |m,m><n,n| beta (half from each of two cells), and
    |m,m> the sum of alpha(m, n) over all n >= 0, partners beyond the cutoff
    included: a geometric series over k >= m for each cell weight, whose
    ratio is that of its values at k = 1 and k = 0.
    """
    n_max = _check_n_max(n_max)
    levels = np.arange(n_max)
    # k = m + n as a table: beta on |m,m><n,n|, gamma raveled on |m,n> (flat index m n_max + n).
    k = np.add.outer(levels, levels)
    gamma, beta = _pair_terms(params, k)
    thermal, coherence = _block_weights(params.lambda1, params.lambda2, levels, cell=True)
    beta[levels, levels] = (params.p * coherence ** 2 / (1 - (coherence[1] / coherence[0]) ** 2)
                            + (1 - params.p) * thermal / (1 - thermal[1] / thermal[0]))
    return _werner_layout(beta, gamma.ravel())


def _positivity_limit(l1: float, l2: float) -> float:
    """``_limit`` of the cell positivity bounds: q_tilde = l1 / l2^4,
    1 / (1 + c_0 / b_0) at q_tilde = 1."""
    def at_one():
        therm, nopa = _block_weights(l1, l2, 0, cell=True)
        return 1.0 / (1.0 + nopa / therm)
    return _limit(l1, l2 ** 4, at_one)


def _positivity_p_k(l1: float, l2: float, k: int) -> float:
    """Largest p keeping the m+n = k cell positive semidefinite (alpha >= beta)."""
    therm, nopa = _block_weights(l1, l2, k, cell=True)
    if therm == 0.0:
        # Underflow of the thermal cell weight: a live NOPA weight dominates,
        # and where both underflow the k -> infinity limit decides.
        return 0.0 if nopa > 0.0 else _positivity_limit(l1, l2)
    # alpha >= beta  <=>  p * nopa * (1 - nopa) <= (1 - p) * therm
    return 1.0 / (1.0 + nopa * (1.0 - nopa) / therm)


def largest_separable_p(r: float, s: float) -> float:
    """Largest p for which the cell decomposition certifies separability.

    The bound is the infimum over k = m+n >= 1 of the per-cell PPT bound
    (gamma >= beta) and positivity bound (alpha >= beta). The PPT bound is
    the pair blocks' negativity threshold, so its infimum is
    ``direct_entanglement_threshold``. The positivity bounds are closed
    with their k -> infinity limit, ``_positivity_limit``: the one regime
    rule ``_limit`` that also closes the pair blocks, here with
    q_tilde = lambda1 / lambda2^4. The positivity bound is least where
    f(k) = q_tilde^k - c (q_tilde lambda1)^k, c = c_0 = 1 - lambda1^2, is
    greatest; for q_tilde < 1, f rises to its one stationary point
    k* = ln(ln q_tilde / (c ln(q_tilde lambda1))) / ln lambda1
    and falls after it, so over k >= 1 the least bound lies at k = 1,
    floor(k*) or ceil(k*).
    """
    direct = direct_entanglement_threshold(r, s)
    l1, l2 = math.tanh(r), math.tanh(s)
    bound = min(direct, _positivity_limit(l1, l2))
    # A zero bound covers an underflowed l2^4; at l1 = 0 no cell has
    # coherence, and the bound is 1.
    if bound == 0.0 or l1 == 0.0:
        return bound
    ks = {1}
    q_tilde = l1 / l2 ** 4
    if q_tilde < 1.0:
        log_qt, log_l1 = math.log(q_tilde), math.log(l1)
        k_star = math.log(log_qt / (_block_weights(l1, l2, 0)[1] * (log_qt + log_l1))) / log_l1
        ks.update(k for k in (math.floor(k_star), math.ceil(k_star)) if k >= 1)
    return min(bound, *(_positivity_p_k(l1, l2, k) for k in ks))


# ---------------------------------------------------------------------------
# Squeezing
# ---------------------------------------------------------------------------

# Quadrature convention: x = (a + a^dag) / sqrt(2), so the vacuum variance of
# x_A - x_B is exactly 1 and the squeezing boundary is Var < 1.

# Fock levels of the banded cross-check; it is compared with the closed form
# of the same truncation, so no tail enters its tolerance.
SQUEEZING_CHECK_LEVELS = 64


def squeezing_variance_analytic(params: WernerParams) -> float:
    """Var(x_A - x_B) of the mixture: p e^{-2r} + (1-p) cosh(2s)."""
    return params.p * math.exp(-2.0 * params.r) + (1.0 - params.p) * math.cosh(2.0 * params.s)


def squeezing_threshold(r: float, s: float) -> float:
    """Probability above which Var(x_A - x_B) < 1.

    Derived from the mixture variance; for r = s this reduces to tanh r.
    Returns 0 when the thermal part is vacuum (any p > 0 squeezes) and 1
    when r = 0 (no mixing probability squeezes).
    """
    _check_rs(r, s)
    if r == 0.0:
        return 1.0
    # (cosh 2s - 1) / (cosh 2s - e^{-2r}) without cancellation: both
    # differences round to 0 when r and s are tiny.
    a = 2.0 * math.sinh(s) ** 2
    return a / (a - math.expm1(-2.0 * r))


def published_squeezing_threshold(r: float, n_thermal: float) -> float:
    """Squeezing threshold as printed in the reference derivation.

    Kept verbatim for comparison; it disagrees with the first-principles
    mixture variance (see ``squeezing_threshold``), which the direct
    matrix computation confirms.
    """
    _check_rs(r)
    if not (math.isfinite(n_thermal) and n_thermal >= 0.0):
        raise ParameterRangeError(f"n_thermal must be finite and >= 0, got {n_thermal}")
    return 1.0 / (1.0 + (1.0 - math.exp(-2.0 * r)) / (1.0 + 4.0 * n_thermal))


def published_squeezing_threshold_lambda_form(lam: float) -> float:
    """Equal-parameter (r = s) lambda form of the printed threshold."""
    if not 0.0 <= lam < 1.0:
        raise ParameterRangeError(f"lambda must lie in [0, 1), got {lam}")
    return 1.0 / (1.0 + 2.0 * lam * (1.0 - lam * lam) / ((1.0 + lam) * (1.0 + 3.0 * lam * lam)))


def squeezing_variance_direct(params: WernerParams, n_max: int = SQUEEZING_CHECK_LEVELS) -> float:
    """Var(x_A - x_B) from truncated matrix algebra, component by component.

    On n_max levels x = (a + a^dag) / sqrt(2) is tridiagonal with
    off-diagonal e_i = sqrt((i + 1) / 2), and the squeezed vacuum is
    diagonal in the two-mode basis, psi = diag(c), c_k = sqrt(1 - l1^2) l1^k.
    So (x_A - x_B)|psi> lives on the two off-diagonals, with entries
    +-e_i (c_{i+1} - c_i), and has mean zero; the thermal part needs only
    diag(x^2)_k = e_{k-1}^2 + e_k^2, whose last entry is cut at the
    truncation edge, since diag(x) = 0. Every sum is O(n_max) on vectors.
    """
    n_max = _check_n_max(n_max)
    levels = np.arange(n_max, dtype=np.float64)
    l1 = params.lambda1
    amps = math.sqrt(1.0 - l1 * l1) * l1 ** levels
    # 2 e_i^2 (c_{i+1} - c_i)^2 with c_{i+1} - c_i = -(1 - l1) c_i.
    var_nopa = float(((1.0 - l1) ** 2 * (levels[1:] * amps[:-1] ** 2)).sum())

    l2 = params.lambda2
    probs = (1.0 - l2 * l2) * l2 ** (2.0 * levels)
    # 2 diag(x^2): 2k + 1 below the edge, n - 1 on the last level.
    var_thermal = float((probs * (2.0 * levels + 1.0)).sum()) - n_max * float(probs[-1])

    return params.p * var_nopa + (1.0 - params.p) * var_thermal


def _geometric(x: float, m: int) -> tuple[float, float]:
    """sum_{k<m} x^k and x^m for 0 <= x < 1 and m >= 1, with
    -expm1(m ln x) / (1 - x) in place of (1 - x^m) / (1 - x), which loses
    the digits of x^m when x is near 1."""
    if x == 0.0:
        return 1.0, 0.0
    one_minus = 1.0 - x
    log_x = math.log1p(-one_minus) if x >= 0.5 else math.log(x)
    return -math.expm1(m * log_x) / one_minus, math.exp(m * log_x)


def _truncated_squeezing_variance(params: WernerParams, n: int) -> float:
    """Closed form of squeezing_variance_direct on n >= 2 levels.

    With x = l1^2 and y = l2^2 the banded sums are arithmetico-geometric:
    the NOPA part is (1 - l1)^2 [G_x(n-1) - (n-1) x^(n-1)] and the thermal
    part 1 + 2y G_y(n-1) - (n + (n-1) y) y^(n-1), with G_x(m) = sum_{k<m} x^k.
    """
    l1, l2 = params.lambda1, params.lambda2
    x, y = l1 * l1, l2 * l2
    g_x, x_pow = _geometric(x, n - 1)
    var_nopa = (1.0 - l1) ** 2 * (g_x - (n - 1) * x_pow)
    g_y, y_pow = _geometric(y, n - 1)
    var_thermal = 1.0 + 2.0 * y * g_y - (n + (n - 1) * y) * y_pow
    return params.p * var_nopa + (1.0 - params.p) * var_thermal


def _squeezing_check(params: WernerParams) -> tuple[float, float, float]:
    """|banded - closed form| at SQUEEZING_CHECK_LEVELS, then the two variances;
    ``squeezing_criterion`` and ``validate`` hold it to CROSS_CHECK_TOL."""
    banded = squeezing_variance_direct(params)
    truncated = _truncated_squeezing_variance(params, SQUEEZING_CHECK_LEVELS)
    return abs(banded - truncated), banded, truncated


def squeezing_criterion(params: WernerParams) -> CriterionVerdict:
    """Squeezing verdict from the closed-form variance; the banded variance
    is checked against the closed form of the same truncation."""
    deviation, banded, truncated = _squeezing_check(params)
    if deviation > CROSS_CHECK_TOL:
        raise NumericalConsistencyError(
            f"squeezing variance mismatch at {SQUEEZING_CHECK_LEVELS} levels: "
            f"banded {banded} vs closed form {truncated}")
    variance = squeezing_variance_analytic(params)
    return CriterionVerdict(
        criterion=SQUEEZED,
        decision=variance < 1.0,
        threshold_p=squeezing_threshold(params.r, params.s),
        margin=1.0 - variance,
        method="both",
    )
