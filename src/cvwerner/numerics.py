"""Self-contained numerical kernels.

Two pieces: an eigensolver for real symmetric or complex Hermitian
matrices and the one 1-D quadrature rule, ``integrate_line``. The
eigensolver works in two tiers on (rows, cols, values) triplets:
``hermitian_eigenvalues`` takes
them from a dense matrix in one scan and the brute-force partial-transpose
spectrum passes them in directly from the state's own pattern. Both
patterns have passed the library's one gate on triplets,
``_check_pattern``: the dense scan runs it, and so does the state's
constructor. The first tier reads the
1x1 and 2x2 blocks off a count of each index's off-diagonal entries: an
index with none is a 1x1 block, its diagonal entry, and two indices
whose only entries are each other's mirror pair are a 2x2 block, solved
by one closed-form rotation. The second tier takes every index left over
as one dense block, reduces it to real tridiagonal form by complex
Householder reflections and solves it by Sturm-count bisection. Every
matrix the library builds (the Fock partial transpose, the 4x4 qubit
partial transpose, T^T T) is real and splits into blocks of size at
most 2, so none of them reaches the second tier. ``integrate_line`` owns
the whole quadrature decision: from the variance of the integrand's
narrowest Gaussian factor it sizes a uniform grid of fixed length,
samples the integrand there, rejects it if it has not decayed at the
ends, and applies the trapezoid rule. Multi-dimensional integrals in this library
are separable and are built from products of these 1-D integrals. Both
pieces avoid any external linear-algebra backend so every eigenvalue and
integral produced by this library is reproducible from first principles.
The two brute-force threshold partners share ``_pencil_threshold``: the
Werner mixture is affine in p, so where a truncation or the qubit map
first loses positivity under partial transpose is one generalized
eigenvalue of the pencil p A + (1 - p) diag(floor), not a root search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tolerances as tol
from .errors import (
    DimensionMismatchError,
    DomainTooSmallError,
    HermiticityError,
    NumericalConsistencyError,
)


@dataclass(frozen=True)
class EigenResult:
    """Ascending eigenvalues plus an absolute bound on their error.

    ``max_residual`` bounds |computed - exact| over all eigenvalues. It is
    0 when every block of the nonzero pattern is a 1x1 block or a mirrored
    2x2 block, since those are solved in closed form. Otherwise it is the
    final Sturm-bisection half-width of the one d x d block of leftover
    indices plus d * eps * ||block||_F, the backward error of its
    Householder reduction. The bound is absolute: an eigenvalue much
    smaller than the block norm can carry a large relative error.
    """

    eigenvalues: np.ndarray
    max_residual: float


def _at_keys(keys: np.ndarray, values: np.ndarray, wanted: np.ndarray) -> np.ndarray:
    """``values`` at the flat keys ``wanted`` (0 where absent), searched in sorted ``keys``."""
    at = np.searchsorted(keys, wanted)
    return np.where(keys.take(at, mode="clip") == wanted, values.take(at, mode="clip"), 0.0)


# Underscored: perfbench's tracer wraps only public names, so the time of
# the check stays charged to the eigensolve or state construction calling it.
def _check_pattern(n: int, rows: np.ndarray, cols: np.ndarray, values: np.ndarray) -> None:
    """The one gate of every matrix stored or solved, on its nonzero pattern
    ``(rows, cols, values)`` as an n x n matrix.

    Raises DimensionMismatchError unless the three are 1-D of one length,
    every index lies in [0, n) and the flat keys row * n + col strictly
    increase (row-major, no position repeated); HermiticityError on a
    non-finite value, and when the largest |a_rc - conj(a_cr)| exceeds
    HERMITICITY_TOL times max(1, max |a|). Each entry's mirror is found by
    its flat key, and an absent mirror is 0, so the deviation equals the
    dense maximum; on the diagonal it is 2 |Im a_rr|.
    """
    if not (rows.ndim == 1 and rows.shape == cols.shape == values.shape):
        raise DimensionMismatchError(
            f"pattern parts must be 1-D of one length, got shapes "
            f"{rows.shape}, {cols.shape}, {values.shape}")
    if not values.size:
        return
    low, high = cols.min(), cols.max()
    if low < 0 or high >= n:
        raise DimensionMismatchError(
            f"pattern column {low if low < 0 else high} outside a {n} x {n} matrix")
    keys = rows * n + cols
    if not (keys[1:] > keys[:-1]).all():
        raise DimensionMismatchError("pattern positions must be row-major with none repeated")
    # With every column in range and the keys increasing, the rows lie in
    # range exactly when the first and last keys do.
    if keys[0] < 0 or keys[-1] >= n * n:
        raise DimensionMismatchError(
            f"pattern row {rows[0] if keys[0] < 0 else rows[-1]} outside a {n} x {n} matrix")
    if not np.isfinite(values).all():
        i = int(np.argmin(np.isfinite(values)))
        raise HermiticityError(
            f"matrix entry ({rows[i]}, {cols[i]}) is not finite: {values[i]}")
    deviation = float(np.abs(values - _at_keys(keys, values, cols * n + rows).conj()).max())
    if deviation > tol.HERMITICITY_TOL * max(1.0, float(np.abs(values).max())):
        raise HermiticityError(f"matrix is not Hermitian: max deviation {deviation:.3e}")


def _nonzero_pattern(a: np.ndarray):
    """Nonzero pattern ``(rows, cols, values)`` of a dense square matrix,
    row-major, passed through ``_check_pattern``."""
    # flatnonzero of the mask is several times faster than 2-D np.nonzero
    # on a sparse pattern; NaN != 0, so non-finite entries are kept.
    rows, cols = np.divmod(np.flatnonzero(a != 0), a.shape[1])
    values = a[rows, cols]
    _check_pattern(a.shape[0], rows, cols, values)
    return rows, cols, values


def _two_by_two(app: np.ndarray, aqq: np.ndarray, apq: np.ndarray) -> np.ndarray:
    """Eigenvalues of many 2x2 Hermitian blocks by one Jacobi rotation each,
    vectorised over the blocks.

    The rotation angle annihilates the off-diagonal pair:
    tan(2 theta) = 2 |a_pq| / (a_qq - a_pp).
    """
    mag = np.abs(apq)
    theta = 0.5 * np.arctan2(2.0 * mag, aqq - app)
    c, s = np.cos(theta), np.sin(theta)
    cs = 2.0 * c * s * mag
    return np.concatenate([c * c * app + s * s * aqq - cs, s * s * app + c * c * aqq + cs])


def _tridiagonalize(block: np.ndarray):
    """Real tridiagonal (diagonal, |off-diagonal|) unitarily similar to a block.

    Householder reflections H = 1 - tau v v^H zero each column below its
    subdiagonal; the trailing submatrix takes the rank-2 update
    A - v w^H - w v^H. The subdiagonal entries come out complex, and a
    diagonal phase similarity makes them their moduli.
    """
    a = block.copy()
    m = a.shape[0]
    diag = np.empty(m)
    off = np.empty(m - 1)
    for k in range(m - 2):
        diag[k] = a[k, k].real
        x = a[k + 1:, k]
        if not np.any(x[1:]):
            off[k] = abs(x[0])
            continue
        peak = np.abs(x).max()
        y = x / peak  # the reflection depends only on the direction of x
        norm = float(np.sqrt((np.abs(y) ** 2).sum()))
        y0 = abs(y[0])
        v = y.copy()
        v[0] += (y[0] / y0 if y0 else 1.0) * norm
        tau = 1.0 / (norm * (norm + y0))
        off[k] = norm * peak
        trailing = a[k + 1:, k + 1:]
        p = tau * (trailing @ v)
        w = p - (0.5 * tau * np.vdot(v, p)) * v
        vw = np.stack([v, w], axis=1)
        trailing -= vw @ vw[:, ::-1].conj().T
    diag[m - 2] = a[m - 2, m - 2].real
    diag[m - 1] = a[m - 1, m - 1].real
    off[m - 2] = abs(a[m - 1, m - 2])
    return diag, off


def _sturm_bisection(diag: np.ndarray, off: np.ndarray):
    """All eigenvalues of a real symmetric tridiagonal matrix, ascending.

    Bisects every eigenvalue at once from the Gershgorin interval; the
    Sturm count of pivots below x is the number of eigenvalues below x
    (Barth, Martin and Wilkinson 1967). A pivot smaller than pivmin is
    replaced by -pivmin, as in LAPACK's dstebz. Returns the bracket
    midpoints and the largest final half-width.
    """
    m = diag.size
    eps = np.finfo(float).eps
    e2 = off * off
    pivmin = np.finfo(float).tiny * max(1.0, float(e2.max()))
    radius = np.concatenate([off, [0.0]]) + np.concatenate([[0.0], off])
    lo = float((diag - radius).min())
    hi = float((diag + radius).max())
    scale = max(abs(lo), abs(hi))
    slack = 2.1 * (m * eps * scale + 2.0 * pivmin)
    lo, hi = lo - slack, hi + slack
    width = 2.0 * eps * scale
    steps = max(0, math.ceil(math.log2((hi - lo) / width))) if width > 0 else 0
    index = np.arange(m)
    lower = np.full(m, lo)
    upper = np.full(m, hi)
    for _ in range(steps):
        mid = 0.5 * (lower + upper)
        count = np.zeros(m, dtype=np.intp)
        for i in range(m):
            q = diag[i] - mid - (e2[i - 1] / q if i else 0.0)
            q[np.abs(q) < pivmin] = -pivmin
            count += q < 0.0
        below = count > index
        upper = np.where(below, mid, upper)
        lower = np.where(below, lower, mid)
    return 0.5 * (lower + upper), 0.5 * float((upper - lower).max())


def _pattern_eigenvalues(n: int, rows: np.ndarray, cols: np.ndarray,
                         values: np.ndarray) -> EigenResult:
    """Eigenvalues of the n x n Hermitian matrix with nonzero entries
    ``values`` at (``rows``, ``cols``), block by block.

    The triplets may come in any order but must not repeat a position; the
    caller has already checked that they are finite and Hermitian. The
    blocks of size 1 and 2 are read off the degree count of the pattern:
    an index with no off-diagonal entry is a 1x1 block, and an upper entry
    (p, q), p < q, whose two ends each hold only that entry and its mirror
    is a 2x2 block with coupling a_pq. The indices left over form one
    dense block for Householder reduction and Sturm bisection. It may hold
    several blocks of the pattern (of size 3 or more where every entry's
    mirror is present; a one-sided entry inside the Hermiticity gate can
    leave one of size 2), and its eigenvalues are the union of theirs.
    """
    on = rows == cols
    diag = np.zeros(n)
    diag[rows[on]] = values[on].real
    off = ~on
    r, c = rows[off], cols[off]
    ends = np.concatenate([r, c])
    degree = np.bincount(ends, minlength=n)
    # Partners of the outgoing entries minus those of the incoming ones: 0
    # at an index of degree 2 only when its two entries mirror each other.
    balance = np.bincount(ends, weights=np.concatenate([c, -r]), minlength=n)
    single = degree == 0
    couple = (degree == 2) & (balance == 0)
    upper = (r < c) & couple[r] & couple[c]
    p, q = r[upper], c[upper]
    eigs = [diag[single], _two_by_two(diag[p], diag[q], values[off][upper])]
    residual = 0.0
    rest = ~single
    rest[p] = rest[q] = False
    if rest.any():
        # A leftover index has only leftover partners, so the leftover
        # entries alone make one block, block-diagonal up to a permutation.
        size = int(rest.sum())
        local = np.cumsum(rest) - 1
        mine = rest[rows]
        block = np.zeros((size, size), dtype=np.result_type(values.dtype, np.float64))
        block[local[rows[mine]], local[cols[mine]]] = values[mine]
        vals, half_width = _sturm_bisection(*_tridiagonalize(block))
        eigs.append(vals)
        frob = float(np.sqrt((np.abs(block) ** 2).sum()))
        residual = half_width + size * np.finfo(float).eps * frob
    return EigenResult(eigenvalues=np.sort(np.concatenate(eigs)), max_residual=residual)


def hermitian_eigenvalues(a: np.ndarray) -> EigenResult:
    """Eigenvalues of a dense real symmetric or complex Hermitian matrix,
    block by block.

    One scan takes the nonzero pattern and gates it (``_nonzero_pattern``:
    finite, and Hermitian to HERMITICITY_TOL relative to the largest
    entry); ``_pattern_eigenvalues`` then solves it.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
    return _pattern_eigenvalues(a.shape[0], *_nonzero_pattern(a))


# Sizing of every 1-D grid: the integrand's narrowest Gaussian factor has
# variance v, and the grid spans WIDTH_SIGMAS of its std sqrt(v) either side
# of the origin (a Gaussian's ends then sit below 1e-19 of its peak, well
# inside the boundary gate) at a spacing of RESOLUTION_FRACTION of it, so
# every grid has the same GRID_POINTS samples whatever v.
WIDTH_SIGMAS = 9.5
RESOLUTION_FRACTION = 0.25
GRID_POINTS = int(2 * WIDTH_SIGMAS / RESOLUTION_FRACTION) + 1


def integrate_line(variance: float, integrand) -> float:
    """Trapezoid integral over the real line of ``integrand``, sampled on a
    grid sized for ``variance``, that of its narrowest Gaussian factor.

    Raises DomainTooSmallError when the sampled integrand carries
    non-negligible magnitude at either end of the grid, which signals that
    the integrand is wider than ``variance`` says.
    """
    half_width = WIDTH_SIGMAS * math.sqrt(variance)
    values = integrand(np.linspace(-half_width, half_width, GRID_POINTS))
    peak = float(np.abs(values).max())
    if peak == 0.0:
        return 0.0
    edge = max(abs(float(values[0])), abs(float(values[-1])))
    if edge > tol.BOUNDARY_MASS_RATIO * peak:
        raise DomainTooSmallError(
            f"integrand magnitude at the boundary is {edge / peak:.3e} of its peak; "
            f"it is wider than variance {variance} (half-width {half_width})"
        )
    return float(np.trapezoid(values, dx=2.0 * half_width / (GRID_POINTS - 1)))


# Underscored, like _nonzero_pattern: perfbench's tracer wraps only public
# names, so the eigensolve stays charged to the threshold partner calling it.
def _pencil_threshold(n: int, rows: np.ndarray, cols: np.ndarray, values: np.ndarray,
                      floor: np.ndarray) -> float:
    """Least p in [0, 1] at which p A + (1 - p) diag(floor) has a negative
    eigenvalue, for the n x n Hermitian A with nonzero entries ``values`` at
    (``rows``, ``cols``) and a non-negative ``floor``; 1.0 if there is none.

    Where the floor is positive the pencil is congruent to
    p F^-1/2 A F^-1/2 + (1 - p) 1, F = diag(floor), which turns indefinite
    at p = 1 / (1 - nu) for the least eigenvalue nu < 0 of F^-1/2 A F^-1/2:
    one eigensolve, no search in p. An index i with floor 0 is settled
    first. A_ii < 0, or an off-diagonal entry with A_ii = 0 (a zero
    diagonal with a nonzero partner is never PSD), gives 0.0. A_ii > 0
    with a partner would need a Schur complement and raises
    NumericalConsistencyError, since no Werner truncation reaches it. Any
    other such index is PSD for every p and drops out.
    """
    on = rows == cols
    diag = np.zeros(n)
    diag[rows[on]] = values[on].real
    partnered = np.zeros(n, dtype=bool)
    partnered[rows[~on]] = True
    zero = floor == 0.0
    if (zero & partnered & (diag > 0.0)).any():
        raise NumericalConsistencyError(
            "pencil has a zero floor under a positive diagonal entry with a partner")
    if (zero & (partnered | (diag < 0.0))).any():
        return 0.0
    # A dropped index has no partner, so no kept entry reaches it.
    kept = ~zero[rows]
    rows, cols = rows[kept], cols[kept]
    # F^-1/2 A F^-1/2 entry by entry, from the reciprocal roots; a dropped
    # index's is inf and unread. A ratio past the float range (a subnormal
    # floor) is a threshold below 1e-308: it becomes inf, a pair block
    # holding it has the eigenvalue -inf, and p is 0.0. A NaN eigenvalue is
    # passed on as NaN.
    with np.errstate(divide="ignore", over="ignore"):
        scale = 1.0 / np.sqrt(floor)
        scaled = values[kept] * scale[rows] * scale[cols]
    nu = float(_pattern_eigenvalues(n, rows, cols, scaled).eigenvalues[0])
    return 1.0 if nu >= 0.0 else 1.0 / (1.0 - nu)
