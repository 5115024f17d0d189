"""Local compression of the two-mode state onto a pair of qubits.

Each mode is reduced to a qubit by pairing Fock levels (2m, 2m+1): level
2m + k is read as pair m, qubit state k, and the mapped 4x4 state is the
partial trace over both pair indices, which ``map_to_qubits`` sums from
the state's nonzero pattern into a plain 4x4 array. The pseudo-spin
operators of the pairing satisfy the Pauli algebra exactly; their moments
rebuild the same 4x4 from the same pattern along an independent route,
which ``cvwerner validate`` checks against the trace.
The mapped state is analyzed for entanglement (partial transpose) and
nonlocality (CHSH via the correlation-tensor criterion).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import tolerances as tol
from .errors import NumericalConsistencyError
from .fock_core import TwoModeDensityMatrix, _check_n_max
from .numerics import _nonzero_pattern, _pencil_threshold, hermitian_eigenvalues
from .states import WernerParams, _check_rs

# The 2x2 factors (1, sigma1, sigma2, sigma3), stacked.
PAULI = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]],
                 dtype=np.complex128)


# Typed, so that a float level count such as 4.0 misses the cache of 4 and
# meets the cutoff rule.
@functools.lru_cache(maxsize=None, typed=True)
def build_spin_operators(n_max: int) -> np.ndarray:
    """Pseudo-spin operators pairing Fock levels (2m, 2m+1), stacked
    read-only as (s1, s2, s3) in one (3, n_max, n_max) array.

    The ladder part is L = sum_m |2m><2m+1|, giving s1 = L + L^dag and
    s2 = -i (L - L^dag); s3 is the photon-number parity. The factor-2
    normalization lives in the combination s1 + i s2 = 2 L, which is the
    unique reading under which each operator squares to the identity.
    """
    n_max = _check_n_max(n_max, paired=True)
    ladder = np.zeros((n_max, n_max), dtype=np.complex128)
    for m in range(0, n_max - 1, 2):
        ladder[m, m + 1] = 1.0
    s1 = ladder + ladder.conj().T
    s2 = -1j * (ladder - ladder.conj().T)
    s3 = np.diag(np.where(np.arange(n_max) % 2 == 0, 1.0, -1.0)).astype(np.complex128)
    ops = np.stack([s1, s2, s3])
    ops.setflags(write=False)
    return ops


@functools.lru_cache(maxsize=None)
def _moment_factors(n_max: int) -> np.ndarray:
    """The factors (1, s1, s2, s3) on one mode, stacked read-only as one
    (4, n_max, n_max) array."""
    factors = np.stack([np.eye(n_max, dtype=np.complex128), *build_spin_operators(n_max)])
    factors.setflags(write=False)
    return factors


def _moments(n: int, rows: np.ndarray, cols: np.ndarray, values: np.ndarray,
             factors: np.ndarray) -> np.ndarray:
    """Moments Tr(rho (f_i (x) f_j)) of the two-mode matrix with n levels per
    mode and nonzero entries ``values`` at (``rows``, ``cols``).

    Each entry rho[(a, b), (a', b')] adds its value times f_i[a', a]
    f_j[b', b], so the cost is that of the pattern, not of the n^4 tensor,
    and no two-mode observable is formed. The moments of Hermitian factors
    are real, so an imaginary part beyond tolerance raises.
    """
    a, b = np.divmod(rows, n)
    a_, b_ = np.divmod(cols, n)
    moments = (factors[:, a_, a] * values) @ factors[:, b_, b].T
    imag = np.abs(moments.imag).max()
    if imag > tol.TRACE_IMAG_TOL:
        raise NumericalConsistencyError(
            f"Pauli moment has imaginary part {imag:.3e} beyond tolerance"
        )
    return moments.real


def _map_via_moments(rho: TwoModeDensityMatrix) -> np.ndarray:
    """Pseudo-spin route to the mapped 4x4: rho4 = 1/4 sum_ij M_ij sigma_i (x) sigma_j.

    M_ij = <f_i (x) f_j> for f in (1, s1, s2, s3) on each mode, so M[0, 0]
    is the trace; it is read off the state's own nonzero pattern. It does
    not use the pair-index trace of ``map_to_qubits``, which makes it that
    trace's cross-check in ``cvwerner validate``.
    """
    n = rho.n_max
    moments = _moments(n, *rho.pattern, _moment_factors(n))
    return np.einsum("ij,ikK,jlL->klKL", moments, PAULI, PAULI).reshape(4, 4) / 4.0


def map_to_qubits(rho: TwoModeDensityMatrix) -> np.ndarray:
    """The 4x4 two-qubit image of a two-mode state: the trace over the pair indices.

    With level 2m + k read as (m, k) on each mode, rho4[(k, l), (K, L)] is
    the sum over m, m' of rho[(2m+k, 2m'+l), (2m+K, 2m'+L)]. It is summed
    from the state's nonzero pattern: an entry whose row and column share
    the pair index on both modes goes to rho4[2 (a%2) + b%2, 2 (a'%2) + b'%2],
    for row (a, b) and column (a', b'). ``_map_via_moments`` builds the
    same 4x4 from the pseudo-spin operators; ``cvwerner validate``
    compares the two.
    """
    n = _check_n_max(rho.n_max, paired=True)
    rows, cols, values = rho.pattern
    a, b = np.divmod(rows, n)
    a_, b_ = np.divmod(cols, n)
    # Levels a and a' share the pair index a // 2 exactly when a ^ a' < 2,
    # and a & 1 is the qubit state.
    kept = ((a ^ a_) | (b ^ b_)) < 2
    cell = (8 * (a & 1) + 4 * (b & 1) + 2 * (a_ & 1) + (b_ & 1))[kept]
    values = values[kept]
    rho4 = np.bincount(cell, values.real, 16)
    # A Werner state is real, and so is its image.
    if np.iscomplexobj(values):
        rho4 = rho4 + 1j * np.bincount(cell, values.imag, 16)
    return rho4.reshape(4, 4)


def closed_form_two_qubit(params: WernerParams, n_max: int | None = None) -> np.ndarray:
    """Exact 4x4 image of the Werner state under the qubit map.

    With an even ``n_max`` it is the image of the state truncated to
    n_max levels per mode, which is what ``map_to_qubits`` sees: the kept
    squeezed-vacuum weight scales w1 by 1 - lambda1^(2 n_max) and the kept
    thermal weight scales w2 by (1 - lambda2^(2 n_max))^2.
    """
    l1, l2 = params.lambda1, params.lambda2
    p = params.p
    w1 = p / (1.0 + l1 * l1)
    w2 = (1.0 - p) / (1.0 + l2 * l2) ** 2
    if n_max is not None:
        n_max = _check_n_max(n_max, paired=True)
        w1 *= 1.0 - l1 ** (2 * n_max)
        w2 *= (1.0 - l2 ** (2 * n_max)) ** 2
    m = np.zeros((4, 4))
    m[0, 0] = w1 + w2
    m[1, 1] = m[2, 2] = l2 * l2 * w2
    m[3, 3] = l1 * l1 * w1 + l2 ** 4 * w2
    m[0, 3] = m[3, 0] = l1 * w1
    return m


def correlation_tensor_closed_form(params: WernerParams) -> np.ndarray:
    """Diagonal correlation tensor of the mapped Werner state."""
    l1, l2 = params.lambda1, params.lambda2
    p = params.p
    t11 = 2.0 * l1 * p / (1.0 + l1 * l1)
    t33 = p + (1.0 - p) * ((1.0 - l2 * l2) / (1.0 + l2 * l2)) ** 2
    return np.diag([t11, -t11, t33])


def partial_transpose_qubit(rho4: np.ndarray) -> np.ndarray:
    """Partial transpose of a 4x4 two-qubit matrix on the first qubit."""
    return rho4.reshape(2, 2, 2, 2).transpose(2, 1, 0, 3).reshape(4, 4)


def mapped_entanglement_threshold(r: float, s: float) -> float:
    """Probability above which the mapped two-qubit state is entangled.

    Degenerate limits are coded explicitly: s = 0, or an s so small that
    tanh^2 2s underflows, makes the thermal side of the inequality vanish
    (any p > 0 entangles for r > 0) and r = 0 removes the coherence
    entirely (no p entangles).
    """
    _check_rs(r, s)
    if r == 0.0:
        return 1.0
    noise = math.tanh(2.0 * s) ** 2
    if noise == 0.0:
        return 0.0
    return 1.0 / (1.0 + 2.0 * math.tanh(2.0 * r) / noise)


def mapped_threshold_pencil(r: float, s: float) -> float:
    """Brute-force mapped threshold: one eigensolve of the pencil of the
    partially transposed 4x4 at p = 1 against the diagonal of the 4x4 at
    p = 0 (``numerics._pencil_threshold``)."""
    nopa = partial_transpose_qubit(closed_form_two_qubit(WernerParams(p=1.0, r=r, s=s)))
    floor = np.diagonal(closed_form_two_qubit(WernerParams(p=0.0, r=r, s=s)))
    return _pencil_threshold(4, *_nonzero_pattern(nopa), floor)


def bell_max(corr_tensor: np.ndarray) -> float:
    """Maximal CHSH value of a two-qubit state from its correlation tensor T.

    Uses the two largest eigenvalues of U = T^t T, which is the
    necessary-and-sufficient two-qubit criterion; for the Werner family
    this reduces to 2 sqrt(t11^2 + t33^2).
    """
    u = corr_tensor.T @ corr_tensor
    eig = np.clip(hermitian_eigenvalues(u).eigenvalues, 0.0, None)
    return 2.0 * math.sqrt(eig[-1] + eig[-2])


def bell_max_closed_form(params: WernerParams) -> float:
    """CHSH maximum straight from the closed-form correlation tensor."""
    t = correlation_tensor_closed_form(params)
    return 2.0 * math.sqrt(t[0, 0] ** 2 + t[2, 2] ** 2)


def nonlocality_threshold(r: float, s: float) -> float:
    """Probability above which the mapped state violates a CHSH inequality.

    Values >= 1 mean no mixing probability yields nonlocality; r = 0
    removes the coherence entirely and returns exactly 1.0, the same "no p
    in [0, 1]" convention as mapped_entanglement_threshold, so the margin
    p - threshold stays finite. For s = 0 the thermal component is vacuum
    and any p > 0 is nonlocal (r > 0).

    With a = g^2, g = tanh 2s and b = tanh 2r, the root of the CHSH
    quadratic is (a (a - 1) + sqrt(a (a - a b^2 + 2 b^2))) / (a^2 + b^2),
    whose numerator cancels to nothing when s is small. Rationalised, it
    is (2 - g^2) / (1 - g^2 + hypot(sqrt(1 - b^2), sqrt(2) b / g)), a sum
    of positive terms.
    """
    _check_rs(r, s)
    if r == 0.0:
        return 1.0
    g = math.tanh(2.0 * s)
    b = math.tanh(2.0 * r)
    if g == 0.0:
        return 0.0
    root = math.hypot(math.sqrt(1.0 - b * b), math.sqrt(2.0) * b / g)
    return (2.0 - g * g) / (1.0 - g * g + root)
