"""Reference computations made apart from cvwerner.

Everything here is assembled from the definitions of the two Werner
components (two-mode squeezed vacuum with lambda1 = tanh r, thermal
product with lambda2 = tanh s) using numpy.linalg and mpmath only; no
cvwerner code is imported. Each ``check_*`` function returns ``None`` when
the program's value passes and a message otherwise.
"""

from __future__ import annotations

import math

import numpy as np

# Offset from a threshold at which the decision must flip. Thresholds are
# read from 12-significant-digit text, so 1e-6 is far above that rounding
# and far above eigenvalue rounding noise.
DELTA = 1e-6

PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def werner_matrix(p: float, r: float, s: float, n: int) -> np.ndarray:
    """Dense truncated Werner state, index m * n + k for |m>_A |k>_B."""
    l1, l2 = math.tanh(r), math.tanh(s)
    levels = np.arange(n)
    psi = np.zeros((n, n))
    psi[levels, levels] = math.sqrt(1.0 - l1 * l1) * l1 ** levels
    vec = psi.reshape(-1)
    thermal = (1.0 - l2 * l2) * l2 ** (2 * levels)
    return p * np.outer(vec, vec) + (1.0 - p) * np.diag(np.outer(thermal, thermal).reshape(-1))


def partial_transpose(rho: np.ndarray, n: int) -> np.ndarray:
    """Transpose the mode-A indices of an (n*n) x (n*n) matrix."""
    return rho.reshape(n, n, n, n).transpose(2, 1, 0, 3).reshape(n * n, n * n)


def truncation_deficit(p: float, r: float, s: float, n: int) -> float:
    """Probability mass of the Werner state outside levels 0..n-1."""
    l1, l2 = math.tanh(r), math.tanh(s)
    return p * l1 ** (2 * n) + (1.0 - p) * (1.0 - (1.0 - l2 ** (2 * n)) ** 2)


def ppt_spectrum(p: float, r: float, s: float, n: int) -> np.ndarray:
    return np.linalg.eigvalsh(partial_transpose(werner_matrix(p, r, s, n), n))


def qubit_image(p: float, r: float, s: float) -> np.ndarray:
    """4x4 image under the pairing of Fock levels (2a, 2a+1) on each mode.

    Summed level by level over enough levels that the dropped tail is
    below 1e-18, instead of a closed form.
    """
    l1, l2 = math.tanh(r), math.tanh(s)
    lam = max(l1, l2, 1e-3)
    levels = 2 * (math.ceil(math.log(1e-18) / (4.0 * math.log(lam))) + 1)
    k = np.arange(levels)
    amps = math.sqrt(1.0 - l1 * l1) * l1 ** k
    thermal = (1.0 - l2 * l2) * l2 ** (2 * k)
    pairs = amps.reshape(-1, 2)  # [a, parity]
    nopa = pairs.T @ pairs  # sum_a c_{2a+k} c_{2a+k'}
    parity = thermal.reshape(-1, 2).sum(axis=0)
    rho4 = np.zeros((4, 4))
    for a in range(2):
        for b in range(2):
            rho4[3 * a, 3 * b] += p * nopa[a, b]  # |aa><bb|
            rho4[2 * a + b, 2 * a + b] += (1.0 - p) * parity[a] * parity[b]
    return rho4


def mapped_min_eig(p: float, r: float, s: float) -> float:
    rho4 = qubit_image(p, r, s)
    return float(np.linalg.eigvalsh(partial_transpose(rho4, 2))[0])


def chsh_max(p: float, r: float, s: float) -> float:
    """Largest CHSH value of the 4x4 image (Horodecki criterion)."""
    rho4 = qubit_image(p, r, s)
    t = np.array([[np.trace(rho4 @ np.kron(a, b)).real for b in PAULI] for a in PAULI])
    u = np.linalg.eigvalsh(t.T @ t)
    return 2.0 * math.sqrt(max(u[-1] + u[-2], 0.0))


def squeezing_variance(p: float, r: float, s: float) -> float:
    """Var(x_A - x_B) of the mixture, vacuum level 1."""
    return p * math.exp(-2.0 * r) + (1.0 - p) * math.cosh(2.0 * s)


def fidelity(p: float, r: float, s: float) -> float:
    """Coherent-state teleportation fidelity through the Werner channel."""
    return p / (1.0 + math.exp(-2.0 * r)) + (1.0 - p) / (2.0 * math.cosh(s) ** 2)


def _q_ratio(r: float, s: float):
    """q = tanh r / tanh^2 s at 50 digits; q > 1 means entangled for all p > 0."""
    import mpmath

    with mpmath.workdps(50):
        return mpmath.tanh(mpmath.mpf(r)) / mpmath.tanh(mpmath.mpf(s)) ** 2


def check_direct(r: float, s: float, thr: float) -> str | None:
    """Full-state PPT threshold: mpmath regime plus eigvalsh at thr +- DELTA.

    For q < 1 the pair-block ratio NOPA/thermal shrinks as q^(m+n), so the
    first blocks decide and a 4-level truncation shows the sign change.
    """
    q = _q_ratio(r, s)
    if thr == 0.0:
        return None if q > 1 else f"threshold 0 but q={float(q):.6g} <= 1"
    if not q < 1:
        return f"threshold {thr} > 0 but q={float(q):.6g} >= 1"
    above = float(np.linalg.eigvalsh(partial_transpose(werner_matrix(thr + DELTA, r, s, 4), 4))[0])
    below = float(np.linalg.eigvalsh(partial_transpose(werner_matrix(thr - DELTA, r, s, 4), 4))[0])
    if above < 0.0 <= below + 1e-15:
        return None
    return f"direct threshold {thr}: min PT eigenvalue {below:.3e} below, {above:.3e} above"


def check_mapped(r: float, s: float, thr: float) -> str | None:
    above, below = mapped_min_eig(thr + DELTA, r, s), mapped_min_eig(thr - DELTA, r, s)
    if above < 0.0 <= below:
        return None
    return f"mapped threshold {thr}: min PT eigenvalue {below:.3e} below, {above:.3e} above"


def check_nonlocal(r: float, s: float, thr: float) -> str | None:
    if thr >= 1.0:
        top = chsh_max(1.0, r, s)
        return None if top <= 2.0 + 1e-12 else f"nonlocal threshold {thr} but CHSH(p=1)={top}"
    above, below = chsh_max(thr + DELTA, r, s), chsh_max(thr - DELTA, r, s)
    if below < 2.0 < above:
        return None
    return f"nonlocal threshold {thr}: CHSH {below:.12g} below, {above:.12g} above"


def check_squeezing_threshold(r: float, s: float, thr: float) -> str | None:
    dev = abs(squeezing_variance(thr, r, s) - 1.0)
    if dev <= 1e-9 * math.cosh(2.0 * s):
        return None
    return f"squeezing threshold {thr}: variance off 1 by {dev:.3e}"


def check_ordering(sep: float, direct: float, mapped: float, bell: float) -> str | None:
    slack = 1e-11  # 12-significant-digit text
    if sep <= direct + slack and direct <= mapped + slack and mapped <= bell + slack:
        return None
    return f"ordering broken: sep={sep} direct={direct} mapped={mapped} nonlocal={bell}"
