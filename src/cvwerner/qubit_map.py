"""Local compression of the two-mode state onto a pair of qubits.

Each mode is reduced to a qubit by pairing Fock levels (2m, 2m+1) with
pseudo-spin operators that satisfy the Pauli algebra exactly. The mapped
4x4 state is built along two independent routes (an explicit
Choi-operator contraction and a Pauli-moment assembly) that must agree
entrywise, and is analyzed for entanglement (partial transpose) and
nonlocality (CHSH via the correlation-tensor criterion).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import tolerances as tol
from .errors import NumericalConsistencyError
from .fock_core import TwoModeDensityMatrix, expectation, tensor_product
from .numerics import _bisect_threshold, hermitian_eigenvalues
from .states import WernerParams

PAULI = (
    np.array([[0, 1], [1, 0]], dtype=np.complex128),
    np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    np.array([[1, 0], [0, -1]], dtype=np.complex128),
)


@dataclass(frozen=True)
class SpinOperators:
    """Pseudo-spin triple for one truncated mode; each squares to identity."""

    n_max: int
    s1: np.ndarray
    s2: np.ndarray
    s3: np.ndarray

    def as_tuple(self):
        return (self.s1, self.s2, self.s3)


@functools.lru_cache(maxsize=None)
def build_spin_operators(n_max: int) -> SpinOperators:
    """Pseudo-spin operators pairing Fock levels (2m, 2m+1).

    The ladder part is L = sum_m |2m><2m+1|, giving s1 = L + L^dag and
    s2 = -i (L - L^dag); s3 is the photon-number parity. The factor-2
    normalization lives in the combination s1 + i s2 = 2 L, which is the
    unique reading under which each operator squares to the identity.
    """
    if n_max < 2 or n_max % 2:
        raise ValueError(f"n_max must be even and >= 2, got {n_max}")
    ladder = np.zeros((n_max, n_max), dtype=np.complex128)
    for m in range(0, n_max - 1, 2):
        ladder[m, m + 1] = 1.0
    s1 = ladder + ladder.conj().T
    s2 = -1j * (ladder - ladder.conj().T)
    s3 = np.diag(np.where(np.arange(n_max) % 2 == 0, 1.0, -1.0)).astype(np.complex128)
    ops = SpinOperators(n_max=n_max, s1=s1, s2=s2, s3=s3)
    for s in ops.as_tuple():
        s.setflags(write=False)
    return ops


@dataclass(frozen=True)
class QubitPairState:
    """Mapped two-qubit state with its Bloch vectors and correlation tensor."""

    rho4: np.ndarray
    bloch_A: np.ndarray
    bloch_B: np.ndarray
    corr_tensor: np.ndarray
    trace_deficit: float


@dataclass(frozen=True)
class BellAnalysis:
    """Correlation-tensor spectrum and the maximal CHSH combination."""

    U_eigenvalues: np.ndarray
    bell_max: float

    @property
    def is_nonlocal(self) -> bool:
        return self.bell_max > 2.0


def _chi_tensor(n_max: int) -> np.ndarray:
    """Choi operator of the mode-to-qubit compression, as chi[a, k, a', k']."""
    chi = np.zeros((n_max, 2, n_max, 2))
    for m in range(0, n_max - 1, 2):
        for k in range(2):
            for kp in range(2):
                chi[m + k, k, m + kp, kp] = 1.0
    return chi


def _map_via_chi(rho: TwoModeDensityMatrix) -> np.ndarray:
    chi = _chi_tensor(rho.n_max)
    t = rho.as_tensor()
    rho4 = np.einsum("akcK,bldL,abcd->klKL", chi, chi, t)
    return rho4.reshape(4, 4)


def _map_via_moments(rho: TwoModeDensityMatrix):
    n = rho.n_max
    spins = build_spin_operators(n)
    eye = np.eye(n, dtype=np.complex128)
    bloch_A = np.array([expectation(rho, tensor_product(s, eye)) for s in spins.as_tuple()])
    bloch_B = np.array([expectation(rho, tensor_product(eye, s)) for s in spins.as_tuple()])
    corr = np.array(
        [
            [expectation(rho, tensor_product(si, sj)) for sj in spins.as_tuple()]
            for si in spins.as_tuple()
        ]
    )
    rho4 = (1.0 - rho.trace_deficit) * np.eye(4, dtype=np.complex128)
    for i in range(3):
        rho4 += bloch_A[i] * np.kron(PAULI[i], np.eye(2))
        rho4 += bloch_B[i] * np.kron(np.eye(2), PAULI[i])
        for j in range(3):
            rho4 += corr[i, j] * np.kron(PAULI[i], PAULI[j])
    return rho4 / 4.0, bloch_A, bloch_B, corr


def map_to_qubits(rho: TwoModeDensityMatrix) -> QubitPairState:
    """Compress a two-mode state to two qubits, with a built-in cross-check.

    The Choi-contraction route and the Pauli-moment route are computed
    independently and must agree entrywise; disagreement indicates a
    broken spin-operator or contraction convention and raises.
    """
    if rho.n_max % 2:
        raise ValueError("qubit map requires an even n_max")
    via_chi = _map_via_chi(rho)
    via_moments, bloch_A, bloch_B, corr = _map_via_moments(rho)
    dev = np.abs(via_chi - via_moments).max()
    if dev > tol.MAP_CONSISTENCY_TOL:
        raise NumericalConsistencyError(
            f"qubit-map constructions disagree by {dev:.3e}"
        )
    return QubitPairState(
        rho4=via_chi,
        bloch_A=bloch_A,
        bloch_B=bloch_B,
        corr_tensor=corr,
        trace_deficit=rho.trace_deficit,
    )


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
        w1 *= 1.0 - l1 ** (2 * n_max)
        w2 *= (1.0 - l2 ** (2 * n_max)) ** 2
    m = np.zeros((4, 4), dtype=np.complex128)
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


def min_eigenvalue_ppt(rho4: np.ndarray) -> float:
    """Smallest eigenvalue of the partially transposed 4x4 state."""
    res = hermitian_eigenvalues(partial_transpose_qubit(rho4))
    return float(res.eigenvalues[0])


def mapped_entanglement_threshold(r: float, s: float) -> float:
    """Probability above which the mapped two-qubit state is entangled.

    Degenerate limits are coded explicitly: s = 0, or an s so small that
    tanh^2 2s underflows, makes the thermal side of the inequality vanish
    (any p > 0 entangles for r > 0) and r = 0 removes the coherence
    entirely (no p entangles).
    """
    if r < 0 or s < 0:
        raise ValueError("r and s must be >= 0")
    if r == 0.0:
        return 1.0
    noise = math.tanh(2.0 * s) ** 2
    if noise == 0.0:
        return 0.0
    return 1.0 / (1.0 + 2.0 * math.tanh(2.0 * r) / noise)


def mapped_threshold_bisection(r: float, s: float, tol_p: float = 1e-9) -> float:
    """Brute-force mapped threshold: bisect p on the 4x4 PPT minimum eigenvalue."""
    return _bisect_threshold(
        lambda p: min_eigenvalue_ppt(closed_form_two_qubit(WernerParams(p=p, r=r, s=s))), tol_p)


def bell_analysis(q: QubitPairState) -> BellAnalysis:
    """Maximal CHSH value from the correlation tensor.

    Uses the two largest eigenvalues of U = T^t T, which is the
    necessary-and-sufficient two-qubit criterion; for the Werner family
    this reduces to 2 sqrt(t11^2 + t33^2).
    """
    t = q.corr_tensor
    u = t.T @ t
    eig = hermitian_eigenvalues(u.astype(np.complex128)).eigenvalues
    eig = np.clip(eig, 0.0, None)
    bell = 2.0 * math.sqrt(eig[-1] + eig[-2])
    return BellAnalysis(U_eigenvalues=eig, bell_max=bell)


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
    """
    if r < 0 or s < 0:
        raise ValueError("r and s must be >= 0")
    if r == 0.0:
        return 1.0
    a = math.tanh(2.0 * s) ** 2
    b = math.tanh(2.0 * r)
    if a == 0.0:
        return 0.0
    disc = a * (a - a * b * b + 2.0 * b * b)
    return (a * (a - 1.0) + math.sqrt(disc)) / (a * a + b * b)
