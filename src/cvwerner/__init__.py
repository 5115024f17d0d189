"""Continuous-variable Werner states on truncated Fock spaces.

Construction of squeezed-vacuum/thermal mixtures and evaluation of their
entanglement, separability, nonlocality, squeezing and teleportation
fidelity, with every closed-form criterion cross-checked against
brute-force matrix computation.
"""

from .criteria import (
    CriterionVerdict,
    direct_entanglement_threshold,
    direct_threshold_pencil,
    enumerate_ppt_spectrum,
    largest_separable_p,
    ppt_spectrum_bruteforce,
    reconstruct_from_cells,
    squeezing_criterion,
    squeezing_threshold,
    squeezing_variance_analytic,
    squeezing_variance_direct,
)
from .fock_core import FockCutoff, TwoModeDensityMatrix, partial_transpose_A
from .numerics import EigenResult, hermitian_eigenvalues, integrate_line
from .qubit_map import (
    bell_max,
    bell_max_closed_form,
    build_spin_operators,
    closed_form_two_qubit,
    correlation_tensor_closed_form,
    map_to_qubits,
    mapped_entanglement_threshold,
    mapped_threshold_pencil,
    nonlocality_threshold,
)
from .states import WernerParams, werner_state
from .teleport import (
    FidelityReport,
    channel_components,
    fidelity_numeric_oracle,
    fidelity_report,
    fidelity_werner,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
