"""Continuous-variable Werner states on truncated Fock spaces.

Construction of squeezed-vacuum/thermal mixtures and evaluation of their
entanglement, separability, nonlocality, squeezing and teleportation
fidelity, with every closed-form criterion cross-checked against
brute-force matrix computation.
"""

from .criteria import (
    CriterionVerdict,
    DirectThreshold,
    GapInterval,
    PptSpectrum,
    SeparabilityCells,
    bisect_direct_threshold,
    direct_entanglement_threshold,
    enumerate_ppt_spectrum,
    enumerated_entanglement_threshold,
    largest_separable_p,
    mapped_vs_direct_gap,
    ppt_spectrum_analytic,
    ppt_spectrum_bruteforce,
    reconstruct_from_cells,
    squeezing_criterion,
    squeezing_threshold,
    squeezing_variance_analytic,
    squeezing_variance_direct,
)
from .fock_core import (
    CompositeIndex,
    FockCutoff,
    TwoModeDensityMatrix,
    expectation,
    partial_trace_A,
    partial_trace_B,
    partial_transpose_A,
    tensor_product,
)
from .numerics import EigenResult, PhaseSpaceGrid, hermitian_eigenvalues, integrate_grid
from .qubit_map import (
    BellAnalysis,
    QubitPairState,
    SpinOperators,
    bell_analysis,
    bell_max_closed_form,
    build_spin_operators,
    closed_form_two_qubit,
    correlation_tensor_closed_form,
    map_to_qubits,
    mapped_entanglement_threshold,
    mapped_threshold_bisection,
    nonlocality_threshold,
)
from .states import (
    WernerParams,
    nopa_state,
    select_cutoff,
    symmetric_params,
    thermal_product_state,
    werner_state,
)
from .teleport import (
    FidelityReport,
    WignerChannel,
    fidelity_nopa,
    fidelity_numeric_oracle,
    fidelity_report,
    fidelity_werner,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
