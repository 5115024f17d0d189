"""The package namespace: what ``from cvwerner import *`` binds."""

import types

import cvwerner

PUBLIC = [
    "CriterionVerdict", "EigenResult", "FidelityReport", "FockCutoff", "TwoModeDensityMatrix",
    "WernerParams", "bell_max", "bell_max_closed_form", "build_spin_operators",
    "channel_components", "closed_form_two_qubit", "correlation_tensor_closed_form",
    "direct_entanglement_threshold", "direct_threshold_pencil", "enumerate_ppt_spectrum",
    "fidelity_numeric_oracle", "fidelity_report", "fidelity_werner", "hermitian_eigenvalues",
    "integrate_line", "largest_separable_p", "map_to_qubits", "mapped_entanglement_threshold",
    "mapped_threshold_pencil", "nonlocality_threshold", "partial_transpose_A",
    "ppt_spectrum_bruteforce", "reconstruct_from_cells", "squeezing_criterion",
    "squeezing_threshold", "squeezing_variance_analytic", "squeezing_variance_direct",
    "werner_state",
]


def test_all_lists_the_public_objects_and_no_module():
    for name in cvwerner.__all__:
        assert not name.startswith("_")
        assert not isinstance(getattr(cvwerner, name), types.ModuleType), name
    assert cvwerner.__all__ == PUBLIC

