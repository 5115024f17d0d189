"""The package namespace, what ``from cvwerner import *`` binds, and the
tolerances its sources read."""

import ast
import types
from pathlib import Path

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


def test_every_tolerance_is_read_by_the_library():
    # A tolerance that only tests read guards nothing in the program.
    sources = Path(cvwerner.__file__).parent
    tolerances = ast.parse((sources / "tolerances.py").read_text())
    defined = {target.id for node in tolerances.body if isinstance(node, ast.Assign)
               for target in node.targets}
    read = {node.attr if isinstance(node, ast.Attribute) else node.id
            for path in sources.glob("*.py") if path.name != "tolerances.py"
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.Attribute, ast.Name)) and isinstance(node.ctx, ast.Load)}
    assert defined, "no tolerance found"
    assert sorted(defined - read) == []
