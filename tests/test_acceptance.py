"""Acceptance suite: one test per top-level acceptance criterion.

The 27-point reference grid is (p, r, s) in {0.2, 0.5, 0.9} x {0.5, 1, 2}^2.
Dense-matrix checks run at a moderate even cutoff (16 levels). The qubit-map
check compares against the closed form of the same truncated state, so it
carries no trace_deficit slack that could mask a discrepancy; the spectrum
check compares every eigenvalue above a floor of 10 * trace_deficit.
"""

import math
import time

import numpy as np
import pytest

from cvwerner import criteria as cr
from cvwerner import qubit_map as qm
from cvwerner import teleport as tp
from cvwerner import tolerances as tol
from cvwerner.cli import AxisSpec, SweepSpec, run_sweep, run_validation
from cvwerner.fock_core import FockCutoff
from cvwerner.numerics import GRID_POINTS, WIDTH_SIGMAS, hermitian_eigenvalues
from cvwerner.qubit_map import build_spin_operators
from cvwerner.states import WernerParams, werner_state
from densify import dense

P_VALUES = (0.2, 0.5, 0.9)
RS_VALUES = (0.5, 1.0, 2.0)
GRID_27 = tuple(
    WernerParams(p=p, r=r, s=s) for p in P_VALUES for r in RS_VALUES for s in RS_VALUES
)

SPECTRUM_CUTOFF = FockCutoff(n_max=16, tail_bound=0.999)
MAP_CUTOFF = FockCutoff(n_max=16, tail_bound=0.999)


def test_criterion_01_ppt_spectrum_oracle_equivalence():
    """Analytic eigenvalue families match the brute-force partial-transpose
    spectrum as multisets to 1e-9 above the 10 * trace_deficit floor."""
    start = time.time()
    for params in GRID_27:
        rho = werner_state(params, SPECTRUM_CUTOFF)
        brute = cr.ppt_spectrum_bruteforce(params, SPECTRUM_CUTOFF)
        analytic = cr.enumerate_ppt_spectrum(params, SPECTRUM_CUTOFF.n_max)
        floor = 10.0 * rho.trace_deficit
        significant = np.abs(analytic) > floor
        if not significant.any():
            # Every eigenvalue sits below the deficit floor at this cutoff;
            # the criterion is vacuous here, so compare the full spectra at
            # the looser truncation scale instead of skipping silently.
            assert np.abs(brute - analytic).max() < rho.trace_deficit
            continue
        deviation = np.abs(brute - analytic)[significant].max()
        assert deviation < 1e-9, f"spectrum mismatch {deviation:.3e} at {params}"
    assert time.time() - start < 120.0


def test_criterion_02_two_qubit_map_consistency():
    """The pair-index trace, the pseudo-spin moment route and the closed-form
    4x4 of the truncated state agree pairwise entrywise to
    MAP_CONSISTENCY_TOL on the 27-point grid."""
    for params in GRID_27:
        rho = werner_state(params, MAP_CUTOFF)
        traced = qm.map_to_qubits(rho)
        via_moments = qm._map_via_moments(rho)
        closed = qm.closed_form_two_qubit(params, n_max=MAP_CUTOFF.n_max)
        for a, b in ((traced, via_moments), (traced, closed), (via_moments, closed)):
            assert np.abs(a - b).max() < tol.MAP_CONSISTENCY_TOL, f"at {params}"


def test_criterion_03_mapped_entanglement_threshold():
    """The pencil of the 4x4 partial transpose reproduces the closed-form
    threshold to 1e-6; the threshold approaches 1/3 at large squeezing."""
    for r in RS_VALUES:
        for s in RS_VALUES:
            closed = qm.mapped_entanglement_threshold(r, s)
            pencil = qm.mapped_threshold_pencil(r, s)
            assert abs(closed - pencil) < 1e-6, f"(r={r}, s={s})"
    assert abs(qm.mapped_entanglement_threshold(5.0, 5.0) - 1.0 / 3.0) < 1e-3


def test_criterion_04_nonlocality_threshold():
    """The nonlocality threshold reaches 1/sqrt(2) at large squeezing, and
    bell_max from the correlation tensor straddles 2 at the threshold."""
    assert abs(qm.nonlocality_threshold(5.0, 5.0) - 1.0 / math.sqrt(2.0)) < 1e-3
    for r in (1.0, 2.0):
        for s in (1.0, 2.0):
            thr = qm.nonlocality_threshold(r, s)
            for sign in (-1.0, 1.0):
                params = WernerParams(p=thr + sign * 1e-5, r=r, s=s)
                bell = qm.bell_max(qm.correlation_tensor_closed_form(params))
                assert (bell > 2.0) == (sign > 0), f"(r={r}, s={s}, sign={sign})"


def test_criterion_05_threshold_ordering_and_gap():
    """direct <= mapped <= nonlocal on a 20x20 grid over [0.1, 2]^2, and the
    gap extends to p = 0 exactly where tanh r > tanh^2 s."""
    grid = np.linspace(0.1, 2.0, 20)
    for r in grid:
        for s in grid:
            direct = cr.direct_entanglement_threshold(r, s)
            mapped = qm.mapped_entanglement_threshold(r, s)
            nonlocal_thr = qm.nonlocality_threshold(r, s)
            assert direct <= mapped <= nonlocal_thr, f"(r={r}, s={s})"
            # The gap is the p interval (direct, mapped].
            assert (direct == 0.0 < mapped) == (math.tanh(r) > math.tanh(s) ** 2), \
                f"(r={r}, s={s})"


def test_criterion_06_squeezing_variance_agreement():
    """Closed-form and direct truncated-matrix variances of x_A - x_B agree
    to 1e-6 on the 27-point grid; at r = s = 5 the threshold exceeds 0.999."""
    for params in GRID_27:
        analytic = cr.squeezing_variance_analytic(params)
        direct = cr.squeezing_variance_direct(params, n_max=1024)
        assert abs(analytic - direct) < 1e-6, f"{params}"
    assert cr.squeezing_threshold(5.0, 5.0) > 0.999


def test_criterion_06_squeezing_published_verdict_agreement():
    """Verdict agreement between the reference closed-form threshold and the
    direct matrix variance on the r = s subset of the 27-point grid.

    This is expected to fail at (p, r, s) = (0.5, 0.5, 0.5): the direct
    variance there is 0.5 * exp(-1) + 0.5 * cosh(1) = 0.9555 < 1 (squeezed),
    while the reference threshold evaluates to 0.7675 > 0.5 (not squeezed).
    The matrix computation supports the variance-derived threshold
    tanh(r), not the reference expression; the discrepancy is documented in
    the project notes and deliberately left unresolved here.
    """
    for p in P_VALUES:
        for r in RS_VALUES:
            params = WernerParams(p=p, r=r, s=r)
            direct_verdict = cr.squeezing_variance_direct(params) < 1.0
            published = p > cr.published_squeezing_threshold_lambda_form(params.lambda1)
            assert published == direct_verdict, (
                f"verdict mismatch at (p={p}, r=s={r}): "
                f"published says {published}, matrix variance says {direct_verdict}"
            )


def test_criterion_07_teleportation_anchors():
    """The numeric fidelity oracle reproduces the three closed-form anchors
    within 1e-3 and is invariant to the input coherent amplitude: the input
    autocorrelation it uses matches, within 1e-3, the one integrated
    directly from the marginals of the coherent state at 1 + 0.5i."""
    start = time.time()
    assert abs(tp.fidelity_numeric_oracle(WernerParams(p=1.0, r=0.0, s=0.0)) - 0.5) < 1e-3
    assert abs(
        tp.fidelity_numeric_oracle(WernerParams(p=1.0, r=1.0, s=1.0))
        - 1.0 / (1.0 + math.exp(-2.0))
    ) < 1e-3
    mixture = WernerParams(p=0.5, r=1.0, s=1.0)
    assert abs(tp.fidelity_numeric_oracle(mixture) - 0.545392) < 1e-3
    overlap = tp._input_overlap()
    for c in tp.channel_components(mixture):
        half_width = WIDTH_SIGMAS * math.sqrt(min(c.var_squeezed, tp.INPUT_VARIANCE))
        shifts = np.linspace(-half_width, half_width, GRID_POINTS)
        factorised = tp._input_autocorrelation(shifts, overlap)
        for centre in (math.sqrt(2.0) * 1.0, math.sqrt(2.0) * 0.5):
            x = np.linspace(centre - 10.0, centre + 10.0, 2001)
            marginal = np.exp(-((x - centre) ** 2)) / math.sqrt(math.pi)
            shifted = np.exp(-((x[None, :] + shifts[:, None] - centre) ** 2)) / math.sqrt(math.pi)
            direct = np.trapezoid(marginal[None, :] * shifted, x=x, axis=1)
            assert np.abs(direct - factorised).max() < 1e-3, centre
    assert time.time() - start < 300.0


def test_criterion_08_cell_decomposition_reconstruction():
    """The cell decomposition reassembles the Werner matrix entrywise to
    1e-10, and the separable-sufficient region never meets PPT entanglement."""
    cutoff = FockCutoff(n_max=12, tail_bound=0.999)
    for params in GRID_27:
        rho = werner_state(params, cutoff)
        rebuilt = dense(cr.reconstruct_from_cells(params, cutoff.n_max), cutoff.dim)
        assert np.abs(rebuilt - dense(rho.pattern, cutoff.dim)).max() < 1e-10, f"{params}"
        separable = params.p <= cr.largest_separable_p(params.r, params.s)
        entangled = params.p > cr.direct_entanglement_threshold(params.r, params.s)
        assert not (separable and entangled), f"{params}"


def test_criterion_09_property_suites():
    """Eigensolver invariants hold to 1e-8 up to dimension 576; spin operators
    satisfy the Pauli algebra to 1e-12; states are positive above -1e-10."""
    rng = np.random.default_rng(7)
    for dim in (24, 144, 576):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        a = (g + g.conj().T) / 2.0
        eig = hermitian_eigenvalues(a).eigenvalues
        assert abs(eig.sum() - np.trace(a).real) < 1e-8 * dim
        assert abs((eig ** 2).sum() - (np.abs(a) ** 2).sum()) < 1e-8 * (np.abs(a) ** 2).sum()
        oracle = np.linalg.eigvalsh(a)
        assert np.abs(eig - oracle).max() < 1e-8

    for n_max in (2, 4, 12):
        s1, s2, s3 = build_spin_operators(n_max)
        eye = np.eye(n_max)
        for s in (s1, s2, s3):
            assert np.abs(s @ s - eye).max() < 1e-12
        assert np.abs(s1 @ s2 - 1j * s3).max() < 1e-12
        assert np.abs(s2 @ s3 - 1j * s1).max() < 1e-12
        assert np.abs(s3 @ s1 - 1j * s2).max() < 1e-12

    cutoff = FockCutoff(n_max=10, tail_bound=0.999)
    for params in (WernerParams(p=0.5, r=1.0, s=1.0),
                   WernerParams(p=0.2, r=0.5, s=2.0),
                   WernerParams(p=0.9, r=2.0, s=0.5)):
        rho = werner_state(params, cutoff)
        eig = hermitian_eigenvalues(dense(rho.pattern, cutoff.dim)).eigenvalues
        assert eig.min() > -1e-10


def test_criterion_10_end_to_end():
    """validate 3 passes in under 10 minutes; sweep output is byte-identical
    across two runs of the same specification."""
    start = time.time()
    results, ok = run_validation(3)
    elapsed = time.time() - start
    assert ok, "\n".join(result.line() for result in results)
    assert elapsed < 600.0

    spec = SweepSpec(
        axis1=AxisSpec(name="r", minimum=0.1, maximum=2.0, steps=8),
        axis2=AxisSpec(name="s", minimum=0.1, maximum=2.0, steps=8),
        fixed=0.5,
        outputs=("p_min_entangled_direct", "p_min_entangled_mapped",
                 "p_max_separable", "p_min_nonlocal", "p_min_squeezed"),
    )
    assert run_sweep(spec).encode("utf-8") == run_sweep(spec).encode("utf-8")
