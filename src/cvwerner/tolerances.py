"""Single source of truth for numerical tolerances used across the library.

Test thresholds reference these constants so there is exactly one place
where a tolerance can be tightened or relaxed.
"""

# Hermiticity gate of every matrix stored or solved, relative to
# max(1, largest entry).
HERMITICITY_TOL = 1e-12

# Agreement between closed-form criteria and brute-force matrix computation.
ORACLE_TOL = 1e-9

# Agreement of the enumerated partial-transpose spectrum with the brute-force
# one in ``cvwerner validate``. Both read the same rounded block weights, and
# the worst deviation on the validate 3 grid is 5.6e-17; a relative fault of
# 1e-11 in the thermal pair weights t_k moves it to 5e-12, which ORACLE_TOL
# misses.
PPT_SPECTRUM_TOL = 1e-12

# Agreement of the closed-form coherent-state fidelity with the numeric
# quadrature oracle; both agree to rounding (~1e-15) on the accepted range.
FIDELITY_AGREEMENT_TOL = 1e-12

# Maximum admissible imaginary part of Tr(rho O) for Hermitian O.
TRACE_IMAG_TOL = 1e-10

# Entrywise agreement between independent constructions of the mapped
# two-qubit state.
MAP_CONSISTENCY_TOL = 1e-10

# Allowed negative excursion of density-matrix diagonals and eigenvalues.
POSITIVITY_TOL = 1e-10

# Agreement of a stored matrix's trace with 1 - trace_deficit.
TRACE_CONSISTENCY_TOL = 1e-10

# Default admissible probability mass lost to Fock-space truncation.
DEFAULT_TAIL_BOUND = 1e-10

# Integrand magnitude at the grid boundary must fall below this fraction
# of its peak for a quadrature domain to be accepted.
BOUNDARY_MASS_RATIO = 1e-8

# Agreement of the banded squeezing variance with the closed form of the
# same truncation, which both compute from the same rounded 1 - tanh^2
# factors. The worst deviation over p in [0, 1], r, s in [0, 19] at 64
# levels is 8.5e-14 (near s = 2.5, where the thermal part peaks at ~38).
SQUEEZING_CONSISTENCY_TOL = 1e-12

# Agreement of the mapped and the truncated direct threshold with one
# eigensolve of their pencils (numerics._pencil_threshold), in ``cvwerner
# validate``. The worst deviation over validate 2-6 is 1.7e-16, and 2.2e-16
# on a grid of r, s in [0.05, 5] at n_max 4, 12 and 24.
PENCIL_THRESHOLD_TOL = 1e-12
