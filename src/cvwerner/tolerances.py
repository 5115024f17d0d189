"""Single source of truth for numerical tolerances used across the library.

Test thresholds reference these constants so there is exactly one place
where a tolerance can be tightened or relaxed.
"""

# Hermiticity gate of every matrix stored or solved, relative to
# max(1, largest entry).
HERMITICITY_TOL = 1e-12

# Agreement of every closed form with its brute-force partner on the same
# truncation: each ``cvwerner validate`` line but the exact ordering one,
# and the banded squeezing variance in ``squeezing_criterion``. Both sides
# read the same rounded weights, so each deviation is rounding. Worst over
# validate 2-6: PPT spectrum 1.1e-16, qubit map 8.9e-16, fidelity oracle
# 6.7e-16, mapped and direct pencil thresholds 1.7e-16 and 2.8e-17,
# squeezing variance 7.1e-15, cell reconstruction 2.2e-16. The squeezing
# check's worst over p in [0, 1], r, s in [0, 19] is 8.5e-14 (near s = 2.5,
# where the thermal part peaks at ~38); the pencils' is 2.2e-16 on r, s in
# [0.05, 5] at n_max 4, 12 and 24. A relative fault of 1e-11 in any block
# weight (c_k, t_k, b_k) fails the cell line.
CROSS_CHECK_TOL = 1e-12

# Maximum admissible imaginary part of Tr(rho O) for Hermitian O.
TRACE_IMAG_TOL = 1e-10

# Allowed negative excursion of density-matrix diagonals and eigenvalues.
POSITIVITY_TOL = 1e-10

# Agreement of a stored matrix's trace with 1 - trace_deficit.
TRACE_CONSISTENCY_TOL = 1e-10

# Default admissible probability mass lost to Fock-space truncation.
DEFAULT_TAIL_BOUND = 1e-10

# Integrand magnitude at the grid boundary must fall below this fraction
# of its peak for a quadrature domain to be accepted.
BOUNDARY_MASS_RATIO = 1e-8
