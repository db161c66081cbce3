"""Numeric defaults: caps, tolerances and truncation policies.

Every tolerance that a report is judged against is defined here once and
echoed into the emitted reports, so downstream consumers can re-judge.
"""

from __future__ import annotations

# Hard cap on rows of any assembled tensor-product matrix.
MATRIX_CAP = 4096

# Ambient dimension used by default for full polydisc assemblies.  Dense
# work scales like dim^2..dim^3, so the default keeps interactive runs fast;
# per-slot overrides may push up to MATRIX_CAP.
AMBIENT_DIM_BUDGET = 1024

# Ambient dimension used for brute-force-vs-structural agreement runs inside
# commutator reports.  Agreement is float-exact at any common truncation, so
# a small ambient space loses nothing.
AGREEMENT_DIM_BUDGET = 1024

# Relative threshold for numerical rank (fraction of sigma_max).
RANK_REL_TOL = 1e-8

# Relative singular-value cut (fraction of sigma_max) below which a column
# no longer counts towards a span: orthonormal bases of spans and the
# dependence test of QR orthonormalization.
SPAN_RANK_REL_TOL = 1e-10

# Bound on the Gram deviation of truncated model-space columns before
# re-orthonormalization; beyond this the truncation degree is too small.
GRAM_TOL = 1e-6

# Number of top coefficient slots discarded when a truncated column family
# must be near-isometric (geometric tails live there).
TAIL_WINDOW = 20

# Blaschke zeros with modulus above this are rejected by default: their
# coefficient tails decay too slowly for the default truncation degrees.
ZERO_MODULUS_BOUND = 0.95
ZERO_MODULUS_MARGIN = 1e-8

UNIMODULAR_TOL = 1e-12
PROJECTOR_TOL = 1e-10
COMMUTING_TOL = 1e-10
ORTHONORMALITY_TOL = 1e-10

# Report-level tolerances.  Pencil residuals are judged against
# PROJECTOR_TOL, projection-sum formulas against COMMUTING_TOL.
SHIFT_INVARIANCE_TOL = 1e-8
SPAN_GAP_TOL = 1e-7
STRUCTURAL_AGREEMENT_TOL = 1e-7
NORM_LAW_TOL = 1e-6
EQUAL_PROJECTION_TOL = 1e-7
FINGERPRINT_GAP_TOL = 1e-6
INNER_DEVIATION_TOL = 1e-8
RANGE_GAP_TOL = 1e-6
C0_RESIDUAL_TOL = 1e-8
# Operator norm may exceed the Hilbert-Schmidt norm by at most this rounding.
HS_NORM_SLACK = 1e-12
# Gram tolerance of the small agreement-degree handle in commutator reports;
# the oracle comparison there is float-exact at any truncation.
AGREEMENT_GRAM_TOL = 1e-2
NONCOMPACT_PLATEAU_FRACTION = 0.5

DEFAULT_BOUNDARY_GRID = 256
DEFAULT_DECAY_SCHEDULE = (40, 60, 80)

# Default truncation for a FullHardy tensor slot.
FULL_SLOT_DEGREE = 12


def disc_truncation(degree: int) -> int:
    """Default one-variable truncation degree for a Blaschke factor."""
    return max(60, degree + 40)


def minimum_truncation(degree: int) -> int:
    """Hard floor below which a model space cannot be represented.

    The Gram-deviation check governs actual accuracy; this floor only
    guarantees the truncated space can hold the symbol and the model basis.
    """
    return max(1, degree)
