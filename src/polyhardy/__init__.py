"""Numerical laboratory for co-doubly-commuting submodules of the polydisc Hardy space.

Finite Blaschke products define one-variable model spaces; tensor slots
assemble them into truncated polydisc scenarios whose submodule projections,
cross commutators, representing inner pencils and rigidity verdicts are all
computed two independent ways and checked against closed forms.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .blh import (
    BlhSymbol,
    build_blh_symbol,
    evaluate_symbol,
    inner_deviation,
    pencil_residuals,
    verify_inner,
    verify_range,
    wandering_subspace,
)
from .commutator import (
    CommutatorReport,
    DecayProfile,
    EssentialNormalityReport,
    c0_annihilation,
    commutator_report,
    commutator_reports,
    cross_commutator_spectrum,
    cross_commutator_structural,
    essential_dc_diagnostic,
    essential_normality_check,
)
from .disc import (
    BlaschkeProduct,
    ModelSpace1D,
    blaschke_eval,
    model_space,
    multiplication_operator,
    rank_one_compression,
    taylor_coefficients,
)
from .errors import (
    AnalysisFailure,
    ContractError,
    NumericError,
    PolyhardyError,
    RankDeficiencyError,
    ScenarioError,
    SizingError,
    TruncationError,
)
from .kernel import (
    hs_norm,
    numerical_rank,
    operator_norm,
    orthonormalize,
    projector_from_basis,
    singular_values,
    subspace_gap,
    tensor_product,
)
from .lattice import (
    FullHardy,
    Inner,
    PolydiscScenario,
    SubmoduleHandle,
    commuting_projection_sum,
    coordinate_shift,
    make_scenario,
    quotient_assembly,
    submodule_projection,
)
from .rigidity import (
    Fingerprint,
    VerdictRecord,
    equality_test,
    equivalence_verdict,
    fingerprint,
    fingerprint_gap,
)
