"""pairtomo: estimation of a two-state qubit-pair source from counts.

The source emits qubit pairs prepared as psi0 (x) psi0 with probability
p0 or psi1 (x) psi1 with probability 1 - p0.  This package simulates
joint measurements on such pairs (a triplet-sector SIC and a local
tetrahedron scheme), reconstructs the two states and their probabilities
by linear inversion or maximum likelihood, and quantifies uncertainty
through plausible regions of the likelihood ratio.
"""

__version__ = "0.1.0"

from .qstate import (FEATURE_NAMES, FEATURE_TRIPLETS, ParamVector, PureQubit,
                     SymmetricTwoQubitState, ensemble_state, moment_features,
                     random_param_array)
from .recon import (Decomposition, DegenerateInputError, IllConditionedError,
                    IllConditionedWarning, NonPhysicalMomentsError, TripletKet,
                    decompose_moments, states_from_xi, xi_from_triplet)
from .povm import EmptyDataError, SIC, TETRA, get_povm
from .estimate import (DiagnosticsReport, MlEstimate, OptimizerConfig,
                       li_diagnostics, li_pipeline, log_likelihood,
                       match_and_score, ml_estimate, ml_estimates)
from .plausible import (AsymptoticsReport, DegenerateSampleError,
                        PlausibilityReport, asymptotics, is_plausible,
                        plausibility, plausibility_sweep)
from .sim import (EstimateResult, RunRecord, run_experiment, sample_counts,
                  seed_sequence, simulate_run, stream_generator)

__all__ = [
    "__version__",
    "FEATURE_NAMES", "FEATURE_TRIPLETS", "ParamVector", "PureQubit",
    "SymmetricTwoQubitState", "ensemble_state", "moment_features",
    "random_param_array",
    "Decomposition", "DegenerateInputError", "IllConditionedError",
    "IllConditionedWarning", "NonPhysicalMomentsError", "TripletKet",
    "decompose_moments", "states_from_xi", "xi_from_triplet",
    "EmptyDataError", "SIC", "TETRA", "get_povm",
    "DiagnosticsReport", "MlEstimate", "OptimizerConfig", "li_diagnostics",
    "li_pipeline", "log_likelihood", "match_and_score", "ml_estimate",
    "ml_estimates",
    "AsymptoticsReport", "DegenerateSampleError", "PlausibilityReport",
    "asymptotics", "is_plausible", "plausibility", "plausibility_sweep",
    "EstimateResult", "RunRecord", "run_experiment", "sample_counts",
    "seed_sequence", "simulate_run", "stream_generator",
]
