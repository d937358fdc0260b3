"""Two-stage meta-analysis of conditional average treatment effects.

Stage 1 estimates the CATE and its variance separately in each study, with
a choice of learner: interaction least squares, an honest or adaptive
causal forest, or a BART S-learner.  Stage 2 pools the per-study estimates
for each covariate profile under a random-effects model with REML
between-study variance, and forms t-based prediction intervals for the
effect in a new target setting.  A simulation harness measures coverage,
interval length and bias of the whole pipeline on synthetic multi-study
data.
"""

__version__ = "0.1.0"

from .bart import (
    BartParams,
    BartPosterior,
    bart_cates,
    fit_bart_slearner,
)
from .errors import (
    CatemetaError,
    ConfigurationError,
    DimensionMismatchError,
    EstimationError,
    InputFormatError,
    InsufficientDataError,
    InsufficientStudiesError,
    SingularDesignError,
)
from .forest import (
    CausalForestModel,
    CausalTree,
    ForestParams,
    fit_causal_forest,
    forest_predict,
)
from .meta import (
    PooledProfiles,
    dl_theta2,
    pool_profiles,
    t_quantile,
)
from .model import (
    TrialDataset,
    ValidationReport,
    validate_target_coverage,
    validate_trial,
)
from .simulate import (
    MetricsTable,
    SimConfig,
    draw_study_effects,
    estimate_study,
    gen_target_profiles,
    gen_study,
    run_experiment,
    true_cate,
)

__all__ = [
    "__version__",
    "BartParams", "BartPosterior", "bart_cates", "fit_bart_slearner",
    "CatemetaError", "ConfigurationError", "DimensionMismatchError",
    "EstimationError", "InputFormatError", "InsufficientDataError",
    "InsufficientStudiesError", "SingularDesignError",
    "CausalForestModel", "CausalTree", "ForestParams", "fit_causal_forest", "forest_predict",
    "PooledProfiles", "dl_theta2", "pool_profiles", "t_quantile",
    "TrialDataset", "ValidationReport", "validate_target_coverage", "validate_trial",
    "MetricsTable", "SimConfig", "draw_study_effects", "estimate_study",
    "gen_target_profiles", "gen_study",
    "run_experiment", "true_cate",
]
