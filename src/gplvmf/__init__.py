"""Context-aware rating prediction with per-user sparse variational GPs.

Items and context categories share latent vectors; each user gets an
independent GP over those latents with a bias mean function and an ARD
squared-exponential kernel, trained by maximizing a closed-form collapsed
variational bound.  Prediction returns Gaussian rating estimates, and the
learned inverse length-scales rank the contexts by influence.
"""

from .bound import BoundReport, FactorizationError, kl_to_prior, total_bound
from .data import (
    CATEGORICAL,
    REAL,
    ContextSchema,
    ContextVariable,
    DataError,
    FoldPlan,
    RatingTable,
    RealStandardization,
    UserBlock,
    group_by_user,
    load_table,
    make_folds,
    save_table,
)
from .harness import (
    EvalResult,
    SyntheticSpec,
    SyntheticTruth,
    const_baseline_cv,
    evaluate_cv,
    metrics,
    raw_context_rows,
    sample_ratings,
    synthesize,
    train_model,
)
from .meanfn import PhiStats, phi_statistics
from .model import TrainedModel, load_model, save_model
from .optim import (
    OptimizationError,
    TrainConfig,
    TrainTrace,
    init_state,
    scg_minimize,
    sgd_epoch,
    train,
)
from .predict import ContextRelevance, Prediction, Predictor, UnknownUserError, context_relevance
from .reference import (
    ArdKernel,
    LatentPoints,
    McPsiEstimate,
    PsiStats,
    kernel_matrix,
    mc_phi_oracle,
    mc_psi_oracle,
    optimal_qu,
    psi_statistics,
    user_bound,
)
from .state import ModelDims, VariationalState

__version__ = "0.1.0"

__all__ = [
    "ArdKernel",
    "BoundReport",
    "CATEGORICAL",
    "ContextRelevance",
    "ContextSchema",
    "ContextVariable",
    "DataError",
    "EvalResult",
    "FactorizationError",
    "FoldPlan",
    "LatentPoints",
    "McPsiEstimate",
    "ModelDims",
    "OptimizationError",
    "PhiStats",
    "Prediction",
    "Predictor",
    "PsiStats",
    "REAL",
    "RatingTable",
    "RealStandardization",
    "SyntheticSpec",
    "SyntheticTruth",
    "TrainConfig",
    "TrainTrace",
    "TrainedModel",
    "UnknownUserError",
    "UserBlock",
    "VariationalState",
    "const_baseline_cv",
    "context_relevance",
    "evaluate_cv",
    "group_by_user",
    "init_state",
    "kernel_matrix",
    "kl_to_prior",
    "load_model",
    "load_table",
    "make_folds",
    "mc_phi_oracle",
    "mc_psi_oracle",
    "metrics",
    "optimal_qu",
    "phi_statistics",
    "psi_statistics",
    "raw_context_rows",
    "sample_ratings",
    "save_model",
    "save_table",
    "scg_minimize",
    "sgd_epoch",
    "synthesize",
    "total_bound",
    "train",
    "train_model",
    "user_bound",
]
