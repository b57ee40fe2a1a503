"""modens: partially identified causal outcome intervals from
weight-modulated predictor ensembles.

An ensemble of conditional outcome predictors is reweighed ("modulated")
within the bounds a causal sensitivity model admits; extremizing the
mixture quantiles over those weights yields per-individual outcome
intervals that account for hidden confounding.  The package also ships the
semi-synthetic hidden-confounding benchmark generator and the
coverage-cost evaluation protocol used to judge interval tightness.
"""

from .core import (BRUTE_FORCE_MAX_M, CoverageBound, OutcomeInterval,
                   WeightVector, brute_force_extreme_quantile,
                   check_optimality, empirical_coverage_bound,
                   maximize_quantile, minimize_quantile,
                   modulated_intervals_batch, outcome_interval)
from .data import Dataset, DatasetFormatError, load_dataset_csv, save_dataset_csv
from .dist import (ComponentDistribution, Family, WeightedMixture,
                   default_quantile_tol, mixture_pdf, mixture_quantile)
from .benchgen import (GeneratorConfig, binarize_treatment, generate_dataset,
                       generate_panel, rank_normalize, write_benchmark)
from .evalharness import (CostKind, EvalConfig, ExperimentReport, cost_abs_std,
                          cost_mass, coverage, gamma_star_search, run_experiment)
from .mlp import (EnsembleModel, Head, MlpParams, ModelFileError, TrainConfig,
                  TrainingDivergedError, fit_propensity, load_model,
                  load_propensity, predict_components_batch,
                  predict_propensity_batch, save_model, save_propensity,
                  train_ensemble, train_member)
from .sensitivity import (PROPENSITY_CLAMP, SensitivityConfig, WeightBounds,
                          identity_bounds, msm_bounds, msm_bounds_arrays)

__version__ = "0.1.0"

__all__ = [
    "BRUTE_FORCE_MAX_M", "CoverageBound", "OutcomeInterval", "WeightVector",
    "brute_force_extreme_quantile", "check_optimality",
    "empirical_coverage_bound", "maximize_quantile", "minimize_quantile",
    "modulated_intervals_batch", "outcome_interval",
    "Dataset", "DatasetFormatError", "load_dataset_csv", "save_dataset_csv",
    "ComponentDistribution", "Family", "WeightedMixture",
    "default_quantile_tol", "mixture_pdf", "mixture_quantile",
    "GeneratorConfig", "binarize_treatment", "generate_dataset", "generate_panel",
    "rank_normalize", "write_benchmark",
    "CostKind", "EvalConfig", "ExperimentReport", "cost_abs_std", "cost_mass",
    "coverage", "gamma_star_search", "run_experiment",
    "EnsembleModel", "Head", "MlpParams", "ModelFileError", "TrainConfig",
    "TrainingDivergedError", "fit_propensity", "load_model",
    "load_propensity", "predict_components_batch", "predict_propensity_batch",
    "save_model", "save_propensity", "train_ensemble", "train_member",
    "PROPENSITY_CLAMP", "SensitivityConfig", "WeightBounds",
    "identity_bounds", "msm_bounds", "msm_bounds_arrays",
    "__version__",
]
