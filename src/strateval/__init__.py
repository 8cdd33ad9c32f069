"""Stratified sampling, allocation, and model-assisted estimation.

Evaluating a predictive model usually means paying annotators for ground
truth.  This package spends that budget deliberately: score the whole
pool with the model's own (cheap) loss predictions, stratify on them,
allocate the budget across strata, draw the sample, and estimate the
pool mean loss with inverse-probability weighting or a proxy-anchored
difference estimator — with closed-form design MSEs and a Monte Carlo
harness to verify them.
"""

from .allocate import (
    AllocationPlan,
    neyman,
    plugin_sd_accuracy,
    plugin_sd_general,
    proportional,
)
from .calibration import IsotonicMap, fit_isotonic, split_half, split_half_indices
from .dataset import Population, attach_scores, ingest
from .errors import ConsistencyError, ParseError, PreconditionError
from .estimators import (
    EstimateReport,
    confidence_interval,
    mse_df_prop,
    mse_df_srs,
    mse_ht_neyman,
    mse_ht_prop,
    mse_ht_srs,
    normal_quantile,
    stratified_estimate,
)
from .losses import LossKind, conditional_moments, eval_loss
from .rng import derive_seed, generator, srs_indices, substream
from .sampling import SampleDraw, draw_ssrs, load_worksheet, save_worksheet
from .simulate import (
    MCResult,
    SuperpopSpec,
    efficiency_csv,
    efficiency_table,
    generate,
    run_mc,
)
from .stratify import (
    StrataPartition,
    equal_width_bins,
    kmeans_1d,
    kmeans_embeddings,
    within_ss,
)

__version__ = "0.1.0"

__all__ = [
    "AllocationPlan",
    "ConsistencyError",
    "EstimateReport",
    "IsotonicMap",
    "LossKind",
    "MCResult",
    "ParseError",
    "Population",
    "PreconditionError",
    "SampleDraw",
    "StrataPartition",
    "SuperpopSpec",
    "attach_scores",
    "conditional_moments",
    "confidence_interval",
    "derive_seed",
    "draw_ssrs",
    "efficiency_csv",
    "efficiency_table",
    "equal_width_bins",
    "eval_loss",
    "fit_isotonic",
    "generate",
    "generator",
    "ingest",
    "kmeans_1d",
    "kmeans_embeddings",
    "load_worksheet",
    "mse_df_prop",
    "mse_df_srs",
    "mse_ht_neyman",
    "mse_ht_prop",
    "mse_ht_srs",
    "neyman",
    "normal_quantile",
    "plugin_sd_accuracy",
    "plugin_sd_general",
    "proportional",
    "run_mc",
    "save_worksheet",
    "split_half",
    "split_half_indices",
    "srs_indices",
    "stratified_estimate",
    "substream",
    "within_ss",
]
