"""Stratified sampling, allocation, and model-assisted estimation.

Evaluating a predictive model usually means paying annotators for ground
truth.  This package spends that budget deliberately: score the whole
pool with the model's own (cheap) loss predictions, stratify on them,
allocate the budget across strata, draw the sample, and estimate the
pool mean loss with inverse-probability weighting or a proxy-anchored
difference estimator — with closed-form design MSEs and a Monte Carlo
harness to verify them.
"""

from .allocate import AllocationPlan, neyman, proportional
from .calibration import IsotonicMap, fit_isotonic, split_half
from .dataset import Population, attach_scores, ingest
from .errors import ConsistencyError, ParseError, PreconditionError
from .estimators import confidence_interval, design_mse, normal_quantile, stratified_estimate
from .losses import LossKind, conditional_moments, eval_loss
from .rng import derive_seed, generator, substream
from .sampling import SampleDraw, draw_ssrs, load_worksheet
from .simulate import (
    MCResult,
    SuperpopSpec,
    efficiency_csv,
    efficiency_table,
    generate,
    run_mc,
    run_methods,
)
from .stratify import (
    StrataPartition,
    equal_width_bins,
    kmeans_1d,
    kmeans_embeddings,
)

__version__ = "0.1.0"

__all__ = [
    "AllocationPlan",
    "ConsistencyError",
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
    "design_mse",
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
    "neyman",
    "normal_quantile",
    "proportional",
    "run_mc",
    "run_methods",
    "split_half",
    "stratified_estimate",
    "substream",
]
