"""Stratified sampling, allocation, and model-assisted estimation.

Evaluating a predictive model usually means paying annotators for ground
truth.  This package spends that budget deliberately: score the whole
pool with the model's own (cheap) loss predictions, stratify on them,
allocate the budget across strata, draw the sample, and estimate the
pool mean loss with inverse-probability weighting or a proxy-anchored
difference estimator — with closed-form design MSEs and a Monte Carlo
harness to verify them.

Each name is imported from the module that defines it
(``from strateval.estimators import stratified_estimate``).  Importing
the package loads none of its modules, so a CLI command loads only the
modules its step runs.
"""

__version__ = "0.1.0"
