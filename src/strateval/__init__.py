"""Stratified sampling, allocation, and model-assisted estimation.

Evaluating a predictive model usually means paying annotators for ground
truth.  This package spends that budget deliberately: score the whole
pool with the model's own (cheap) loss predictions, stratify on them,
allocate the budget across strata, draw the sample, and estimate the
pool mean loss with inverse-probability weighting or a proxy-anchored
difference estimator — with closed-form design MSEs and a Monte Carlo
harness to verify them.

Importing the package loads none of its modules: each public name and
each submodule is imported on first use (PEP 562), so a CLI command
loads only the modules its step runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# every submodule, with the public names it exports from the package
_EXPORTS = {
    "allocate": ("neyman", "proportional"),
    "calibration": ("IsotonicMap", "fit_isotonic", "split_half"),
    "cli": (),
    "dataset": ("Population", "attach_scores", "ingest"),
    "errors": ("ConsistencyError", "ParseError", "PreconditionError"),
    "estimators": ("confidence_interval", "design_mse", "normal_quantile", "stratified_estimate"),
    "losses": ("LossKind", "conditional_moments", "eval_loss"),
    "rng": ("derive_seed", "generator"),
    "sampling": ("SampleDraw", "draw_ssrs", "load_worksheet"),
    "simulate": ("MCResult", "SuperpopSpec", "efficiency_table", "generate", "run_mc",
                 "run_methods"),
    "stratify": ("StrataPartition", "equal_width_bins", "kmeans_1d"),
    "tables": (),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _MODULE_OF:
        value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    elif name in _EXPORTS:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})
