"""Point estimates, design variances, and confidence intervals.

Every design here is stratified simple random sampling; plain SRS is the
one-stratum case.  ``stratified_estimate`` is the one estimator of the
pool mean: the inverse-probability weighted mean
``(1/N) * sum_{i in S} v_i / pi_i`` with its plug-in standard error.
Taken on the sampled losses it is the Horvitz-Thompson estimate; taken
on the sampled residuals ``Z_i - Zhat_i`` and added to the pool mean of
the proxy it is the difference estimate, design-unbiased as well and
more precise the better the proxy tracks the loss.

Every quantity here is a sum over strata of counts, means and variances;
``stratum_moments`` is the one routine that computes them, here and in
the allocation, simulator and report code.  ``design_variance`` is the
one variance formula (Cochran, *Sampling Techniques*, 1977, Thm 5.3)::

    V = sum_h W_h^2 (1 - n_h/N_h) S_h^2 / n_h        with W_h = N_h/N

With the sample variances ``s_h^2`` it is the squared standard error
that ``stratified_estimate`` reports.  With the population variances
``S_h^2`` (divisor ``N_h - 1``) it is an exact design MSE, which is
``design_mse``: of HT on the losses, and of DF on the residuals
``Z - Zhat``.  SRS is one stratum with ``n_h = [n]``.  With fractional
``n_h`` and ``f = n/N`` the sum reduces to the two classic forms:

* proportional, ``n_h = n W_h``:      (1-f)/n * sum_h W_h S_h^2
* Neyman, ``n_h = n W_h S_h / sum_k W_k S_k``:
  (1/n) (sum_h W_h S_h)^2 - (1/N) sum_h W_h S_h^2

A singleton stratum has ``S_h^2 = 0``.  Every stratum needs
``min(MIN_PER_STRATUM, N_h)`` sampled units, so a singleton is taken
whole ("take-all": ``1 - n_h/N_h = 0``) and its term is 0.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .errors import PreconditionError

if TYPE_CHECKING:
    from .stratify import StrataPartition

MIN_PER_STRATUM = 2


# -- the stratified estimate ---------------------------------------------------


def stratified_estimate(values, strata, sizes):
    """Stratified mean of sampled values and its plug-in standard error.

    ``values[i]`` was observed on a sampled unit of stratum ``strata[i]``;
    ``sizes`` holds ``N_h`` for every stratum of the design.  With ``n_h``
    units sampled from stratum ``h`` and ``pi_h = n_h / N_h``::

        theta = (1/N) sum_i values_i / pi_{h(i)}
        se    = sqrt( sum_h (N_h/N)^2 (1 - n_h/N_h) s_h^2 / n_h )

    where ``s_h^2`` is the within-stratum sample variance, exactly 0 for
    a stratum whose sampled values are all equal: ``se`` is the root of
    ``design_variance`` on the sample variances.  Every stratum needs
    ``min(MIN_PER_STRATUM, N_h)`` sampled units, or its variance is not
    estimable.

    ``values`` may also be 2-D, one replicated sample per row on the same
    ``strata``: then ``theta`` and ``se`` are arrays, one entry per row,
    each equal to the 1-D call on that row.
    """
    v = np.asarray(values, dtype=float)
    h = np.asarray(strata, dtype=np.int64)
    sizes = np.asarray(sizes, dtype=np.int64)
    if h.ndim != 1 or h.size == 0 or v.ndim not in (1, 2) or v.shape[-1:] != h.shape:
        raise PreconditionError("sample values and strata must be aligned nonempty 1-D arrays")
    # C order: each row's sum then runs as the 1-D call's does (a copy
    # only for other layouts)
    rows = np.ascontiguousarray(v if v.ndim == 2 else v[None])
    if np.isnan(v).any():
        raise PreconditionError("every sampled unit needs an observed value")
    n_strata = sizes.size
    if h.min() < 0 or h.max() >= n_strata:
        raise PreconditionError(f"stratum labels must lie in 0..{n_strata - 1}")
    reps = rows.shape[0]
    # one (row, stratum) label per value: every row's sums run in the
    # order of a 1-D call on that row
    label = (np.arange(reps)[:, None] * n_strata + h).reshape(-1)
    _, _, s2 = stratum_moments(rows.reshape(-1), label, reps * n_strata)
    n_h = np.bincount(h, minlength=n_strata)
    floors = np.minimum(MIN_PER_STRATUM, sizes)
    if (n_h < floors).any():
        k = int((n_h < floors).argmax())
        raise PreconditionError(
            f"stratum {k} has {n_h[k]} sampled unit(s); need >= {floors[k]} for a variance"
        )
    if (sizes < 1).any() or (n_h > sizes).any():
        raise PreconditionError("a stratum has no members, or more sampled units than members")
    theta = (rows / (n_h / sizes)[h]).sum(axis=1) / sizes.sum()
    se = np.sqrt(design_variance(sizes, n_h, s2.reshape(reps, n_strata)))
    if v.ndim == 2:
        return theta, se
    return float(theta[0]), float(se[0])


def stratum_moments(values, strata, n_strata: int):
    """Count, mean and sample variance (divisor ``n_h - 1``) of each stratum.

    ``s2_h`` is taken in two passes over the values shifted by their
    stratum maximum, so a constant stratum has all-zero deviations and a
    variance of exactly 0, even when its mean is not representable
    (0.7 + 0.7 + 0.7 rounds).  A singleton stratum has variance 0, and an
    empty one mean 0 and variance 0.
    """
    v = np.asarray(values, dtype=float)
    h = np.asarray(strata, dtype=np.int64)
    n_h = np.bincount(h, minlength=n_strata)
    count = np.maximum(n_h, 1)
    top = np.full(n_strata, -np.inf)
    np.maximum.at(top, h, v)
    dev = v - top[h]
    dev -= (np.bincount(h, dev, n_strata) / count)[h]
    s2 = np.bincount(h, dev * dev, n_strata) / np.maximum(n_h - 1, 1)
    return n_h, np.bincount(h, v, n_strata) / count, s2


# -- design variance -----------------------------------------------------------


def design_variance(sizes, n_h, s2):
    """``sum_h W_h^2 (1 - n_h/N_h) s2_h / n_h`` with ``W_h = N_h / N``.

    ``n_h`` may be integer or fractional.  ``s2`` may be 2-D, one row of
    stratum variances per replication; the sum then runs along each row.
    """
    sizes = np.asarray(sizes)
    w = sizes / sizes.sum()
    return (w * w * (1.0 - n_h / sizes) * s2 / n_h).sum(axis=-1)


def design_mse(values, partition: StrataPartition, n_h) -> float:
    """Exact design MSE of the stratified mean of ``values`` under stratified SRS.

    ``values`` is fully observed on the pool: the losses for HT, the
    residuals ``Z - Zhat`` for DF.  ``n_h`` holds the (integer or
    fractional) sample size of each stratum of ``partition``; SRS is the
    one-stratum partition with ``n_h = [n]``.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size < 2:
        raise PreconditionError("need a fully annotated population of size >= 2")
    if np.isnan(v).any():
        raise PreconditionError("closed-form MSEs need every value observed")
    if partition.assignment.size != v.size:
        raise PreconditionError("partition does not cover the population")
    sizes = partition.sizes
    n_h = np.asarray(n_h, dtype=float)
    if n_h.shape != sizes.shape or not ((n_h > 0) & (n_h <= sizes)).all():
        raise PreconditionError(f"need 0 < n_h <= N_h in each of {sizes.size} strata")
    s2 = stratum_moments(v, partition.assignment, partition.n_strata)[2]
    return float(design_variance(sizes, n_h, s2))


# -- normal quantile and intervals --------------------------------------------

# Coefficients of Wichura's rational approximations for the standard
# normal quantile (Applied Statistics algorithm AS 241, PPND16); relative
# error below 1e-15, comfortably beyond the 1e-8 contract.
_A = (
    3.3871328727963666080e0, 1.3314166789178437745e2, 1.9715909503065514427e3,
    1.3731693765509461125e4, 4.5921953931549871457e4, 6.7265770927008700853e4,
    3.3430575583588128105e4, 2.5090809287301226727e3,
)
_B = (
    1.0, 4.2313330701600911252e1, 6.8718700749205790830e2, 5.3941960214247511077e3,
    2.1213794301586595867e4, 3.9307895800092710610e4, 2.8729085735721942674e4,
    5.2264952788528545610e3,
)
_C = (
    1.42343711074968357734e0, 4.63033784615654529590e0, 5.76949722146069140550e0,
    3.64784832476320460504e0, 1.27045825245236838258e0, 2.41780725177450611770e-1,
    2.27238449892691845833e-2, 7.74545014278341407640e-4,
)
_D = (
    1.0, 2.05319162663775882187e0, 1.67638483018380384940e0, 6.89767334985100004550e-1,
    1.48103976427480074590e-1, 1.51986665636164571966e-2, 5.47593808499534494600e-4,
    1.05075007164441684324e-9,
)
_E = (
    6.65790464350110377720e0, 5.46378491116411436990e0, 1.78482653991729133580e0,
    2.96560571828504891230e-1, 2.65321895265761230930e-2, 1.24266094738807843860e-3,
    2.71155556874348757815e-5, 2.01033439929228813265e-7,
)
_F = (
    1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1, 1.48753612908506148525e-2,
    7.86869131145613259100e-4, 1.84631831751005468180e-5, 1.42151175831644588870e-7,
    2.04426310338993978564e-15,
)


def _poly(coeffs, r: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * r + c
    return acc


def normal_quantile(p: float) -> float:
    """Standard normal quantile by rational approximation (|rel err| < 1e-8)."""
    if not 0.0 < p < 1.0:
        raise PreconditionError(f"quantile defined for p in (0,1), got {p}")
    q = p - 0.5
    if abs(q) <= 0.425:
        r = 0.180625 - q * q
        return q * _poly(_A, r) / _poly(_B, r)
    r = p if q < 0 else 1.0 - p
    r = math.sqrt(-math.log(r))
    if r <= 5.0:
        r -= 1.6
        val = _poly(_C, r) / _poly(_D, r)
    else:
        r -= 5.0
        val = _poly(_E, r) / _poly(_F, r)
    return -val if q < 0 else val


def critical_z(level: float) -> float:
    """Two-sided normal critical value ``z_{(1+level)/2}``, the level checked."""
    if not 0.0 < level < 1.0:
        raise PreconditionError(f"level must be in (0,1), got {level}")
    return normal_quantile(0.5 + level / 2.0)


def confidence_interval(theta, se, level: float = 0.95):
    """Symmetric normal interval ``theta ± z_{(1+level)/2} * se``, of floats or arrays
    elementwise: the ``ci`` that ``estimate`` reports and ``simulate`` scores."""
    z = critical_z(level)
    if np.any(se < 0):
        raise PreconditionError("standard error must be >= 0")
    return theta - z * se, theta + z * se

