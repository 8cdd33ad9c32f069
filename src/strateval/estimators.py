"""Point estimates, design MSEs, and confidence intervals.

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
the allocation, simulator and report code.

The ``mse_*`` functions are the *closed-form* design MSEs of those
estimators on a fully annotated population — the quantities a Monte
Carlo study should reproduce:

* ``mse_ht_srs``        (1-f)/n * S_Z^2                     with f = n/N
* ``mse_ht_prop``       (1-f)/n * sum_h (N_h/N) S_{Z,h}^2
* ``mse_ht_neyman``     (1/n) (sum_h (N_h/N) S_{Z,h})^2
                        - (1/N) sum_h (N_h/N) S_{Z,h}^2
* ``mse_df_srs``        (1-f)/n * [ mean((Z - Zhat)^2)
                        - (mean Z - mean Zhat)^2 ]
* ``mse_df_prop``       (1-f)/n * [ mean((Z - Zhat)^2)
                        - sum_h (N_h/N)(mean_h Z - mean_h Zhat)^2 ]

``S^2`` denotes the finite-population sample variance (divisor N-1);
singleton strata contribute zero.  The SRS forms are the one-stratum
cases of the proportional ones.  The two stratified-HT forms are exact;
the SRS-vs-proportional comparison and both difference-estimator forms
carry O(1/N_h) approximation error by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import PreconditionError
from .stratify import StrataPartition

__all__ = [
    "stratified_estimate",
    "stratum_moments",
    "mse_ht_srs",
    "mse_ht_prop",
    "mse_ht_neyman",
    "mse_df_srs",
    "mse_df_prop",
    "normal_quantile",
    "confidence_interval",
    "EstimateReport",
]


# -- the stratified estimate ---------------------------------------------------


def stratified_estimate(values, strata, sizes):
    """Stratified mean of sampled values and its plug-in standard error.

    ``values[i]`` was observed on a sampled unit of stratum ``strata[i]``;
    ``sizes`` holds ``N_h`` for every stratum of the design.  With ``n_h``
    units sampled from stratum ``h`` and ``pi_h = n_h / N_h``::

        theta = (1/N) sum_i values_i / pi_{h(i)}
        se    = sqrt( sum_h (N_h/N)^2 (1 - n_h/N_h) s_h^2 / n_h )

    where ``s_h^2`` is the within-stratum sample variance, exactly 0 for
    a stratum whose sampled values are all equal.  Every stratum needs at
    least two sampled units, or its variance is not estimable.

    ``values`` may also be 2-D, one replicated sample per row on the same
    ``strata``: then ``theta`` and ``se`` are arrays, one entry per row,
    each equal to the 1-D call on that row.
    """
    v = np.asarray(values, dtype=float)
    h = np.asarray(strata, dtype=np.int64)
    sizes = np.asarray(sizes, dtype=np.int64)
    if h.ndim != 1 or h.size == 0 or v.ndim not in (1, 2) or v.shape[-1:] != h.shape:
        raise PreconditionError("sample values and strata must be aligned nonempty 1-D arrays")
    rows = v if v.ndim == 2 else v[None]
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
    if n_h.min() < 2:
        short = int(n_h.argmin())
        raise PreconditionError(
            f"stratum {short} has {n_h[short]} sampled unit(s); need >= 2 for a variance"
        )
    if (n_h > sizes).any():
        raise PreconditionError("a stratum has more sampled units than members")
    pi = n_h / sizes
    pop = sizes.sum()
    theta = (rows / pi[h]).sum(axis=1) / pop
    w = sizes / pop
    se = np.sqrt((w * w * (1.0 - pi) * s2.reshape(reps, n_strata) / n_h).sum(axis=1))
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


# -- closed-form design MSEs -------------------------------------------------


def _full_losses(losses) -> np.ndarray:
    z = np.asarray(losses, dtype=float)
    if z.ndim != 1 or z.size < 2:
        raise PreconditionError("need a fully annotated population of size >= 2")
    if np.any(np.isnan(z)):
        raise PreconditionError("closed-form MSEs need every loss observed")
    return z


def _one_stratum(losses) -> StrataPartition:
    return StrataPartition(np.zeros(_full_losses(losses).size, dtype=np.int64), 1)


def _design_moments(values, partition: StrataPartition, n: int):
    """``N``, ``N_h/N`` and the stratum means and variances of ``values``."""
    z = _full_losses(values)
    if not 1 <= n <= z.size:
        raise PreconditionError(f"sample size {n} outside [1, {z.size}]")
    if partition.assignment.size != z.size:
        raise PreconditionError("partition does not cover the population")
    n_h, mean, s2 = stratum_moments(z, partition.assignment, partition.n_strata)
    return z.size, n_h / z.size, mean, s2


def mse_ht_srs(losses, n: int) -> float:
    return mse_ht_prop(losses, _one_stratum(losses), n)


def mse_ht_prop(losses, partition: StrataPartition, n: int) -> float:
    pop, w, _, s2 = _design_moments(losses, partition, n)
    return (1.0 - n / pop) / n * float(np.dot(w, s2))


def mse_ht_neyman(losses, partition: StrataPartition, n: int) -> float:
    """Design MSE under the variance-minimizing (fractional) allocation.

    Valid when the implied allocation is feasible (no stratum oversampled);
    with a single stratum it reduces exactly to ``mse_ht_srs``.
    """
    pop, w, _, s2 = _design_moments(losses, partition, n)
    sbar = float(np.dot(w, np.sqrt(s2)))
    return sbar * sbar / n - float(np.dot(w, s2)) / pop


def mse_df_srs(losses, proxies, n: int) -> float:
    return mse_df_prop(losses, proxies, _one_stratum(losses), n)


def mse_df_prop(losses, proxies, partition: StrataPartition, n: int) -> float:
    z = _full_losses(losses)
    zhat = np.asarray(proxies, dtype=float)
    if zhat.shape != z.shape:
        raise PreconditionError("proxies misaligned with losses")
    if np.any(np.isnan(zhat)):
        raise PreconditionError("every unit needs a proxy value")
    resid = z - zhat
    pop, w, gaps, _ = _design_moments(resid, partition, n)
    return (1.0 - n / pop) / n * (float(np.mean(resid**2)) - float(np.dot(w, gaps**2)))


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


def confidence_interval(theta: float, se: float, level: float = 0.95) -> tuple[float, float]:
    """Symmetric normal interval ``theta ± z_{(1+level)/2} * se``."""
    if not 0.0 < level < 1.0:
        raise PreconditionError(f"level must be in (0,1), got {level}")
    if se < 0:
        raise PreconditionError("standard error must be >= 0")
    z = normal_quantile(0.5 + level / 2.0)
    return theta - z * se, theta + z * se


# -- report ------------------------------------------------------------------


@dataclass
class EstimateReport:
    """One estimator's verdict on one draw, ready for serialization."""

    estimator: str
    design: str
    theta: float
    se: float
    level: float
    ci: tuple[float, float]
    n: int
    pop_size: int
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "estimator": self.estimator,
            "design": self.design,
            "theta": self.theta,
            "se": self.se,
            "level": self.level,
            "ci": [self.ci[0], self.ci[1]],
            "n": self.n,
            "pop_size": self.pop_size,
            "diagnostics": self.diagnostics,
        }
