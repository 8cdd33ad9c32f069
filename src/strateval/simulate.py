"""Synthetic populations and Monte Carlo validation of the estimators.

The generator draws pools whose per-unit annotation outcome is Bernoulli
with a known conditional mean, so every closed-form design MSE has a
ground truth to be checked against.  Families:

* ``two_point`` — the conditional mean takes one of a few fixed values
  (``p_values``) with given mixing ``weights``.
* ``beta_conditional`` — the conditional mean is Beta(alpha, beta).
* ``miscalibrated`` — a ``two_point`` pool whose *stored* proxy is the
  distorted ``clip(slope * p + offset, 0, 1)`` while losses still follow
  the true ``p``; identity distortion reproduces ``two_point`` bit for
  bit at the same seed.

``run_methods`` replays design/estimator pairs over many replicated
draws, and ``run_mc`` is its one-method call.  Plain SRS is the
one-stratum design.  Replication ``r`` draws exactly what ``draw_ssrs``
draws with sub-seed ``derive_seed(seed, r)`` and estimates with
``stratified_estimate``, so the harness validates the sampling path and
the standard error that ``estimate`` reports.  Both run on a batch of
replications at a time: one call seeds and draws the whole batch and
one call estimates it, with every replication's bits and sums the same
as on its own.  Accumulation uses numpy's pairwise summation.

The methods of one ``run_methods`` call are paired (common random
numbers): replication ``r`` of every method uses the same per-stratum
streams, and a smaller ``n_h`` takes a prefix of its stratum's draw.  So
each partition is drawn once per batch, at the largest ``n_h`` any of
its methods takes, and each method estimates from its own prefixes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .allocate import neyman, plugin_sds, proportional
from .dataset import Population
from .errors import ParseError, PreconditionError
from .estimators import normal_quantile, stratified_estimate, stratum_moments
from .losses import LossKind
from .rng import derive_seeds, generator
from .sampling import stratified_indices
from .stratify import StrataPartition
from .tables import csv_text

FAMILIES = ("two_point", "beta_conditional", "miscalibrated")


@dataclass
class SuperpopSpec:
    """Recipe for one synthetic pool."""

    family: str
    size: int
    seed: int
    params: dict = field(default_factory=dict)

    def validate(self) -> None:
        if self.family not in FAMILIES:
            raise ParseError(
                f"unknown family {self.family!r}; expected one of {FAMILIES}"
            )
        if self.size < 2:
            raise PreconditionError("pool size must be at least 2")
        p = self.params
        if not isinstance(p, dict):
            raise ParseError(f"'params' must be an object, got {p!r}")
        if self.family in ("two_point", "miscalibrated"):
            values = np.asarray(p.get("p_values", ()), dtype=float)
            weights = np.asarray(p.get("weights", ()), dtype=float)
            if values.size == 0 or values.shape != weights.shape:
                raise ParseError("need aligned nonempty p_values and weights")
            if np.any(values < 0) or np.any(values > 1):
                raise ParseError("p_values must lie in [0,1]")
            if np.any(weights < 0) or not np.isclose(weights.sum(), 1.0):
                raise ParseError("weights must be nonnegative and sum to 1")
        if self.family == "beta_conditional":
            a, b = p.get("alpha"), p.get("beta")
            if a is None or b is None or a <= 0 or b <= 0:
                raise ParseError("beta_conditional needs alpha > 0 and beta > 0")
        if self.family == "miscalibrated":
            for key in ("slope", "offset"):
                v = p.get(key)
                if v is None or not np.isfinite(v):
                    raise ParseError(f"miscalibrated needs finite {key!r}")


def generate(spec: SuperpopSpec) -> Population:
    """Materialize a pool: conditional means, Bernoulli losses, proxy column.

    The proxy column stores the conditional mean (distorted for the
    ``miscalibrated`` family); losses are the realized 0/1 outcomes.
    Deterministic per ``spec.seed``.
    """
    spec.validate()
    rng = generator(spec.seed)
    n = spec.size
    if spec.family == "beta_conditional":
        p = rng.beta(spec.params["alpha"], spec.params["beta"], size=n)
    else:
        p = rng.choice(
            np.asarray(spec.params["p_values"], dtype=float),
            size=n,
            p=np.asarray(spec.params["weights"], dtype=float),
        )
    loss = (rng.random(n) < p).astype(float)
    proxy = p
    if spec.family == "miscalibrated":
        proxy = np.clip(
            spec.params["slope"] * p + spec.params["offset"], 0.0, 1.0
        )
    width = len(str(n - 1))
    ids = tuple(f"u{i:0{width}d}" for i in range(n))
    return Population(
        ids=ids,
        proxy=np.asarray(proxy, dtype=float),
        loss=loss,
        loss_kind=LossKind.ACCURACY,
    )


@dataclass
class MCResult:
    """Summary of one design/estimator pair over replicated draws."""

    empirical_mse: float
    mse_mc_se: float  # MC standard error of empirical_mse
    bias: float
    bias_mc_se: float  # MC standard error of the mean estimate
    avg_plugin_se: float
    coverage: float
    reps: int
    target: float  # the fixed pool mean being estimated
    estimates: np.ndarray | None = None  # per-rep estimates, when requested

    def to_dict(self) -> dict:
        return {
            "empirical_mse": self.empirical_mse,
            "mse_mc_se": self.mse_mc_se,
            "bias": self.bias,
            "bias_mc_se": self.bias_mc_se,
            "avg_plugin_se": self.avg_plugin_se,
            "coverage": self.coverage,
            "reps": self.reps,
            "target": self.target,
        }


MIN_REPS = 100
# draws per batch of replications: each draw holds about 100 bytes of
# temporaries while its batch is seeded, drawn and estimated, so a batch
# stays near half a megabyte.  The widest partition's shared draw sets
# the batch; the methods on it read that draw rather than drawing again
_CHUNK_DRAWS = 4096


def mc_design(pop: Population, *, design: str, estimator: str, n: int,
              partition: StrataPartition | None = None, allocation: str = "prop",
              sd_source: str = "true") -> tuple[np.ndarray, float, StrataPartition, np.ndarray]:
    """What every replication of a method shares, its settings checked (see :func:`run_mc`).

    Returns ``(values, shift, partition, n_h)``: the values whose pool mean
    is estimated (losses for ``ht``, residuals for ``df``), the constant
    added to each estimate (the proxy's pool mean for ``df``, else 0), the
    partition sampled (one stratum for ``srs``), and its allocation of ``n``.
    """
    if design not in ("srs", "ssrs"):
        raise PreconditionError(f"unknown design {design!r}")
    if estimator not in ("ht", "df"):
        raise PreconditionError(f"unknown estimator {estimator!r}")
    if not pop.has_all_losses:
        raise PreconditionError("Monte Carlo needs a fully annotated pool")
    values, shift = pop.loss, 0.0
    if estimator == "df":
        values, shift = pop.loss - pop.proxy, float(np.mean(pop.proxy))
    if design == "srs":
        partition = StrataPartition(np.zeros(pop.size, dtype=np.int64), 1)
        allocation = "prop"
    elif partition is None:
        raise PreconditionError("ssrs design needs a partition")
    if partition.assignment.size != pop.size:
        raise PreconditionError("partition does not cover the population")
    if allocation == "prop":
        return values, shift, partition, proportional(partition.sizes, n).n_h
    if allocation != "neyman":
        raise PreconditionError(f"unknown allocation {allocation!r}")
    if sd_source == "true":
        sds = np.sqrt(stratum_moments(pop.loss, partition.assignment, partition.n_strata)[2])
    elif sd_source == "plugin":
        sds = plugin_sds(pop, "proxy", partition)
    else:
        raise PreconditionError(f"unknown sd_source {sd_source!r}")
    return values, shift, partition, neyman(partition.sizes, sds, n).n_h


def run_mc(
    pop: Population,
    *,
    design: str,
    estimator: str,
    n: int,
    reps: int,
    seed: int,
    partition: StrataPartition | None = None,
    allocation: str = "prop",
    sd_source: str = "true",
    level: float = 0.95,
    keep_estimates: bool = False,
) -> MCResult:
    """Replicate a design/estimator pair and summarize its sampling error.

    Parameters
    ----------
    pop : Population
        Fully annotated pool (the target is its exact mean loss).
    design : {"srs", "ssrs"}
        Sampling design; ``ssrs`` requires ``partition``, ``srs`` samples
        the pool as one stratum.
    estimator : {"ht", "df"}
        Weighted mean, or proxy-anchored difference estimate using
        ``pop.proxy``.
    n : int
        Annotation budget per replication.
    reps : int
        Number of replicated draws (at least ``MIN_REPS``); replication
        ``r`` draws with sub-seed ``derive_seed(seed, r)``.
    allocation : {"prop", "neyman"}
        Budget split across strata (ssrs only).
    sd_source : {"true", "plugin"}
        Neyman inputs: realized within-stratum loss SDs, or the plug-in
        SDs of ``allocate.plugin_sds`` on ``pop.proxy``.
    level : float
        Nominal confidence level for the coverage tally.

    Notes
    -----
    The one-method call of :func:`run_methods`.  The design comes from
    :func:`mc_design`.  The per-replication estimate and confidence
    interval come from ``stratified_estimate``, on the losses for ``ht``
    and on the residuals for ``df``: the standard error ``estimate``
    reports.
    """
    method = dict(design=design, estimator=estimator, allocation=allocation,
                  sd_source=sd_source)
    return run_methods(pop, [method], n=n, reps=reps, seed=seed, partition=partition,
                       level=level, keep_estimates=keep_estimates)[0]


def run_methods(
    pop: Population,
    methods,
    *,
    n: int,
    reps: int,
    seed: int,
    partition: StrataPartition | None = None,
    level: float = 0.95,
    keep_estimates: bool = False,
) -> list[MCResult]:
    """:func:`run_mc` for each of ``methods``, paired on common draws.

    Each method is a dict of ``run_mc``'s ``design``, ``estimator``,
    ``allocation`` and ``sd_source``; every method is checked by
    :func:`mc_design` before the first replication.  Result ``i`` equals
    ``run_mc(pop, **methods[i], ...)`` bit for bit.

    Replication ``r`` of every method uses the streams ``(r, h)`` under
    ``seed``, and a smaller ``n_h`` takes a prefix of stratum ``h``'s
    stream.  So the methods that sample one partition (every ``srs``
    method the one-stratum pool, every ``ssrs`` method ``partition``)
    share one draw per batch: its ``n_h`` is the largest any of them
    takes, and each method estimates from its own prefix of every
    stratum.
    """
    designs = [mc_design(pop, n=n, partition=partition, **m) for m in methods]
    if reps < MIN_REPS:
        raise PreconditionError(
            f"reps={reps} below minimum {MIN_REPS}: Monte Carlo standard error "
            "too large for assertions"
        )
    values, shifts, parts, n_hs = zip(*designs)
    # one draw per sampled partition, at the largest n_h of its methods
    groups: dict[str, list[int]] = {}
    for i, m in enumerate(methods):
        groups.setdefault(m["design"], []).append(i)
    draws = []
    columns = [None] * len(methods)  # a method's columns of its shared draw, None for all
    for members in groups.values():
        n_max = np.max([n_hs[i] for i in members], axis=0)
        draws.append((parts[members[0]], n_max, members))
        for i in members:
            if not np.array_equal(n_hs[i], n_max):
                offset = (np.cumsum(n_max) - n_max) - (np.cumsum(n_hs[i]) - n_hs[i])
                columns[i] = np.arange(n_hs[i].sum()) + np.repeat(offset, n_hs[i])

    strata = [np.repeat(np.arange(p.n_strata), k) for p, k in zip(parts, n_hs)]
    estimates = [np.empty(reps) for _ in methods]
    ses = [np.empty(reps) for _ in methods]
    chunk = max(1, _CHUNK_DRAWS // max(int(n_max.sum()) for _, n_max, _ in draws))
    for start in range(0, reps, chunk):
        block = slice(start, min(start + chunk, reps))
        seeds = derive_seeds(seed, np.arange(block.start, block.stop))
        for part, n_max, members in draws:
            drawn = stratified_indices(part, n_max, seeds)
            for i in members:
                # np.take keeps the C order that stratified_estimate sums
                # rows in (drawn[:, cols] is Fortran-ordered, and copied there)
                idx = drawn if columns[i] is None else np.take(drawn, columns[i], axis=1)
                theta, ses[i][block] = stratified_estimate(values[i][idx], strata[i], part.sizes)
                estimates[i][block] = shifts[i] + theta

    target = pop.finite_mean()
    zcrit = normal_quantile(0.5 + level / 2.0)
    return [_summary(e, s, target, zcrit, keep_estimates) for e, s in zip(estimates, ses)]


def _summary(estimates, ses, target: float, zcrit: float, keep_estimates: bool) -> MCResult:
    reps = estimates.size
    covered = np.abs(estimates - target) <= zcrit * ses
    sq = (estimates - target) ** 2
    return MCResult(
        empirical_mse=float(np.mean(sq)),
        mse_mc_se=float(np.std(sq, ddof=1) / np.sqrt(reps)),
        bias=float(np.mean(estimates) - target),
        bias_mc_se=float(np.std(estimates, ddof=1) / np.sqrt(reps)),
        avg_plugin_se=float(np.mean(ses)),
        coverage=float(np.mean(covered)),
        reps=reps,
        target=target,
        estimates=estimates if keep_estimates else None,
    )


def efficiency_table(results: dict, baseline: str) -> dict[str, float]:
    """Relative efficiencies ``mse_method / mse_baseline`` (< 1 is a gain)."""
    if baseline not in results:
        raise PreconditionError(f"baseline {baseline!r} not among results")
    base = results[baseline].empirical_mse
    if base == 0.0:
        raise PreconditionError("baseline MSE is zero; ratios undefined")
    return {name: res.empirical_mse / base for name, res in results.items()}


def efficiency_csv(table: dict[str, float], row_label: str = "pool") -> str:
    """One-row CSV, method names as columns (values < 1 = cheaper than baseline)."""
    return csv_text(["population", *table.keys()],
                    [[row_label], *([float(v)] for v in table.values())])
