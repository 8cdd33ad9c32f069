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

A pool is what numpy's ``Generator(PCG64(seed))`` draws for it (see
:func:`generate`).  Only a Beta pool calls numpy's sampler, and so loads
``numpy.random``; a two-point pool takes the same bits from
``rng.uniforms``.  A spec key the family does not read is refused.

``run_methods`` replays design/estimator pairs over many replicated
draws, and ``run_mc`` is its one-method call.  Plain SRS is the
one-stratum design.  Replication ``r`` draws exactly what ``draw_ssrs``
draws with sub-seed ``derive_seed(seed, r)`` and estimates with
``stratified_estimate``, so the harness validates the sampling path and
the standard error that ``estimate`` reports, and counts coverage with
the ``confidence_interval`` it reports.  Both run on a batch of
replications at a time: one call seeds and draws the whole batch and
one call estimates it, with every replication's bits and sums the same
as on its own.  Accumulation uses numpy's pairwise summation.

The methods of one ``run_methods`` call are paired (common random
numbers): replication ``r`` of every method uses the same per-stratum
streams, and a smaller ``n_h`` takes a prefix of its stratum's draw.  So
each partition is drawn once per batch, at the largest ``n_h`` any of
its methods takes, and each method estimates from its own prefixes.

A batch depends only on its own seeds, so ``run_methods`` splits its
batches into contiguous spans, one per CPU in the process's affinity
mask (``os.sched_getaffinity``), at most one per batch.  This process
runs the first span; each other span runs in a child made with
``os.fork`` after every check has passed, which sends its estimates and
standard errors back through a pipe.  The batches and their seeds do not
depend on the number of CPUs, so neither does any bit of the results;
``taskset -c 0`` gives the serial run, as does a platform without
``os.fork``.  On Python 3.12 and later ``os.fork`` warns (a
``DeprecationWarning``) when the process has threads, as numpy's BLAS
pool makes it; the children call no BLAS or threading code.
"""

from __future__ import annotations

import os
import signal
import traceback
from dataclasses import dataclass, field

import numpy as np

from .allocate import neyman, plugin_sds, proportional
from .dataset import Population
from .errors import ParseError, PreconditionError
from .estimators import confidence_interval, critical_z, stratified_estimate, stratum_moments
from .losses import LossKind
from .rng import check_seed, derive_seeds, uniforms
from .sampling import stratified_indices
from .stratify import StrataPartition
from .tables import Ids

# the params each family reads; any other key is refused
FAMILY_PARAMS = {
    "two_point": ("p_values", "weights"),
    "beta_conditional": ("alpha", "beta"),
    "miscalibrated": ("p_values", "weights", "slope", "offset"),
}
# Generator.choice's tolerance on the weights' compensated sum: sqrt(eps)
_WEIGHTS_ATOL = float(np.sqrt(np.finfo(np.float64).eps))
# the values each setting of a Monte Carlo method may take; the first is its default
METHOD_FIELDS = {
    "design": ("srs", "ssrs"),
    "estimator": ("ht", "df"),
    "allocation": ("prop", "neyman"),
    "sd_source": ("true", "plugin"),
}


@dataclass
class SuperpopSpec:
    """Recipe for one synthetic pool."""

    family: str
    size: int
    seed: int
    params: dict = field(default_factory=dict)

    def validate(self) -> None:
        """Refuse a spec ``generate`` cannot draw, before any draw.

        Weights follow ``Generator.choice``'s own rule: nonnegative, and a
        left-to-right compensated sum within sqrt(eps) of 1.  Every param
        is a number (an array of numbers for ``p_values`` and
        ``weights``), and a key the family does not read is refused.
        """
        if self.family not in FAMILY_PARAMS:
            raise ParseError(
                f"unknown family {self.family!r}; expected one of {tuple(FAMILY_PARAMS)}"
            )
        if self.size < 2:
            raise PreconditionError("pool size must be at least 2")
        p = self.params
        if not isinstance(p, dict):
            raise ParseError(f"'params' must be an object, got {p!r}")
        known = FAMILY_PARAMS[self.family]
        for key in p:
            if key not in known:
                raise ParseError(f"{self.family} params have unknown key {key!r}; "
                                 f"expected {', '.join(known)}")
        if self.family in ("two_point", "miscalibrated"):
            values, weights = _real_array(p, "p_values"), _real_array(p, "weights")
            if values.size == 0 or values.shape != weights.shape:
                raise ParseError("need aligned nonempty p_values and weights")
            if not np.all((values >= 0) & (values <= 1)):
                raise ParseError("p_values must lie in [0,1]")
            total = _kahan_sum(weights.tolist())
            if np.any(weights < 0) or not abs(total - 1.0) <= _WEIGHTS_ATOL:
                raise ParseError(f"weights must be nonnegative and sum to 1 within "
                                 f"{_WEIGHTS_ATOL:.3g}; their sum is {total!r}")
        if self.family == "beta_conditional":
            a, b = _real(p, "alpha"), _real(p, "beta")
            if a is None or b is None or not (a > 0 and b > 0):
                raise ParseError("beta_conditional needs alpha > 0 and beta > 0")
        if self.family == "miscalibrated":
            for key in ("slope", "offset"):
                v = _real(p, key)
                if v is None or not np.isfinite(v):
                    raise ParseError(f"miscalibrated needs finite {key!r}")


def _real(params: dict, key: str) -> float | None:
    """``params[key]`` as a float, None when absent: a real number, not a bool or a string."""
    v = params.get(key)
    if v is None:
        return None
    if not _is_number(v):
        raise ParseError(f"{key!r} must be a number, got {v!r}")
    return float(v)


def _real_array(params: dict, key: str) -> np.ndarray:
    """``params[key]`` as a float array: a list of real numbers, none a bool or a string."""
    values = params.get(key, ())
    if isinstance(values, np.ndarray):
        values = values.tolist()
    if not isinstance(values, (list, tuple)):
        raise ParseError(f"{key!r} must be an array of numbers, got {values!r}")
    for v in values:
        if not _is_number(v):
            raise ParseError(f"{key!r} entries must be numbers, got {v!r}")
    return np.array(values, dtype=float)


def _is_number(v) -> bool:
    return not isinstance(v, bool) and isinstance(v, (int, float, np.integer, np.floating))


def _kahan_sum(values: list) -> float:
    """numpy's ``kahan_sum``, which ``Generator.choice`` checks its weights
    with: a compensated sum, left to right."""
    total, carry = values[0], 0.0
    for v in values[1:]:
        y = v - carry
        t = total + y
        carry = (t - total) - y
        total = t
    return total


def generate(spec: SuperpopSpec) -> Population:
    """Materialize a pool: conditional means, Bernoulli losses, proxy column.

    The proxy column stores the conditional mean (distorted for the
    ``miscalibrated`` family); losses are the realized 0/1 outcomes.
    Deterministic per ``spec.seed``: with ``g = Generator(PCG64(seed))``,
    a ``beta_conditional`` pool is ``p = g.beta(alpha, beta, size)`` and
    ``loss = g.random(size) < p``; a ``two_point`` or ``miscalibrated``
    one is ``p = g.choice(p_values, size, p=weights)``, then the same
    ``loss``.  The latter is drawn on ``rng.uniforms``, bit for bit what
    ``choice`` and ``random`` draw, so it loads no ``numpy.random``.
    """
    spec.validate()
    n, params = spec.size, spec.params
    if spec.family == "beta_conditional":
        rng = np.random.Generator(np.random.PCG64(check_seed(spec.seed)))
        p = rng.beta(params["alpha"], params["beta"], size=n)
        loss = rng.random(n) < p
    else:
        # Generator.choice: the first n uniforms, placed on the weights'
        # normalized cumulative sum; then Generator.random: the next n
        u = uniforms(spec.seed, 2 * n)
        cdf = np.asarray(params["weights"], dtype=float).cumsum()
        cdf /= cdf[-1]
        p = np.asarray(params["p_values"], dtype=float)[cdf.searchsorted(u[:n], side="right")]
        loss = u[n:] < p
        del u
    proxy = p
    if spec.family == "miscalibrated":
        proxy = np.clip(params["slope"] * p + params["offset"], 0.0, 1.0)
    return Population(
        ids=_unit_ids(n),
        proxy=np.asarray(proxy, dtype=float),
        loss=loss.astype(float),
        loss_kind=LossKind.ACCURACY,
        _ids_unique=True,  # distinct by construction
    )


def _unit_ids(n: int) -> Ids:
    """The ids ``u0…``, ``u1…``, … of ``n`` units, zero-padded to one width,
    written as bytes digit by digit: no ``str`` per unit."""
    width = len(str(n - 1))
    cells = np.empty((n, width + 2), dtype=np.uint8)  # "u", the digits, a line feed
    cells[:, 0], cells[:, -1] = ord("u"), ord("\n")
    rest = np.arange(n)
    for j in range(width, 0, -1):
        rest, digit = np.divmod(rest, 10)
        cells[:, j] = digit + ord("0")
    return Ids(cells.reshape(-1), np.arange(n + 1, dtype=np.int64) * (width + 2))


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
    estimates: np.ndarray  # the estimate of each replication

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
# draws per batch of replications: each draw holds about 105 bytes of
# temporaries while its batch is seeded, drawn and estimated (a
# tracemalloc peak, four strata and 119 draws a replication), so a batch
# stays under a megabyte.  A larger batch pays numpy's per-call overhead
# less often but splits less evenly across CPUs: 16384 was slower than
# 8192 on two CPUs, and its peak RSS 0.7 MB higher.  The widest
# partition's shared draw sets the batch; the methods on it read that
# draw rather than drawing again.
# The batches are split across the CPUs in the affinity mask, whole
# batches per worker, so every replication's bits are the same for any
# number of CPUs (``taskset -c 0`` runs them all in this process)
_CHUNK_DRAWS = 8192


def mc_design(pop: Population, *, design: str, estimator: str, n: int,
              partition: StrataPartition | None = None, allocation: str = "prop",
              sd_source: str = "true") -> tuple[np.ndarray, float, StrataPartition, np.ndarray]:
    """What every replication of a method shares, its settings checked (see :func:`run_mc`).

    Returns ``(values, shift, partition, n_h)``: the values whose pool mean
    is estimated (losses for ``ht``, residuals for ``df``), the constant
    added to each estimate (the proxy's pool mean for ``df``, else 0), the
    partition sampled (one stratum for ``srs``), and its allocation of ``n``.
    """
    settings = dict(design=design, estimator=estimator, allocation=allocation, sd_source=sd_source)
    for key, value in settings.items():
        if value not in METHOD_FIELDS[key]:
            raise PreconditionError(f"unknown {key} {value!r}")
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
        return values, shift, partition, proportional(partition.sizes, n)
    if sd_source == "true":
        sds = np.sqrt(stratum_moments(pop.loss, partition.assignment, partition.n_strata)[2])
    else:
        sds = plugin_sds(pop, "proxy", partition)
    return values, shift, partition, neyman(partition.sizes, sds, n)


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
        Nominal confidence level for the coverage tally: the share of
        replications whose ``confidence_interval`` holds the target.

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
                       level=level)[0]


def run_methods(
    pop: Population,
    methods,
    *,
    n: int,
    reps: int,
    seed: int,
    partition: StrataPartition | None = None,
    level: float = 0.95,
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

    The batches run in contiguous spans, one per usable CPU: the first
    here, each other in a forked child (see the module notes).  The
    results do not depend on the number of spans.
    """
    designs = [mc_design(pop, n=n, partition=partition, **m) for m in methods]
    if reps < MIN_REPS:
        raise PreconditionError(
            f"reps={reps} below minimum {MIN_REPS}: Monte Carlo standard error "
            "too large for assertions"
        )
    critical_z(level)  # a bad level fails before any replication
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
    # row i holds method i's estimates, row len(methods) + i its standard errors
    table = np.empty((2 * len(methods), reps))
    estimates, ses = table[:len(methods)], table[len(methods):]
    chunk = max(1, _CHUNK_DRAWS // max(int(n_max.sum()) for _, n_max, _ in draws))

    def fill(lo: int, hi: int) -> None:
        # replications lo..hi-1, in the batches of the serial loop: lo is
        # a multiple of chunk, and hi is one too or reps
        for start in range(lo, hi, chunk):
            block = slice(start, min(start + chunk, hi))
            seeds = derive_seeds(seed, np.arange(block.start, block.stop))
            for part, n_max, members in draws:
                drawn = stratified_indices(part, n_max, seeds)
                for i in members:
                    # np.take keeps the C order that stratified_estimate sums
                    # rows in (drawn[:, cols] is Fortran-ordered, and copied there)
                    idx = drawn if columns[i] is None else np.take(drawn, columns[i], axis=1)
                    theta, ses[i, block] = stratified_estimate(values[i][idx], strata[i],
                                                               part.sizes)
                    estimates[i, block] = shifts[i] + theta

    batches = -(-reps // chunk)
    workers = min(_cpu_count(), batches)
    _fill_in_spans(fill, table, [min(reps, chunk * (k * batches // workers))
                                 for k in range(workers + 1)])
    target = pop.finite_mean()
    return [_summary(e, s, target, level) for e, s in zip(estimates, ses)]


def _cpu_count() -> int:
    """CPUs this process may run on; 1 where the batches cannot be forked."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _fill_in_spans(fill, table: np.ndarray, cuts: list[int]) -> None:
    """``fill(cuts[k], cuts[k + 1])`` for every span ``k``, each filling its columns of ``table``.

    Span 0 runs in this process, every other in a forked child that
    writes its columns to a pipe as raw float64 and leaves through
    ``os._exit``, so it runs no atexit handler and flushes no stdio
    buffer it inherited.  A child that fails, or sends fewer bytes than
    its columns hold, raises ``RuntimeError`` here; if this process
    fails first, every child is killed.  Either way every child is
    reaped before this returns.
    """
    pids, pipes = {}, {}  # span -> child pid, read end of its pipe
    try:
        for k in range(1, len(cuts) - 1):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read)
                _child(fill, table, cuts[k], cuts[k + 1], write)
            os.close(write)
            pids[k], pipes[k] = pid, read
        fill(cuts[0], cuts[1])
        for k in list(pids):
            span = table[:, cuts[k]:cuts[k + 1]]
            with open(pipes.pop(k), "rb") as pipe:
                data = pipe.read()
            _, status = os.waitpid(pids.pop(k), 0)
            code = os.waitstatus_to_exitcode(status)
            if code != 0 or len(data) != span.nbytes:
                raise RuntimeError(
                    f"simulate worker {k} (replications {cuts[k]}..{cuts[k + 1] - 1}) "
                    f"exited with status {code} after sending {len(data)} of {span.nbytes} bytes"
                )
            span[...] = np.frombuffer(data).reshape(span.shape)
    finally:
        for fd in pipes.values():
            os.close(fd)
        for pid in pids.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _child(fill, table: np.ndarray, lo: int, hi: int, fd: int):
    """Body of a forked worker: fill columns ``lo..hi-1`` of ``table``, send them, exit."""
    code = 1
    try:
        fill(lo, hi)
        view = memoryview(np.ascontiguousarray(table[:, lo:hi])).cast("B")
        while view:
            view = view[os.write(fd, view):]
        code = 0
    except BaseException:
        # a fresh writer on fd 2, so no inherited stderr buffer is flushed
        with open(2, "w", closefd=False) as err:
            traceback.print_exc(file=err)
    finally:
        os._exit(code)


def _summary(estimates, ses, target: float, level: float) -> MCResult:
    reps = estimates.size
    lo, hi = confidence_interval(estimates, ses, level)
    covered = (lo <= target) & (target <= hi)
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
        estimates=estimates,
    )


def efficiency_table(results: dict, baseline: str) -> dict[str, float]:
    """Relative efficiencies ``mse_method / mse_baseline`` (< 1 is a gain)."""
    if baseline not in results:
        raise PreconditionError(f"baseline {baseline!r} not among results")
    base = results[baseline].empirical_mse
    if base == 0.0:
        raise PreconditionError("baseline MSE is zero; ratios undefined")
    return {name: res.empirical_mse / base for name, res in results.items()}
