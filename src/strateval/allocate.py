"""Splitting an annotation budget across strata.

Proportional allocation spends the budget in proportion to stratum size;
Neyman allocation tilts it toward strata with larger (estimated) loss
spread, which minimizes the design variance of the stratified mean.
Before annotation the spread is unknown, so it is plugged in from the
proxy: for a 0/1 loss a stratum with mean predicted accuracy ``zbar`` has
predicted standard deviation ``sqrt(zbar * (1 - zbar))``; for general
losses the score-based conditional moments give
``sqrt(max(0, z2bar - zbar**2))``.  ``plugin_sds`` is the one path that
turns a pool and a partition into those SDs, for ``plan`` and for the
simulator; its stratum means come from ``estimators.stratum_moments``.

Fractional targets are rounded by the largest-remainder method (ties to
the lower stratum index), then every stratum is lifted to its floor of
``min(MIN_PER_STRATUM, N_h)`` units, the fewest ``stratified_estimate``
accepts, with the excess taken back from the strata that profited least
from rounding.  A stratum of one unit is taken whole.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .errors import ConsistencyError, PreconditionError
from .estimators import MIN_PER_STRATUM, stratum_moments
from .losses import LossKind, conditional_moments

if TYPE_CHECKING:
    from .dataset import Population
    from .stratify import StrataPartition


def _check_budget(sizes: np.ndarray, floors: np.ndarray, budget: int) -> None:
    if np.any(sizes < 1):
        raise PreconditionError("every stratum must be nonempty")
    if budget > int(sizes.sum()):
        raise PreconditionError(
            f"budget {budget} exceeds population size {int(sizes.sum())}"
        )
    if budget < int(floors.sum()):
        raise PreconditionError(
            f"budget {budget} below minimum {int(floors.sum())}: {MIN_PER_STRATUM} per "
            f"stratum, or all of a smaller one ({sizes.size} strata)"
        )


def _split(sizes: np.ndarray, weight: np.ndarray, budget: int) -> np.ndarray:
    """Split ``budget`` in proportion to ``weight``: targets, rounding, bounds."""
    floors = np.minimum(MIN_PER_STRATUM, sizes)
    _check_budget(sizes, floors, budget)
    targets = budget * weight / weight.sum()
    n_h = np.floor(targets).astype(np.int64)
    # ranks: descending remainder, ties to the lower index
    order = np.lexsort((np.arange(targets.size), -(targets - n_h)))
    n_h[order[: budget - int(n_h.sum())]] += 1
    return _rebalance(n_h, sizes, floors, budget, order)


def _rebalance(n_h: np.ndarray, sizes: np.ndarray, floors: np.ndarray, budget: int,
               order: np.ndarray) -> np.ndarray:
    """Clamp to ``[floors_h, N_h]`` per stratum and restore the total.

    Excess is removed from the strata that profited least from rounding
    (ascending remainder); shortfall — possible when a Neyman target
    overflows a small stratum and gets capped — is handed back in the
    award order (descending remainder), capacity permitting.  Both passes
    respect the per-stratum bounds, so the result sums to ``budget``
    whenever the bounds make that feasible.
    """
    n_h = np.clip(n_h, floors, sizes)
    gap = budget - int(n_h.sum())
    recipients = order if gap > 0 else order[::-1]
    while gap != 0:
        moved = False
        for h in recipients:
            if gap > 0:
                room = int(sizes[h] - n_h[h])
                step = min(gap, room)
            else:
                room = int(n_h[h] - floors[h])
                step = -min(-gap, room)
            if step != 0:
                n_h[h] += step
                gap -= step
                moved = True
                if gap == 0:
                    break
        if not moved:
            raise PreconditionError("budget cannot satisfy per-stratum bounds")
    return n_h


def proportional(sizes, budget: int) -> np.ndarray:
    """Budget split proportionally to stratum sizes: the int64 ``n_h``.

    >>> proportional([800, 200], 50).tolist()
    [40, 10]
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    return _split(sizes, sizes, budget)


def neyman(sizes, sds, budget: int, *, warnings: list | None = None) -> np.ndarray:
    """Budget split proportionally to ``N_h * S_h`` (variance-minimizing).

    ``sds`` are the per-stratum loss standard deviations (true or plugged
    in from the proxy).  Strata with zero spread still get their floor.
    With every ``S_h`` equal the split is proportional's, bit for bit: it
    is made on the sizes themselves.  If every spread is zero, that
    fallback is appended to ``warnings`` when a list is given.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    sds = np.asarray(sds, dtype=float)
    if sds.shape != sizes.shape:
        raise PreconditionError("sizes and sds must be aligned")
    if np.any(sds < 0) or not np.all(np.isfinite(sds)):
        raise PreconditionError("standard deviations must be finite and >= 0")
    equal = (sds == sds[:1]).all()
    n_h = _split(sizes, sizes if equal else sizes * sds, budget)
    if warnings is not None and not sds.any():
        warnings.append("all stratum SDs are zero; fell back to proportional")
    return n_h


def plugin_sds(pop: Population, proxy_col: str, partition: StrataPartition,
               *, warnings: list | None = None) -> np.ndarray:
    """Plug-in loss SD of every stratum, predicted before annotation.

    A 0/1 loss takes the stratum mean ``zbar`` of the proxy column
    ``proxy_col``; any other loss takes the stratum means of the per-unit
    conditional moments of the sidecar scores (``pop.scores``).
    """
    h, n_strata = partition.assignment, partition.n_strata
    if pop.loss_kind is LossKind.ACCURACY:
        zbar = stratum_moments(pop.get_proxy(proxy_col), h, n_strata)[1]
        return np.sqrt(zbar * (1.0 - zbar))
    if pop.scores is None:
        raise PreconditionError(
            f"neyman planning for {pop.loss_kind.value} needs --scores to supply "
            "per-unit class scores"
        )
    missing = np.isnan(pop.scores).any(axis=1)
    if missing.any():
        raise ConsistencyError(
            f"unit {pop.ids[int(missing.argmax())]!r} has no class scores in the sidecar"
        )
    zbar, z2bar = (stratum_moments(m, h, n_strata)[1]
                   for m in conditional_moments(pop.loss_kind, pop.scores))
    var = z2bar - zbar * zbar
    if warnings is not None:
        # z2bar - zbar^2 can round to just below zero
        warnings.extend(f"negative plug-in variance {v:.3e} clamped to 0" for v in var[var < 0.0])
    return np.sqrt(np.maximum(var, 0.0))
