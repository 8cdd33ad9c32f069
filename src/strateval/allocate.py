"""Splitting an annotation budget across strata.

Proportional allocation spends the budget in proportion to stratum size;
Neyman allocation tilts it toward strata with larger (estimated) loss
spread, which minimizes the design variance of the stratified mean.
Before annotation the spread is unknown, so it is plugged in from the
proxy: for a 0/1 loss a stratum with mean predicted accuracy ``zbar`` has
predicted standard deviation ``sqrt(zbar * (1 - zbar))``; for general
losses the score-based conditional moments give
``sqrt(max(0, z2bar - zbar**2))``.

Fractional targets are rounded by the largest-remainder method (ties to
the lower stratum index), then every stratum is lifted to a floor of two
units — two are the minimum for a within-stratum variance estimate — with
the excess taken back from the strata that profited least from rounding.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ParseError, PreconditionError

MIN_PER_STRATUM = 2


@dataclass
class AllocationPlan:
    """Per-stratum sample sizes for a fixed total budget."""

    strategy: str
    n_h: np.ndarray
    warnings: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.n_h = np.asarray(self.n_h, dtype=np.int64)
        self.n_h.setflags(write=False)

    @property
    def total(self) -> int:
        return int(self.n_h.sum())

    def to_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "n_h": [int(v) for v in self.n_h],
            "warnings": list(self.warnings),
        }

    @classmethod
    def from_json(cls, text: str) -> "AllocationPlan":
        try:
            payload = json.loads(text)
            return cls(
                strategy=str(payload["strategy"]),
                n_h=np.asarray(payload["n_h"], dtype=np.int64),
                warnings=[str(w) for w in payload.get("warnings", [])],
            )
        except (json.JSONDecodeError, KeyError, TypeError) as e:
            raise ParseError(f"invalid allocation plan JSON: {e}") from None


def _check_budget(sizes: np.ndarray, budget: int) -> None:
    n_strata = sizes.size
    if np.any(sizes < 1):
        raise PreconditionError("every stratum must be nonempty")
    if budget > int(sizes.sum()):
        raise PreconditionError(
            f"budget {budget} exceeds population size {int(sizes.sum())}"
        )
    if budget < MIN_PER_STRATUM * n_strata:
        raise PreconditionError(
            f"budget {budget} below minimum {MIN_PER_STRATUM} per stratum "
            f"({n_strata} strata)"
        )


def _largest_remainder(targets: np.ndarray, budget: int):
    base = np.floor(targets).astype(np.int64)
    remainder = targets - base
    short = budget - int(base.sum())
    # ranks: descending remainder, ties to the lower index
    order = np.lexsort((np.arange(targets.size), -remainder))
    out = base.copy()
    out[order[:short]] += 1
    return out, order


def _rebalance(n_h: np.ndarray, sizes: np.ndarray, budget: int, order: np.ndarray) -> np.ndarray:
    """Clamp to ``[min(2, N_h), N_h]`` per stratum and restore the total.

    Excess is removed from the strata that profited least from rounding
    (ascending remainder); shortfall — possible when a Neyman target
    overflows a small stratum and gets capped — is handed back in the
    award order (descending remainder), capacity permitting.  Both passes
    respect the per-stratum bounds, so the result sums to ``budget``
    whenever the bounds make that feasible.
    """
    floors = np.minimum(MIN_PER_STRATUM, sizes)
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


def proportional(sizes, budget: int) -> AllocationPlan:
    """Budget split proportionally to stratum sizes.

    >>> proportional([800, 200], 50).n_h.tolist()
    [40, 10]
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    _check_budget(sizes, budget)
    targets = budget * sizes / sizes.sum()
    n_h, order = _largest_remainder(targets, budget)
    n_h = _rebalance(n_h, sizes, budget, order)
    return AllocationPlan(strategy="prop", n_h=n_h)


def neyman(sizes, sds, budget: int) -> AllocationPlan:
    """Budget split proportionally to ``N_h * S_h`` (variance-minimizing).

    ``sds`` are the per-stratum loss standard deviations (true or plugged
    in from the proxy).  Strata with zero spread still get the floor of
    two.  If *every* spread is zero the split falls back to proportional,
    flagged in ``warnings``.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    sds = np.asarray(sds, dtype=float)
    if sds.shape != sizes.shape:
        raise PreconditionError("sizes and sds must be aligned")
    if np.any(sds < 0) or not np.all(np.isfinite(sds)):
        raise PreconditionError("standard deviations must be finite and >= 0")
    _check_budget(sizes, budget)
    weight = sizes * sds
    wsum = float(weight.sum())
    if wsum == 0.0:
        plan = proportional(sizes, budget)
        return AllocationPlan(
            strategy="neyman",
            n_h=plan.n_h,
            warnings=["all stratum SDs are zero; fell back to proportional"],
        )
    targets = budget * weight / wsum
    n_h, order = _largest_remainder(targets, budget)
    n_h = _rebalance(n_h, sizes, budget, order)
    return AllocationPlan(strategy="neyman", n_h=n_h)


def plugin_sd_accuracy(zbar: float) -> float:
    """Predicted loss SD for a 0/1 loss with stratum mean ``zbar``."""
    if not 0.0 <= zbar <= 1.0:
        raise PreconditionError(f"mean of a 0/1 loss must be in [0,1], got {zbar}")
    return float(np.sqrt(zbar * (1.0 - zbar)))


def plugin_sd_general(zbar: float, z2bar: float, *, warnings: list | None = None) -> float:
    """Predicted loss SD from conditional first/second moments.

    Computes ``sqrt(z2bar - zbar**2)``; a slightly negative variance from
    rounding is clamped to zero (appended to ``warnings`` when a list is provided).
    """
    if not np.isfinite(zbar) or not np.isfinite(z2bar):
        raise PreconditionError("moments must be finite")
    if z2bar < 0.0:
        raise PreconditionError(f"second moment must be nonnegative, got {z2bar}")
    var = z2bar - zbar * zbar
    if var < 0.0:
        if warnings is not None:
            warnings.append(f"negative plug-in variance {var:.3e} clamped to 0")
        var = 0.0
    return float(np.sqrt(var))
