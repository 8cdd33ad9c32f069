"""Proxy calibration on a held-out half of the pool.

The raw proxy only needs to *rank* units correctly for stratification to
work, but allocation and the difference estimator benefit from proxies on
the actual loss scale.  The recipe: randomly split the pool in half, fit a
monotone (isotonic) map from proxy to observed loss on one half, and apply
it to the other half, which then proceeds through planning and estimation
with the calibrated column.  No cross-fitting — the calibration half is
spent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Population
from .errors import PreconditionError
from .rng import generator


def split_half(pop: Population, seed: int) -> tuple[Population, Population]:
    """Deterministic random split into calibration and evaluation halves.

    Returns
    -------
    (cal, eval) : tuple of Population
        Disjoint halves covering the pool, of sizes ``ceil(N/2)`` and
        ``floor(N/2)``.  Each half preserves canonical order internally.
        The same ``(pop, seed)`` always yields the same split; use a seed
        independent of the sampling seed.
    """
    n = pop.size
    if n < 4:
        raise PreconditionError(f"need at least 4 units to split, got {n}")
    perm = generator(seed).permutation(n)
    n_cal = (n + 1) // 2
    return pop.take(np.sort(perm[:n_cal])), pop.take(np.sort(perm[n_cal:]))


@dataclass
class IsotonicMap:
    """Nondecreasing step function fitted by least squares.

    ``breakpoints`` are strictly increasing proxy values; ``values`` are
    the fitted (nondecreasing) losses.  :meth:`apply` is right-continuous:
    an input maps to the value of the largest breakpoint <= the input,
    clamping to the first/last value beyond the ends.
    """

    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.breakpoints = np.asarray(self.breakpoints, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.breakpoints.shape != self.values.shape or self.breakpoints.ndim != 1:
            raise PreconditionError("breakpoints and values must be 1-D and aligned")
        if self.breakpoints.size == 0:
            raise PreconditionError("empty isotonic map")
        if np.any(np.diff(self.breakpoints) <= 0):
            raise PreconditionError("breakpoints must be strictly increasing")
        if np.any(np.diff(self.values) < 0):
            raise PreconditionError("values must be nondecreasing")

    def apply(self, x) -> np.ndarray:
        """Evaluate the step function at ``x`` (scalar or array)."""
        x = np.asarray(x, dtype=float)
        pos = np.searchsorted(self.breakpoints, x, side="right") - 1
        return self.values[np.clip(pos, 0, self.values.size - 1)]

    def to_dict(self) -> dict:
        return {
            "breakpoints": [float(b) for b in self.breakpoints],
            "values": [float(v) for v in self.values],
        }


def fit_isotonic(proxy, loss) -> IsotonicMap:
    """Least-squares nondecreasing fit of loss against proxy (PAVA).

    Ties in the proxy are pre-pooled by averaging their losses, then the
    classic pool-adjacent-violators sweep merges any decreasing runs into
    weighted means.  The result minimizes sum_i (fit_i - loss_i)^2 over
    all nondecreasing fits, and the fitted values have the same mean as
    the input losses (each pooled block keeps its block mean).

    Parameters
    ----------
    proxy, loss : array_like
        Paired observations from the calibration half; at least one point.
        A single distinct proxy value yields a constant map at the pooled
        mean loss.
    """
    proxy = np.asarray(proxy, dtype=float)
    loss = np.asarray(loss, dtype=float)
    if proxy.shape != loss.shape or proxy.ndim != 1:
        raise PreconditionError("proxy and loss must be aligned 1-D arrays")
    if proxy.size == 0:
        raise PreconditionError("cannot calibrate on an empty point set")
    if np.any(np.isnan(loss)):
        raise PreconditionError("calibration points must all have observed losses")

    order = np.argsort(proxy, kind="stable")
    x = proxy[order]
    y = loss[order]
    ux, start = np.unique(x, return_index=True)
    # pre-pool ties: block means weighted by multiplicity
    counts = np.diff(np.append(start, x.size)).astype(float)
    sums = np.add.reduceat(y, start)

    # PAVA: maintain a stack of blocks (weight, sum, right edge in ux)
    blk_w: list[float] = []
    blk_s: list[float] = []
    blk_r: list[int] = []
    for j in range(ux.size):
        blk_w.append(counts[j])
        blk_s.append(sums[j])
        blk_r.append(j)
        while len(blk_w) > 1 and blk_s[-2] * blk_w[-1] >= blk_s[-1] * blk_w[-2]:
            # previous block mean >= current: merge (weights positive)
            blk_w[-2] += blk_w[-1]
            blk_s[-2] += blk_s[-1]
            blk_r[-2] = blk_r[-1]
            del blk_w[-1], blk_s[-1], blk_r[-1]

    # expand block means back onto the distinct proxy grid
    fitted = np.empty(ux.size)
    left = 0
    for w, s, r in zip(blk_w, blk_s, blk_r):
        fitted[left : r + 1] = s / w
        left = r + 1
    # collapse equal-value runs so breakpoints mark actual level changes
    keep = np.append(True, np.diff(fitted) > 0)
    return IsotonicMap(breakpoints=ux[keep], values=fitted[keep])
