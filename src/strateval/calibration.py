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

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .dataset import Population
from .errors import PreconditionError
from .rng import uniforms


def split_half(pop: Population, seed: int) -> tuple[Population, Population]:
    """Deterministic random split into calibration and evaluation halves.

    The evaluation half is the ``floor(N/2)`` units that hold the smallest
    of ``uniforms(seed, N)`` (numpy's ``Generator(PCG64(seed)).random(N)``),
    a tie going to the earlier unit: the first half of a stable argsort of
    those uniforms.  The calibration half is the rest.

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
    k = n // 2
    u = uniforms(seed, n)
    cut = np.partition(u, k - 1)[k - 1]  # the k-th smallest
    in_ev = u < cut
    # units at the cut fill the slots left, the earliest first
    in_ev[np.flatnonzero(u == cut)[: k - np.count_nonzero(in_ev)]] = True
    del u
    return pop.take(~in_ev), pop.take(in_ev)


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


_FLOAT_BATCH = 4096


def _floats(values: np.ndarray) -> Iterator[float]:
    """The elements of ``values`` as Python floats, converted ``_FLOAT_BATCH`` at a time.

    Only one batch of float objects exists at once: a whole array's would
    raise the peak memory of a fit by 64 bytes per distinct proxy value.
    """
    return chain.from_iterable(values[i:i + _FLOAT_BATCH].tolist()
                               for i in range(0, values.size, _FLOAT_BATCH))


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

    # PAVA: maintain a stack of blocks (weight, sum, distinct proxies covered), on
    # Python floats, which do the same IEEE arithmetic faster than numpy scalars.
    # An incoming point absorbs every top block whose mean is >= its own before
    # it is pushed: the same sums, products and comparisons as pushing it and
    # then merging the top two blocks, since IEEE + and * commute.
    blk_w: list[float] = []
    blk_s: list[float] = []
    blk_n: list[int] = []
    for w, s in zip(_floats(counts), _floats(sums)):
        n = 1
        while blk_w and blk_s[-1] * w >= s * blk_w[-1]:
            # top block mean >= incoming: merge (weights positive)
            w += blk_w.pop()
            s += blk_s.pop()
            n += blk_n.pop()
        blk_w.append(w)
        blk_s.append(s)
        blk_n.append(n)

    # expand block means back onto the distinct proxy grid
    fitted = np.repeat(np.divide(blk_s, blk_w), blk_n)
    # collapse equal-value runs so breakpoints mark actual level changes
    keep = np.append(True, np.diff(fitted) > 0)
    return IsotonicMap(breakpoints=ux[keep], values=fitted[keep])
