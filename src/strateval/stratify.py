"""Partitioning the pool into strata before sampling.

Every stratum is an interval of one proxy column.  Two routes: exact 1-D
k-means (dynamic program over the sorted values — the globally optimal
interval partition) and fixed-width bins.  Strata are labeled
``0..H-1`` in increasing proxy order.  ``plan`` writes the partition to
``partition.csv`` through the one table writer in :mod:`strateval.tables`,
for the record: no step reads it back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tables
from .errors import PreconditionError


@dataclass
class StrataPartition:
    """Assignment of every unit (canonical order) to a stratum.

    ``assignment[i]`` is the stratum of unit ``i``; all ``H`` labels
    ``0..H-1`` occur.  ``sizes[h]`` is the size ``N_h`` of stratum ``h``,
    and ``order`` lists the members of stratum 0, then of stratum 1, and
    so on, each in canonical order.  ``warnings`` records degenerate-input
    repairs (e.g. constant values collapsing the partition).
    """

    assignment: np.ndarray
    n_strata: int
    warnings: list[str] = field(default_factory=list)
    sizes: np.ndarray = field(init=False, repr=False)
    order: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.assignment = np.asarray(self.assignment, dtype=np.int64)
        if self.assignment.ndim != 1 or self.assignment.size == 0:
            raise PreconditionError("assignment must be a nonempty 1-D array")
        a = self.assignment
        # bincount counts the labels only once they lie in 0..H-1
        if a.min() < 0 or a.max() >= self.n_strata or not (
            sizes := np.bincount(a, minlength=self.n_strata)
        ).all():
            raise PreconditionError(
                f"assignment must use every label in 0..{self.n_strata - 1}"
            )
        self.sizes = sizes
        self.order = np.argsort(a, kind="stable")
        for arr in (a, self.sizes, self.order):
            arr.setflags(write=False)


def partition_table(partition: StrataPartition, ids) -> tuple[list[str], list]:
    """Header and columns of ``partition.csv``: ``id,stratum``, one row per unit."""
    if len(ids) != partition.assignment.size:
        raise PreconditionError("ids and assignment lengths disagree")
    return ["id", "stratum"], [tables.writable_ids(ids), partition.assignment]


# -- exact 1-D k-means -------------------------------------------------------


def _dp_rows(u: np.ndarray, w: np.ndarray, n_strata: int):
    """DP over distinct sorted values ``u`` with multiplicities ``w``.

    Returns the argmin (split) tables for the weighted interval SSE
    objective.  Row ``h`` is filled by divide and conquer, exploiting that
    the optimal left edge of the last interval is nondecreasing in the
    right edge (the cost is a Monge matrix).  The recursion tree is walked
    one depth at a time: every node of a depth is evaluated in one batched
    pass over its candidates laid end to end, so a row costs about
    log2(m) passes of O(m) work each rather than one numpy call per
    column.  The last row holds only column ``m - 1``, the one entry the
    walk back reads, filled in one pass over its candidates.  Ties go to
    the smallest left edge, as with ``np.argmin``.
    """
    m = u.size
    cw = np.concatenate([[0.0], np.cumsum(w)])
    cs = np.concatenate([[0.0], np.cumsum(w * u)])
    cq = np.concatenate([[0.0], np.cumsum(w * u * u)])

    def seg_cost(j, e):
        # weighted SSE of distinct values j..e-1, elementwise
        ww = cw[e] - cw[j]
        ss = cs[e] - cs[j]
        return (cq[e] - cq[j]) - ss * ss / ww

    prev = seg_cost(np.zeros(m, dtype=np.int64), np.arange(1, m + 1))
    splits = np.zeros((n_strata, m), dtype=np.int64)
    for h in range(1, n_strata - 1):
        cur = np.full(m, np.inf)
        # one column per pending node: right edges klo..khi, left-edge
        # candidates jlo..jhi.  jlo >= h and jlo <= klo hold at every node,
        # so each node has candidates jlo..min(jhi, k).
        nodes = np.array([[h], [m - 1], [h], [m - 1]])
        while nodes.shape[1]:
            klo, khi, jlo, jhi = nodes
            k = (klo + khi) // 2
            lens = np.minimum(jhi, k) - jlo + 1
            ends = lens.cumsum()
            starts = ends - lens
            j = np.arange(ends[-1]) + (jlo - starts).repeat(lens)
            cand = prev[j - 1] + seg_cost(j, (k + 1).repeat(lens))
            # first index attaining each node's minimum (or its first NaN),
            # which is np.argmin's rule
            segmin = np.minimum.reduceat(cand, starts)
            hit = ((cand == segmin.repeat(lens)) | np.isnan(cand)).nonzero()[0]
            best = hit[hit.searchsorted(starts)]
            opt = j[best]
            cur[k] = cand[best]
            splits[h, k] = opt
            # children (klo, k-1, jlo, opt) and (k+1, khi, opt, jhi), if nonempty
            nodes = np.concatenate([[klo, k - 1, jlo, opt], [k + 1, khi, opt, jhi]], axis=1)
            nodes = nodes[:, nodes[0] <= nodes[1]]
        prev = cur
    last = n_strata - 1
    j = np.arange(last, m)
    splits[last, m - 1] = last + np.argmin(prev[j - 1] + seg_cost(j, m))
    return splits


def kmeans_1d(values, n_strata: int) -> StrataPartition:
    """Exact 1-D k-means: the interval partition minimizing total SSE.

    Sorts the values, pools duplicates, and runs a dynamic program whose
    solution is the global minimizer of
    ``sum_h sum_{i in stratum h} (v_i - mean_h)^2`` over all partitions
    into ``n_strata`` intervals of the sorted order (which contain the
    unconstrained optimum).  Deterministic; strata are labeled in
    increasing value order.

    Raises
    ------
    PreconditionError
        If ``n_strata`` exceeds the number of distinct values, or
        ``n_strata < 1``.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise PreconditionError("values must be a nonempty 1-D array")
    if not np.all(np.isfinite(values)):
        raise PreconditionError("values must be finite")
    if n_strata < 1:
        raise PreconditionError("need at least one stratum")
    u, inv, counts = np.unique(values, return_inverse=True, return_counts=True)
    if n_strata > u.size:
        raise PreconditionError(
            f"{n_strata} strata requested but only {u.size} distinct values"
        )
    if n_strata == 1:
        return StrataPartition(np.zeros(values.size, dtype=np.int64), 1)

    weights = counts.astype(float)
    # the DP's sums of squares reach (total weight * max |v|)**2: when that
    # could overflow, scale the values by a power of two first, which is
    # exact and leaves every comparison, so every split, as it was
    excess = math.frexp(float(np.abs(u).max()))[1] + math.frexp(float(weights.sum()))[1] - 510
    if excess > 0:
        u = np.ldexp(u, -excess)
    splits = _dp_rows(u, weights, n_strata)
    # walk back the split table to the interval boundaries
    bounds = np.empty(n_strata + 1, dtype=np.int64)
    bounds[n_strata] = u.size
    k = u.size - 1
    for h in range(n_strata - 1, 0, -1):
        j = int(splits[h, k])
        bounds[h] = j
        k = j - 1
    bounds[0] = 0
    label_of_distinct = np.repeat(np.arange(n_strata), np.diff(bounds))
    return StrataPartition(label_of_distinct[inv], n_strata)


def equal_width_bins(values, n_strata: int) -> StrataPartition:
    """Fixed-width bins over ``[min, max]``; empty bins merge rightward.

    The value range is cut into ``n_strata`` equal intervals (last bin
    closed on the right).  Bins that catch no units are merged into their
    right neighbor, so the returned partition may have fewer strata than
    requested.  All-identical values collapse to a single stratum with a
    warning.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise PreconditionError("values must be a nonempty 1-D array")
    if not np.all(np.isfinite(values)):
        raise PreconditionError("values must be finite")
    if n_strata < 1:
        raise PreconditionError("need at least one stratum")
    lo, hi = float(values.min()), float(values.max())
    if lo == hi:
        part = StrataPartition(np.zeros(values.size, dtype=np.int64), 1)
        if n_strata > 1:
            part.warnings.append(
                f"all values identical: {n_strata} bins collapsed to 1 stratum"
            )
        return part
    if math.isfinite(hi - lo):
        edges = np.linspace(lo, hi, n_strata + 1)
    else:
        # the span overflows: cut a quarter of it, where linspace's products
        # stay finite too, and scale the edges back by four, exactly (no
        # value this large is subnormal); the values are compared unscaled
        edges = np.ldexp(np.linspace(lo / 4, hi / 4, n_strata + 1), 2)
    raw = np.searchsorted(edges[1:-1], values, side="right")
    # merge empty bins rightward = drop unused labels, keep order
    used, assignment = np.unique(raw, return_inverse=True)
    part = StrataPartition(assignment, used.size)
    if used.size < n_strata:
        part.warnings.append(
            f"{n_strata - used.size} empty bins merged rightward; {used.size} strata remain"
        )
    return part
