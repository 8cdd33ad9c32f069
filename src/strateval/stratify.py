"""Partitioning the pool into strata before sampling.

Three routes: exact 1-D k-means on a proxy column (dynamic program over
the sorted values — the globally optimal interval partition), Lloyd's
k-means on embedding vectors, and fixed-width proxy bins.  Strata are
labeled ``0..H-1``; for the 1-D routes, labels increase with the proxy.
``partition.csv`` is written and read back through the one table writer
and reader in :mod:`strateval.tables`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tables
from .errors import ParseError, PreconditionError
from .rng import substream


@dataclass
class StrataPartition:
    """Assignment of every unit (canonical order) to a stratum.

    ``assignment[i]`` is the stratum of unit ``i``; all ``H`` labels
    ``0..H-1`` occur.  ``warnings`` records degenerate-input repairs
    (e.g. constant values collapsing the partition).
    """

    assignment: np.ndarray
    n_strata: int
    warnings: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.assignment = np.asarray(self.assignment, dtype=np.int64)
        if self.assignment.ndim != 1 or self.assignment.size == 0:
            raise PreconditionError("assignment must be a nonempty 1-D array")
        a = self.assignment
        # bincount counts the distinct labels only once they lie in 0..H-1
        if (
            a.min() < 0
            or a.max() >= self.n_strata
            or np.count_nonzero(np.bincount(a)) != self.n_strata
        ):
            raise PreconditionError(
                f"assignment must use every label in 0..{self.n_strata - 1}"
            )
        self.assignment.setflags(write=False)

    @property
    def sizes(self) -> np.ndarray:
        """Stratum sizes N_h, indexed by stratum label."""
        return np.bincount(self.assignment, minlength=self.n_strata)

    def members(self, h: int) -> np.ndarray:
        """Canonical-order indices of stratum ``h``."""
        return np.flatnonzero(self.assignment == h)


def partition_csv(partition: StrataPartition, ids) -> str:
    if len(ids) != partition.assignment.size:
        raise PreconditionError("ids and assignment lengths disagree")
    return tables.csv_text(
        ["id", "stratum"], zip(tables.writable_ids(ids), partition.assignment.tolist())
    )


def load_partition_csv(path) -> dict[str, int]:
    """Read an ``id,stratum`` file back to a mapping; an id may occur once."""
    t = tables.read_csv(path)
    if t.header[:2] != ["id", "stratum"]:
        raise ParseError(f"{t.path} line {t.header_line}: expected header id,stratum")
    strata = tables.numbers(t.columns["stratum"], "stratum", t.where, dtype=np.int64)
    return dict(zip(tables.ids(t.columns["id"], t.where), strata.tolist()))


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
    column.  Ties go to the smallest left edge, as with ``np.argmin``.
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
    for h in range(1, n_strata):
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

    splits = _dp_rows(u, counts.astype(float), n_strata)
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


# -- embedding k-means -------------------------------------------------------

N_RESTARTS = 10


def _kmeanspp_init(x: np.ndarray, k: int, rng) -> np.ndarray:
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[int(rng.integers(n))]
    d2 = np.sum((x - centers[0]) ** 2, axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total <= 0:
            # all remaining mass on existing centers: pick uniformly
            centers[c] = x[int(rng.integers(n))]
            continue
        r = rng.random() * total
        idx = int(np.searchsorted(np.cumsum(d2), r))
        idx = min(idx, n - 1)
        centers[c] = x[idx]
        d2 = np.minimum(d2, np.sum((x - centers[c]) ** 2, axis=1))
    return centers


def _lloyd(x: np.ndarray, centers: np.ndarray, max_iter: int = 300):
    k = centers.shape[0]
    assignment = None
    d2 = np.empty((x.shape[0], k))
    for _ in range(max_iter):
        # one center at a time: an (N, K, d) difference tensor would not fit
        # in memory at pool scale
        for h in range(k):
            d2[:, h] = ((x - centers[h]) ** 2).sum(axis=1)
        new_assignment = np.argmin(d2, axis=1)
        # repair empty clusters: hand them the farthest point of the largest
        for h in range(k):
            if not np.any(new_assignment == h):
                sizes = np.bincount(new_assignment, minlength=k)
                big = int(np.argmax(sizes))
                members = np.flatnonzero(new_assignment == big)
                far = members[int(np.argmax(d2[members, big]))]
                new_assignment[far] = h
        if assignment is not None and np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment
        for h in range(k):
            centers[h] = x[assignment == h].mean(axis=0)
    obj = float(((x - centers[assignment]) ** 2).sum())
    return assignment, obj


def kmeans_embeddings(embeddings, n_strata: int, seed: int) -> StrataPartition:
    """Lloyd's k-means over embedding vectors, best of several restarts.

    Each restart ``r`` gets its own substream (derived from
    ``(seed, r)``), initializes with k-means++, and iterates to a fixed
    point; the restart with the lowest within-cluster SSE wins, ties going
    to the lowest restart index.  Deterministic for a given seed.  Strata
    are relabeled by first canonical appearance so the labeling doesn't
    depend on init order.
    """
    x = np.asarray(embeddings, dtype=float)
    if x.ndim != 2 or x.shape[0] == 0:
        raise PreconditionError("embeddings must be a nonempty (N, d) matrix")
    n = x.shape[0]
    if not 1 <= n_strata <= n:
        raise PreconditionError(f"n_strata must be in [1, {n}]")
    best = None
    for r in range(N_RESTARTS):
        rng = substream(seed, r)
        centers = _kmeanspp_init(x, n_strata, rng)
        assignment, obj = _lloyd(x, centers)
        if best is None or obj < best[0] - 1e-12:
            best = (obj, assignment)
    _, assignment = best
    # canonical relabeling: stratum 0 is the cluster of the first unit, etc.
    clusters, first = np.unique(assignment, return_index=True)
    relabel = np.empty(n_strata, dtype=np.int64)
    relabel[clusters[np.argsort(first)]] = np.arange(clusters.size)
    return StrataPartition(relabel[assignment], n_strata)


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
    edges = np.linspace(lo, hi, n_strata + 1)
    raw = np.searchsorted(edges[1:-1], values, side="right")
    # merge empty bins rightward = drop unused labels, keep order
    used, assignment = np.unique(raw, return_inverse=True)
    part = StrataPartition(assignment, used.size)
    if used.size < n_strata:
        part.warnings.append(
            f"{n_strata - used.size} empty bins merged rightward; {used.size} strata remain"
        )
    return part
