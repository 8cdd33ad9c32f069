"""Slow reference implementations the tests check the package against.

Everything in here is deliberately naive: exhaustive enumeration, direct
transcription of textbook sums, or brute-force search.  None of it shares
code with the package, so agreement is meaningful evidence.
"""

import itertools
import math

import numpy as np


# -- clustering ---------------------------------------------------------------


def best_interval_partition(values, n_blocks):
    """Exhaustively minimize within-block sum of squares over every way of
    cutting the sorted values into ``n_blocks`` contiguous nonempty runs.

    Cuts are placed between *positions*, so duplicate values may be split
    across blocks — a strictly larger search space than the package's
    pooled DP explores, which makes the equality check sharper.
    """
    v = np.sort(np.asarray(values, dtype=float))
    n = v.size
    pre = np.concatenate([[0.0], np.cumsum(v)])
    pre2 = np.concatenate([[0.0], np.cumsum(v * v)])

    def seg(a, b):  # within-SS of v[a:b]
        s = pre[b] - pre[a]
        return (pre2[b] - pre2[a]) - s * s / (b - a)

    best = math.inf
    for cuts in itertools.combinations(range(1, n), n_blocks - 1):
        edges = (0, *cuts, n)
        cost = sum(seg(edges[k], edges[k + 1]) for k in range(n_blocks))
        if cost < best:
            best = cost
    return best


def quadratic_dp_partition_cost(values, n_blocks):
    """O(H * M^2) dynamic program over pooled distinct values.

    Same recurrence as the package's solver but with plain full-range
    minimization instead of divide-and-conquer, so it cross-checks the
    monotone-argmin optimization on sizes exhaustion can't reach.
    """
    v = np.sort(np.asarray(values, dtype=float))
    u, counts = np.unique(v, return_counts=True)
    w = counts.astype(float)
    m = u.size
    cw = np.concatenate([[0.0], np.cumsum(w)])
    cs = np.concatenate([[0.0], np.cumsum(w * u)])
    cq = np.concatenate([[0.0], np.cumsum(w * u * u)])

    def seg(a, b):  # pooled within-SS of distinct values u[a:b]
        s = cs[b] - cs[a]
        return (cq[b] - cq[a]) - s * s / (cw[b] - cw[a])

    dp = np.array([seg(0, k + 1) for k in range(m)])
    for h in range(2, n_blocks + 1):
        nxt = np.full(m, math.inf)
        for k in range(h - 1, m):
            nxt[k] = min(dp[j - 1] + seg(j, k + 1) for j in range(h - 1, k + 1))
        dp = nxt
    return float(dp[m - 1])


def within_cluster_ss(values, labels):
    """Plain within-cluster sum of squares, sum_h sum_i (v_i - vbar_h)^2."""
    v = np.asarray(values, dtype=float)
    labels = np.asarray(labels)
    return sum(
        float(np.sum((v[labels == h] - v[labels == h].mean()) ** 2))
        for h in np.unique(labels)
    )


# -- isotonic regression ------------------------------------------------------


def best_monotone_fit(y, weights=None):
    """Exhaustive least-squares nondecreasing fit.

    Tries every composition of the points into contiguous blocks, keeps the
    compositions whose block means are nondecreasing (each is a feasible
    step fit and block means are optimal for fixed blocks), and returns the
    (fitted vector, cost) of the cheapest.  The optimum's own level sets
    are one such composition, so the minimum is the true isotonic fit.
    """
    y = np.asarray(y, dtype=float)
    w = np.ones_like(y) if weights is None else np.asarray(weights, dtype=float)
    k = y.size
    best_cost = math.inf
    best_fit = None
    for mask in range(1 << max(k - 1, 0)):
        edges = [0] + [j + 1 for j in range(k - 1) if mask >> j & 1] + [k]
        means = [np.average(y[a:b], weights=w[a:b]) for a, b in zip(edges, edges[1:])]
        if any(b < a - 1e-12 for a, b in zip(means, means[1:])):
            continue
        cost = sum(
            float(np.sum(w[a:b] * (y[a:b] - m) ** 2))
            for (a, b), m in zip(zip(edges, edges[1:]), means)
        )
        if cost < best_cost - 1e-12:
            best_cost = cost
            best_fit = np.concatenate(
                [np.full(b - a, m) for (a, b), m in zip(zip(edges, edges[1:]), means)]
            )
    return best_fit, best_cost


# -- design MSEs by complete enumeration --------------------------------------


def enumerate_srs_mse(losses, n, proxies=None):
    """Exact design MSE of the estimator under SRS by averaging over every
    one of the C(N, n) equally likely samples.

    With ``proxies`` the estimator is the difference estimator (pool proxy
    mean plus expanded residual mean); without, the plain expansion
    estimator, which under SRS is the sample mean.
    """
    z = np.asarray(losses, dtype=float)
    target = z.mean()
    inds = range(z.size)
    if proxies is None:
        ests = [z[list(s)].mean() for s in itertools.combinations(inds, n)]
    else:
        zh = np.asarray(proxies, dtype=float)
        base = zh.mean()
        ests = [
            base + (z[list(s)] - zh[list(s)]).mean()
            for s in itertools.combinations(inds, n)
        ]
    return float(np.mean([(e - target) ** 2 for e in ests]))


def enumerate_ssrs_mse(losses, assignment, n_h, proxies=None):
    """Exact design MSE under stratified SRS: average over the cartesian
    product of all within-stratum subsets."""
    z = np.asarray(losses, dtype=float)
    a = np.asarray(assignment)
    n_strata = int(a.max()) + 1
    target = z.mean()
    weights = [np.sum(a == h) / z.size for h in range(n_strata)]
    per_stratum = []
    for h in range(n_strata):
        members = np.flatnonzero(a == h)
        per_stratum.append(
            [np.asarray(s) for s in itertools.combinations(members, int(n_h[h]))]
        )
    if proxies is not None:
        zh = np.asarray(proxies, dtype=float)
        base = zh.mean()
        vals = z - zh
    else:
        base = 0.0
        vals = z
    sq = []
    for combo in itertools.product(*per_stratum):
        est = base + sum(
            w * vals[s].mean() for w, s in zip(weights, combo)
        )
        sq.append((est - target) ** 2)
    return float(np.mean(sq))


def textbook_stratified_estimate(values, strata, sizes):
    """Stratified mean and plug-in SE, summed stratum by stratum:
    ``sum_h (N_h/N) ybar_h`` and
    ``sqrt(sum_h (N_h/N)^2 (1 - n_h/N_h) s_h^2 / n_h)``."""
    v = np.asarray(values, dtype=float)
    strata = np.asarray(strata)
    pop = float(sum(sizes))
    mean = var = 0.0
    for h, size in enumerate(sizes):
        y = v[strata == h]
        mean += size / pop * y.mean()
        var += (size / pop) ** 2 * (1 - y.size / size) * np.var(y, ddof=1) / y.size
    return mean, math.sqrt(var)


def enumerate_srs_estimates(losses, n, proxies=None):
    """All equally likely estimator values under SRS (for unbiasedness)."""
    z = np.asarray(losses, dtype=float)
    if proxies is None:
        return [z[list(s)].mean() for s in itertools.combinations(range(z.size), n)]
    zh = np.asarray(proxies, dtype=float)
    return [
        zh.mean() + (z[list(s)] - zh[list(s)]).mean()
        for s in itertools.combinations(range(z.size), n)
    ]


def two_group_losses(sizes, means, sds):
    """Losses with exact per-stratum mean and SD (divisor N_h - 1)."""
    out = []
    for n_h, mu, sd in zip(sizes, means, sds):
        base = np.tile([1.0, -1.0], n_h // 2)
        base *= sd * np.sqrt((n_h - 1) / np.sum(base**2)) if sd else 0.0
        out.append(mu + base)
    return np.concatenate(out)
