import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from oracles import best_interval_partition, quadratic_dp_partition_cost, within_cluster_ss
from strateval import stratify
from strateval.errors import PreconditionError
from strateval.rng import substream
from strateval.stratify import (
    StrataPartition,
    equal_width_bins,
    kmeans_1d,
    kmeans_embeddings,
    load_partition_csv,
    partition_csv,
)


# -- kmeans_1d -------------------------------------------------------------


def test_separable_clusters():
    part = kmeans_1d([0.0, 0.0, 1.0, 1.0], 2)
    assert part.assignment.tolist() == [0, 0, 1, 1]
    assert within_cluster_ss([0.0, 0.0, 1.0, 1.0], part.assignment) == 0.0


def test_three_values_two_strata():
    # both interval partitions by hand: {0},{0.4,1} costs 0.18,
    # {0,0.4},{1} costs 0.08 -> the second wins
    v = [0.0, 0.4, 1.0]
    part = kmeans_1d(v, 2)
    assert part.assignment.tolist() == [0, 0, 1]
    assert within_cluster_ss(v, part.assignment) == pytest.approx(0.08)


def test_single_stratum_objective_is_total_ss():
    v = np.array([0.1, 0.4, 0.7, 0.9])
    part = kmeans_1d(v, 1)
    assert part.n_strata == 1
    assert within_cluster_ss(v, part.assignment) == pytest.approx(np.sum((v - v.mean()) ** 2))


def test_labels_ordered_by_value():
    rng = np.random.default_rng(0)
    v = rng.random(50)
    part = kmeans_1d(v, 4)
    order = np.argsort(v, kind="stable")
    assert np.all(np.diff(part.assignment[order]) >= 0)


def test_duplicates_stay_together():
    rng = np.random.default_rng(1)
    v = rng.choice([0.0, 0.2, 0.5, 0.6, 1.0], size=40)
    part = kmeans_1d(v, 3)
    for val in np.unique(v):
        assert np.ptp(part.assignment[v == val]) == 0


def test_too_many_strata_rejected():
    with pytest.raises(PreconditionError, match="distinct"):
        kmeans_1d([0.0, 0.5, 0.5, 1.0], 4)
    with pytest.raises(PreconditionError):
        kmeans_1d([0.1, 0.2], 0)


def test_matches_exhaustive_search_small():
    rng = np.random.default_rng(2)
    for _ in range(300):
        n = int(rng.integers(2, 12))
        v = np.round(rng.random(n), 2)  # rounding manufactures ties
        for h in range(1, min(4, np.unique(v).size) + 1):
            got = within_cluster_ss(v, kmeans_1d(v, h).assignment)
            want = best_interval_partition(v, h)
            assert got == pytest.approx(want, abs=1e-9), (v, h)


def test_matches_quadratic_dp_mid_size():
    # cross-check the divide-and-conquer row fill against a plain DP on
    # sizes exhaustive search can't reach
    rng = np.random.default_rng(3)
    for n, h in [(80, 3), (150, 5), (400, 8), (257, 6)]:
        v = np.round(rng.random(n), 2 if n < 200 else 3)
        got = within_cluster_ss(v, kmeans_1d(v, h).assignment)
        want = quadratic_dp_partition_cost(v, h)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-10)


def test_objective_nonincreasing_in_strata_count():
    rng = np.random.default_rng(4)
    v = rng.random(60)
    costs = [within_cluster_ss(v, kmeans_1d(v, h).assignment) for h in range(1, 8)]
    assert all(a >= b - 1e-12 for a, b in zip(costs, costs[1:]))


def test_deterministic():
    v = np.random.default_rng(5).random(30)
    a = kmeans_1d(v, 3).assignment
    b = kmeans_1d(v, 3).assignment
    assert np.array_equal(a, b)


def recursive_dp_rows(u, w, n_strata):
    """The DP row fill by depth-first recursion, one numpy call per column: the reference."""
    m = u.size
    cw = np.concatenate([[0.0], np.cumsum(w)])
    cs = np.concatenate([[0.0], np.cumsum(w * u)])
    cq = np.concatenate([[0.0], np.cumsum(w * u * u)])

    def seg_cost(j, k):
        ww = cw[k + 1] - cw[j]
        ss = cs[k + 1] - cs[j]
        return (cq[k + 1] - cq[j]) - ss * ss / ww

    prev = seg_cost(np.zeros(m, dtype=np.int64), np.arange(m))
    splits = np.zeros((n_strata, m), dtype=np.int64)
    for h in range(1, n_strata):
        cur = np.full(m, np.inf)

        def fill(klo, khi, jlo, jhi):
            if klo > khi:
                return
            k = (klo + khi) // 2
            lo = max(jlo, h)
            hi = min(jhi, k)
            j = np.arange(lo, hi + 1)
            cand = prev[j - 1] + seg_cost(j, k)
            best = int(np.argmin(cand))
            cur[k] = cand[best]
            opt = lo + best
            splits[h, k] = opt
            fill(klo, k - 1, jlo, opt)
            fill(k + 1, khi, opt, jhi)

        fill(h, m - 1, h, m - 1)
        prev = cur
    return splits


def partition_with(row_fill, v, h):
    """``kmeans_1d(v, h)`` filling its DP rows with ``row_fill``: assignment and split table."""
    tables = []

    def fill(*args):
        tables.append(row_fill(*args))
        return tables[-1]

    with mock.patch.object(stratify, "_dp_rows", fill):
        assignment = kmeans_1d(v, h).assignment
    return assignment, tables[0]


def assert_matches_recursive_fill(v, h):
    got = partition_with(stratify._dp_rows, v, h)
    want = partition_with(recursive_dp_rows, v, h)
    assert np.array_equal(got[1], want[1]), (v, h)
    assert np.array_equal(got[0], want[0]), (v, h)


@st.composite
def tied_pools(draw):
    # values on a coarse grid, so segment costs tie; on an integer or 1/4 grid
    # the costs are exact and tie exactly.  Half the pools repeat every drawn
    # value by up to 400.
    top = draw(st.sampled_from([4, 12, 100, 1000]))
    scale = draw(st.sampled_from([1, 4, 10, 1000]))
    levels = draw(st.lists(st.integers(0, top), min_size=2, max_size=60))
    reps = 1
    if draw(st.booleans()):
        reps = draw(st.lists(st.integers(1, 400), min_size=len(levels), max_size=len(levels)))
    return np.repeat(np.array(levels) / scale, reps)


@given(v=tied_pools(), data=st.data())
def test_row_fill_matches_recursive_fill(v, data):
    distinct = np.unique(v).size
    assume(distinct >= 2)
    h = data.draw(st.integers(2, min(12, distinct)))
    assert_matches_recursive_fill(v, h)
    if distinct <= 12:
        assert_matches_recursive_fill(v, distinct)  # every value its own stratum


def test_row_fill_matches_recursive_fill_on_criterion_5_instances():
    # the instance generator of acceptance criterion 5
    rng = np.random.default_rng(505)
    for i in range(10_000):
        m = int(rng.integers(2, 13))
        v = rng.random(m) if i % 2 else np.round(rng.random(m), 1)
        h = int(rng.integers(1, min(4, np.unique(v).size) + 1))
        if h > 1:
            assert_matches_recursive_fill(v, h)


def test_row_fill_matches_recursive_fill_on_fine_proxy():
    # 10^4 distinct Beta(2, 5) values at H = 10, the fine-proxy benchmark's shape
    v = np.random.default_rng(11).beta(2.0, 5.0, size=10_000)
    assert np.unique(v).size == 10_000
    assert_matches_recursive_fill(v, 10)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_row_fill_matches_recursive_fill_when_costs_overflow():
    # squares past the float range make inf - inf = NaN costs; argmin takes the first NaN
    rng = np.random.default_rng(12)
    for _ in range(50):
        v = rng.choice([-1e300, -1e160, 0.0, 1.0, 1e155, 1e160, 5e200, 1e300], size=20)
        for h in range(2, np.unique(v).size + 1):
            assert_matches_recursive_fill(v, h)


# -- equal_width_bins --------------------------------------------------------


def test_bins_basic():
    part = equal_width_bins([0.0, 0.5, 1.0], 2)
    assert part.assignment.tolist() == [0, 1, 1]  # [0,0.5) and [0.5,1]


def test_bins_uniform_grid():
    v = np.arange(100) / 99
    part = equal_width_bins(v, 10)
    assert part.n_strata == 10
    assert part.sizes.tolist() == [10] * 10


def test_bins_empty_bins_merge_rightward():
    # values pile up at the ends, middle bins are empty and disappear
    v = np.array([0.0, 0.01, 0.02, 0.98, 0.99, 1.0])
    part = equal_width_bins(v, 5)
    assert part.n_strata == 2
    assert part.sizes.tolist() == [3, 3]


def test_bins_constant_values_collapse_with_warning():
    part = equal_width_bins([0.4, 0.4, 0.4], 3)
    assert part.n_strata == 1
    assert part.warnings


def test_bins_never_beat_kmeans():
    rng = np.random.default_rng(6)
    for _ in range(50):
        v = rng.random(int(rng.integers(5, 60)))
        h = int(rng.integers(1, 5))
        bins = equal_width_bins(v, h)
        km = kmeans_1d(v, min(h, np.unique(v).size))
        total = within_cluster_ss(v, np.zeros(v.size, dtype=int))
        assert (
            within_cluster_ss(v, km.assignment)
            <= within_cluster_ss(v, bins.assignment) + 1e-12
            <= total + 1e-9
        )


# -- kmeans_embeddings -------------------------------------------------------


def test_embeddings_two_separated_clouds():
    rng = np.random.default_rng(7)
    a = rng.normal(0.0, 0.1, size=(20, 3))
    b = rng.normal(5.0, 0.1, size=(25, 3))
    x = np.vstack([a, b])
    part = kmeans_embeddings(x, 2, seed=11)
    # one cloud per stratum
    assert np.ptp(part.assignment[:20]) == 0
    assert np.ptp(part.assignment[20:]) == 0
    assert part.assignment[0] != part.assignment[-1]
    got = sum(
        np.sum((x[part.assignment == h] - x[part.assignment == h].mean(0)) ** 2)
        for h in range(2)
    )
    want = np.sum((a - a.mean(0)) ** 2) + np.sum((b - b.mean(0)) ** 2)
    assert got == pytest.approx(want)


def test_embeddings_every_unit_own_stratum():
    x = np.arange(10.0).reshape(-1, 1) * 3
    part = kmeans_embeddings(x, 10, seed=0)
    assert part.n_strata == 10
    assert sorted(part.assignment.tolist()) == list(range(10))


def test_embeddings_deterministic():
    rng = np.random.default_rng(8)
    x = rng.random((40, 4))
    a = kmeans_embeddings(x, 3, seed=5).assignment
    b = kmeans_embeddings(x, 3, seed=5).assignment
    assert np.array_equal(a, b)


def test_embeddings_1d_never_beats_exact_dp():
    rng = np.random.default_rng(9)
    for _ in range(10):
        v = rng.random(30)
        h = 3
        exact = within_cluster_ss(v, kmeans_1d(v, h).assignment)
        lloyd_part = kmeans_embeddings(v.reshape(-1, 1), h, seed=2)
        lloyd = sum(
            float(np.sum((v[lloyd_part.assignment == s] - v[lloyd_part.assignment == s].mean()) ** 2))
            for s in range(h)
        )
        assert lloyd >= exact - 1e-9


def broadcast_lloyd(x, centers, max_iter=300):
    """Lloyd's iterations with all N x K x d differences at once: the reference."""
    k = centers.shape[0]
    assignment = None
    for _ in range(max_iter):
        d2 = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_assignment = np.argmin(d2, axis=1)
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
    return assignment, float(((x - centers[assignment]) ** 2).sum())


@pytest.mark.parametrize("n,k,d", [(300, 4, 2), (2000, 8, 32), (500, 10, 768)])
def test_lloyd_matches_broadcast_reference(monkeypatch, n, k, d):
    x = np.random.default_rng(n + d).normal(size=(n, d))
    x[: n // 2] += 3.0  # two clouds, so iterations move the centers
    centers = stratify._kmeanspp_init(x, k, substream(9, 0))
    got = stratify._lloyd(x, centers.copy())
    want = broadcast_lloyd(x, centers.copy())
    assert np.array_equal(got[0], want[0]) and got[1] == want[1]
    part = kmeans_embeddings(x, k, seed=4)
    monkeypatch.setattr(stratify, "_lloyd", broadcast_lloyd)
    assert np.array_equal(part.assignment, kmeans_embeddings(x, k, seed=4).assignment)


def test_lloyd_memory_is_not_n_by_k_by_d():
    # the broadcast form peaked at 117.6 MB here: N*K*d float64 differences
    x = np.random.default_rng(0).normal(size=(2000, 768))
    tracemalloc.start()
    try:
        kmeans_embeddings(x, 10, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 117.6e6 / 4


def test_embeddings_validation():
    with pytest.raises(PreconditionError):
        kmeans_embeddings(np.ones((3, 2)), 4, seed=0)


# -- partition plumbing ------------------------------------------------------


def test_partition_must_use_every_label():
    with pytest.raises(PreconditionError):
        StrataPartition(np.array([0, 2, 2]), 3)  # label 1 unused


@pytest.mark.parametrize(
    "labels",
    [[0, 1, -1, 2], [0, 1, 2, 3], [2, 1, 2**40], [1, 1, 0]],
    ids=["negative", "too-large", "huge", "missing"],
)
def test_partition_refuses_labels_outside_or_missing_from_range(labels):
    with pytest.raises(PreconditionError, match=r"^assignment must use every label in 0\.\.2$"):
        StrataPartition(np.array(labels), 3)


def test_partition_csv_round_trip(tmp_path):
    part = kmeans_1d([0.1, 0.2, 0.8, 0.9], 2)
    ids = ["a", "b", "c", "d"]
    p = tmp_path / "part.csv"
    p.write_text(partition_csv(part, ids))
    back = load_partition_csv(p)
    assert back == {"a": 0, "b": 0, "c": 1, "d": 1}
