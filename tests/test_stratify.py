import tracemalloc

import numpy as np
import pytest

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


def test_partition_csv_round_trip(tmp_path):
    part = kmeans_1d([0.1, 0.2, 0.8, 0.9], 2)
    ids = ["a", "b", "c", "d"]
    p = tmp_path / "part.csv"
    p.write_text(partition_csv(part, ids))
    back = load_partition_csv(p)
    assert back == {"a": 0, "b": 0, "c": 1, "d": 1}
