import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from oracles import best_interval_partition, quadratic_dp_partition_cost, within_cluster_ss
from strateval import stratify
from strateval.errors import PreconditionError
from strateval.stratify import StrataPartition, equal_width_bins, kmeans_1d, partition_table
from strateval.tables import read_csv, write_csv


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
    # of the last row, the fill keeps only the entry the walk back reads
    assert np.array_equal(got[1][:-1], want[1][:-1]), (v, h)
    assert got[1][-1, -1] == want[1][-1, -1], (v, h)
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


def test_a_tie_in_the_last_row_alone_goes_to_the_smallest_left_edge():
    # {2}, {3}, {9, 10} and {2, 3}, {9}, {10} both cost 0.5, and no entry of
    # the earlier rows ties: the last interval starts at its first candidate
    v = np.array([2.0, 3.0, 9.0, 10.0])
    assert kmeans_1d(v, 3).assignment.tolist() == [0, 1, 2, 2]
    assert_matches_recursive_fill(v, 3)


def test_kmeans_1d_is_exact_past_the_square_range():
    # squares past the float range once made the costs NaN and the DP kept
    # the first NaN; scaling by a power of two keeps every split
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert kmeans_1d([0.0, 1.0, 2.0, 1e200], 2).assignment.tolist() == [0, 0, 0, 1]
        v = np.random.default_rng(13).random(200)
        for h in (2, 5, 9):
            assert np.array_equal(kmeans_1d(v * 2.0**700, h).assignment, kmeans_1d(v, h).assignment)


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


def test_bins_cut_a_span_past_the_largest_float():
    # max - min overflows: the edges were nan/inf, numpy warned, and every
    # value fell into one stratum "with 3 empty bins merged rightward"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        part = equal_width_bins([-1e308, -5e307, 0.0, 5e307, 1e308], 4)
        top = np.finfo(float).max
        widest = equal_width_bins([-top, top, 0.0, -top / 2, top / 3], 4)
    assert part.assignment.tolist() == [0, 1, 2, 3, 3] and not part.warnings
    assert widest.assignment.tolist() == [0, 3, 2, 1, 2] and not widest.warnings


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
    write_csv(p, "", *partition_table(part, ids))
    back = read_csv(p, ints=("stratum",))
    assert back.header == ["id", "stratum"]
    assert back.columns["id"] == ids
    assert back.numbers("stratum").tolist() == [0, 0, 1, 1]
