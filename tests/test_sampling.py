from itertools import combinations

import numpy as np
import pytest
from scipy import stats

from oracles import srs_indices
from strateval.allocate import AllocationPlan
from strateval.dataset import Population
from strateval.errors import ConsistencyError, ParseError, PreconditionError
from strateval.losses import LossKind
from strateval.rng import derive_seed, derive_seeds, fisher_yates, substream
from strateval.sampling import (
    SampleDraw,
    draw_ssrs,
    load_worksheet,
    stratified_indices,
    worksheet_csv,
)
from strateval.stratify import StrataPartition


def make_pop(n):
    return Population(
        ids=tuple(f"u{i:03d}" for i in range(n)),
        proxy=np.arange(n) % 7 / 7,
        loss=np.full(n, np.nan),
        loss_kind=LossKind.ACCURACY,
    )


def draw_srs(pop, n, seed):
    """Plain SRS: the one-stratum stratified draw."""
    one = StrataPartition(np.zeros(pop.size, dtype=np.int64), 1)
    return draw_ssrs(pop, one, AllocationPlan(strategy="srs", n_h=np.array([n])), seed)


def draws_of_reps(pop, part, plan, seed, reps):
    """``draw_ssrs(pop, part, plan, derive_seed(seed, r)).indices`` for every rep
    ``r``, as the rows of one batched draw; a spread of rows is checked
    against ``draw_ssrs`` itself."""
    idx = stratified_indices(part, plan.n_h, derive_seeds(seed, np.arange(reps)))
    for r in (0, 1, 2, 999, reps // 2, reps - 1):
        assert np.array_equal(draw_ssrs(pop, part, plan, derive_seed(seed, r)).indices, idx[r])
    return idx


def test_srs_basics():
    pop = make_pop(40)
    draw = draw_srs(pop, 8, seed=37)
    assert draw.size == 8
    assert len(set(draw.ids)) == 8
    assert np.all(draw.pi == 8 / 40)
    assert np.all(draw.strata == 0)


def test_srs_census():
    pop = make_pop(6)
    draw = draw_srs(pop, 6, seed=1)
    assert sorted(draw.ids) == sorted(pop.ids)
    assert np.all(draw.pi == 1.0)


def test_srs_deterministic():
    pop = make_pop(30)
    assert draw_srs(pop, 5, seed=2).ids == draw_srs(pop, 5, seed=2).ids
    assert draw_srs(pop, 5, seed=2).ids != draw_srs(pop, 5, seed=3).ids


def test_srs_size_bounds():
    pop = make_pop(10)
    with pytest.raises(PreconditionError):
        draw_srs(pop, 0, seed=1)
    with pytest.raises(PreconditionError):
        draw_srs(pop, 11, seed=1)


def test_srs_inclusion_frequencies():
    pop = make_pop(10)
    reps = 50_000
    one = StrataPartition(np.zeros(10, dtype=np.int64), 1)
    idx = draws_of_reps(pop, one, AllocationPlan(strategy="srs", n_h=np.array([3])), 37, reps)
    assert np.array_equal(draw_srs(pop, 3, derive_seed(37, 7)).indices, idx[7])
    counts = np.bincount(idx.ravel(), minlength=10)
    freq = counts / reps
    assert np.all(np.abs(freq - 0.3) < 0.01)


def test_ssrs_single_stratum_matches_srs_substream():
    # a 1-stratum stratified draw is exactly a partial Fisher-Yates pass
    # over the whole pool on the stratum-0 substream
    pop = make_pop(50)
    part = StrataPartition(np.zeros(50, dtype=np.int64), 1)
    plan = AllocationPlan(strategy="prop", n_h=np.array([12]))
    a = draw_ssrs(pop, part, plan, seed=99)
    assert np.array_equal(a.indices, srs_indices(substream(99, 0), 50, 12))
    assert a.ids == tuple(pop.ids[i] for i in a.indices)
    assert np.all(a.pi == 12 / 50)


def test_ssrs_census():
    pop = make_pop(4)
    part = StrataPartition(np.array([0, 0, 1, 1]), 2)
    plan = AllocationPlan(strategy="prop", n_h=np.array([2, 2]))
    draw = draw_ssrs(pop, part, plan, seed=5)
    assert sorted(draw.ids) == sorted(pop.ids)
    assert np.all(draw.pi == 1.0)


def test_ssrs_pi_and_counts():
    pop = make_pop(200)
    part = StrataPartition(np.repeat([0, 1], 100), 2)
    plan = AllocationPlan(strategy="prop", n_h=np.array([10, 30]))
    draw = draw_ssrs(pop, part, plan, seed=8)
    assert draw.size == 40
    assert np.sum(draw.strata == 0) == 10
    assert np.sum(draw.strata == 1) == 30
    assert np.all(draw.pi[draw.strata == 0] == 0.1)
    assert np.all(draw.pi[draw.strata == 1] == 0.3)


def test_ssrs_inclusion_frequencies():
    pop = make_pop(200)
    part = StrataPartition(np.repeat([0, 1], 100), 2)
    plan = AllocationPlan(strategy="prop", n_h=np.array([10, 30]))
    reps = 50_000
    counts = np.bincount(draws_of_reps(pop, part, plan, 4, reps).ravel(), minlength=200)
    freq = counts / reps
    assert np.all(np.abs(freq[:100] - 0.1) < 0.01)
    assert np.all(np.abs(freq[100:] - 0.3) < 0.01)


def test_ssrs_validation():
    pop = make_pop(10)
    part = StrataPartition(np.repeat([0, 1], 5), 2)
    with pytest.raises(ConsistencyError):
        draw_ssrs(pop, part, AllocationPlan("prop", np.array([2, 2, 2])), seed=1)
    with pytest.raises(PreconditionError):
        draw_ssrs(pop, part, AllocationPlan("prop", np.array([6, 2])), seed=1)
    short = StrataPartition(np.zeros(4, dtype=np.int64), 1)
    with pytest.raises(ConsistencyError):
        draw_ssrs(pop, short, AllocationPlan("prop", np.array([2])), seed=1)


def test_a_draw_below_the_estimable_floor_is_refused():
    # one unit from a three-unit stratum leaves its variance inestimable:
    # the draw is refused where stratified_estimate would refuse the sample
    pop = make_pop(6)
    part = StrataPartition(np.array([0, 0, 0, 1, 1, 1]), 2)
    with pytest.raises(PreconditionError, match=r"min\(2, N_h\) <= n_h"):
        draw_ssrs(pop, part, AllocationPlan("prop", np.array([1, 3])), seed=1)
    # a one-unit stratum needs, and allows, only its one unit
    single = StrataPartition(np.array([0, 1, 1, 1, 1, 1]), 2)
    draw = draw_ssrs(pop, single, AllocationPlan("prop", np.array([1, 2])), seed=1)
    assert draw.strata.tolist() == [0, 1, 1] and draw.indices[0] == 0


def test_every_subset_equally_likely():
    # 60,000 within-stratum draws of 2 from 4; all six subsets should be
    # uniform (chi-square on the observed counts)
    reps = 60_000
    subsets = {frozenset(c): i for i, c in enumerate(combinations(range(4), 2))}
    counts = np.zeros(6)
    for idx in fisher_yates(derive_seeds(123, np.arange(reps)), [4], [2]):
        counts[subsets[frozenset(idx.tolist())]] += 1
    p = stats.chisquare(counts).pvalue
    assert p > 0.001, f"subset frequencies {counts / reps} (p={p:.2e})"


def test_strata_drawn_independently():
    # inclusion indicators from different strata should be uncorrelated
    pop = make_pop(8)
    part = StrataPartition(np.repeat([0, 1], 4), 2)
    plan = AllocationPlan(strategy="prop", n_h=np.array([2, 2]))
    reps = 20_000
    idx = draws_of_reps(pop, part, plan, 77, reps)
    x = (idx == 0).any(axis=1).astype(float)
    y = (idx == 4).any(axis=1).astype(float)
    corr = np.corrcoef(x, y)[0, 1]
    assert abs(corr) < 4 / np.sqrt(reps)


# -- worksheet -----------------------------------------------------------------


def test_worksheet_header_and_round_trip(tmp_path):
    pop = make_pop(20)
    part = StrataPartition(np.repeat([0, 1], 10), 2)
    plan = AllocationPlan(strategy="prop", n_h=np.array([3, 2]))
    draw = draw_ssrs(pop, part, plan, seed=21)
    text = worksheet_csv(draw)
    assert text.splitlines()[0] == "id,stratum,pi"
    p = tmp_path / "w.csv"
    p.write_text(text)
    ws = load_worksheet(p)
    assert ws.ids == draw.ids
    assert np.array_equal(ws.strata, draw.strata)
    assert np.array_equal(ws.pi, draw.pi)
    assert np.all(np.isnan(ws.loss))  # annotator hasn't filled it yet


def test_worksheet_filled_losses(tmp_path):
    p = tmp_path / "w.csv"
    p.write_text("id,stratum,pi,loss\nu1,0,0.5,1\nu2,0,0.5,\nu3,1,0.25,0\n")
    ws = load_worksheet(p)
    assert ws.loss[0] == 1.0 and np.isnan(ws.loss[1]) and ws.loss[2] == 0.0


def test_worksheet_errors(tmp_path):
    p = tmp_path / "w.csv"
    p.write_text("id,stratum,pi\nu1,0,0.5\nu1,0,0.5\n")
    with pytest.raises(ParseError, match="duplicate"):
        load_worksheet(p)
    p.write_text("id,stratum,pi\nu1,zero,0.5\n")
    with pytest.raises(ParseError, match="line 2"):
        load_worksheet(p)
    p.write_text("id,stratum,pi\nu1,0,1.5\n")
    with pytest.raises(ParseError, match="pi"):
        load_worksheet(p)
    p.write_text("id,stratum,pi\n")
    with pytest.raises(ParseError, match="no data"):
        load_worksheet(p)
    with pytest.raises(ParseError, match="no such file"):
        load_worksheet(tmp_path / "nope.csv")


def test_worksheet_comment_lines_skipped(tmp_path):
    p = tmp_path / "w.csv"
    p.write_text("# config\nid,stratum,pi\nu1,0,0.5\n")
    assert load_worksheet(p).ids == ("u1",)


def test_draw_rejects_bad_pi():
    with pytest.raises(PreconditionError):
        SampleDraw(
            indices=np.array([0]),
            ids=("a",),
            strata=np.array([0]),
            pi=np.array([1.5]),
            stratum_sizes=np.array([1]),
        )
