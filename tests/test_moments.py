"""Per-stratum moments and the plug-in SD path, against references kept here.

``stratum_moments`` is checked against exact rational arithmetic,
``stratified_estimate`` against a copy of its earlier body, and
``plugin_sds`` against the per-stratum, per-unit loops it replaced.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from strateval.allocate import neyman, plugin_sds
from strateval.dataset import Population
from strateval.errors import ConsistencyError
from strateval.estimators import stratified_estimate, stratum_moments
from strateval.losses import SCORE_FLOOR, LossKind, conditional_moments
from strateval.stratify import StrataPartition

EPS = np.finfo(float).eps

# constant values whose running sum rounds (0.7 + 0.7 + 0.7 != 2.1) sit
# next to arbitrary ones, so that constant and singleton strata come up
VALUE = st.one_of(st.sampled_from([0.0, 1.0, 0.7, 0.1]), st.floats(-1e3, 1e3))


@st.composite
def grouped(draw, min_per_stratum=1, max_strata=5):
    """Values, their strata (every label used, in shuffled order) and H."""
    groups = draw(st.lists(
        st.one_of(
            st.lists(VALUE, min_size=min_per_stratum, max_size=12),
            st.tuples(VALUE, st.integers(max(min_per_stratum, 1), 12)).map(lambda t: [t[0]] * t[1]),
        ),
        min_size=1, max_size=max_strata,
    ))
    values = [v for g in groups for v in g]
    strata = [h for h, g in enumerate(groups) for _ in g]
    order = draw(st.permutations(range(len(values))))
    return np.array(values)[order], np.array(strata, dtype=np.int64)[order], len(groups)


# -- stratum_moments -------------------------------------------------------------


def exact_moments(values, strata, n_strata):
    """Count, mean and sample variance of each stratum in rational arithmetic."""
    out = []
    for h in range(n_strata):
        xs = [Fraction(v) for v, s in zip(values.tolist(), strata.tolist()) if s == h]
        mean = sum(xs) / len(xs)
        var = sum((x - mean) ** 2 for x in xs) / (len(xs) - 1) if len(xs) > 1 else Fraction(0)
        out.append((len(xs), mean, var))
    return out


@given(data=grouped())
def test_stratum_moments_match_exact_arithmetic(data):
    values, strata, n_strata = data
    n_h, mean, s2 = stratum_moments(values, strata, n_strata)
    for h, (count, ref_mean, ref_var) in enumerate(exact_moments(values, strata, n_strata)):
        members = values[strata == h]
        assert n_h[h] == count
        # a sum is only as exact as its largest term allows
        assert abs(mean[h] - float(ref_mean)) <= 1e-12 * np.abs(members).mean()
        assert s2[h] == pytest.approx(float(ref_var), rel=1e-12, abs=0.0)
        if np.ptp(members) == 0.0:
            assert s2[h] == 0.0


@pytest.mark.parametrize("value", [0.7, 0.1, 1e300, -3.3])
@pytest.mark.parametrize("k", [1, 2, 3, 7, 50])
def test_constant_and_singleton_strata_have_zero_variance(value, k):
    values = np.array([value] * k + [1.0, 2.0])
    n_h, _, s2 = stratum_moments(values, np.array([0] * k + [1, 1]), 2)
    assert n_h.tolist() == [k, 2] and s2[0] == 0.0 and s2[1] == 0.5


def test_the_two_pass_fsum_reference_misses_what_the_shift_keeps():
    # a float two-pass reference rounds the mean of [1, 1 + eps] to 1 and
    # doubles the variance; the shifted form and exact arithmetic agree
    values = np.array([1.0, 1.0 + EPS])
    mean = math.fsum(values) / 2
    assert math.fsum((v - mean) ** 2 for v in values) == EPS * EPS
    assert stratum_moments(values, np.zeros(2, dtype=np.int64), 1)[2][0] == EPS * EPS / 2


# -- stratified_estimate ---------------------------------------------------------


def stratified_estimate_before(values, strata, sizes):
    """The body of ``stratified_estimate`` before ``stratum_moments`` took it over."""
    v = np.asarray(values, dtype=float)
    h = np.asarray(strata, dtype=np.int64)
    sizes = np.asarray(sizes, dtype=np.int64)
    n_strata = sizes.size
    n_h = np.bincount(h, minlength=n_strata)
    pi = n_h / sizes
    pop = sizes.sum()
    theta = float((v / pi[h]).sum() / pop)
    top = np.full(n_strata, -np.inf)
    np.maximum.at(top, h, v)
    dev = v - top[h]
    dev -= (np.bincount(h, dev, n_strata) / n_h)[h]
    s2 = np.bincount(h, dev * dev, n_strata) / (n_h - 1)
    w = sizes / pop
    return theta, math.sqrt((w * w * (1.0 - pi) * s2 / n_h).sum())


@given(data=grouped(min_per_stratum=2), extra=st.lists(st.integers(0, 30), min_size=5, max_size=5))
def test_stratified_estimate_is_bit_identical_to_its_earlier_body(data, extra):
    values, strata, n_strata = data
    sizes = np.bincount(strata, minlength=n_strata) + np.array(extra[:n_strata])
    assert stratified_estimate(values, strata, sizes) == stratified_estimate_before(values, strata, sizes)


def test_stratified_estimate_rows_are_the_one_row_calls():
    # a 2-D call estimates every row as its own 1-D call would, bit for bit,
    # also where numpy's pairwise sums unroll (eight or more strata)
    rs = np.random.default_rng(9)
    for n_strata in (1, 3, 9, 12):
        n_h = rs.integers(2, 40, size=n_strata)
        strata = rs.permutation(np.repeat(np.arange(n_strata), n_h))
        sizes = n_h + rs.integers(0, 50, size=n_strata)
        values = np.round(rs.random((25, strata.size)), 3)
        theta, se = stratified_estimate(values, strata, sizes)
        for row, t, s in zip(values, theta, se):
            assert (t, s) == stratified_estimate(row, strata, sizes)
            assert (t, s) == stratified_estimate_before(row, strata, sizes)


def test_stratified_estimate_rows_ignore_memory_layout():
    # a Fortran-ordered array, and the column-gathered view a shared draw
    # gives (drawn[:, cols] is Fortran-ordered), estimate each row as the
    # 1-D call does
    rs = np.random.default_rng(3)
    strata = np.repeat([0, 1], 50)
    sizes = np.array([300, 400])
    values = rs.random((40, 100))
    wide = rs.random((40, 150))
    gathered = wide[:, np.r_[0:50, 70:120]]
    for rows in (np.asfortranarray(values), gathered):
        theta, se = stratified_estimate(rows, strata, sizes)
        for row, t, s in zip(rows, theta, se):
            assert (t, s) == stratified_estimate(np.array(row), strata, sizes)


# -- plugin_sds ------------------------------------------------------------------


def plugin_sds_before(pop, proxy_col, partition, warnings):
    """The per-stratum, per-unit loops ``plan`` ran before ``plugin_sds``."""
    sds = np.empty(partition.n_strata)
    if pop.loss_kind is LossKind.ACCURACY:
        proxy = pop.get_proxy(proxy_col)
        for h in range(partition.n_strata):
            zbar = float(np.mean(proxy[np.flatnonzero(partition.assignment == h)]))
            sds[h] = math.sqrt(zbar * (1.0 - zbar))
        return sds
    zbar = np.empty(pop.size)
    z2bar = np.empty(pop.size)
    for i in range(pop.size):
        s = pop.scores[i]
        if pop.loss_kind is LossKind.SQUARED_ERROR:
            per_class = (1.0 - s) ** 2
        else:
            per_class = -np.log(np.maximum(s, SCORE_FLOOR))
        zbar[i], z2bar[i] = float(np.dot(s, per_class)), float(np.dot(s, per_class**2))
    for h in range(partition.n_strata):
        m = np.flatnonzero(partition.assignment == h)
        var = float(np.mean(z2bar[m])) - float(np.mean(zbar[m])) ** 2
        if var < 0.0:
            warnings.append(f"negative plug-in variance {var:.3e} clamped to 0")
        sds[h] = math.sqrt(max(var, 0.0))
    return sds


@st.composite
def scored_pools(draw):
    kind = draw(st.sampled_from(list(LossKind)))
    n_classes = draw(st.integers(2, 5))
    weights = st.lists(st.one_of(st.just(0.0), st.floats(0.01, 1.0)), min_size=n_classes,
                       max_size=n_classes).filter(any)
    rows = draw(st.lists(weights, min_size=4, max_size=60))
    scores = np.array(rows)
    scores /= scores.sum(axis=1, keepdims=True)
    n = len(rows)
    n_strata = draw(st.integers(1, min(4, n // 2)))
    assignment = np.array(draw(st.permutations(np.arange(n) % n_strata)), dtype=np.int64)
    pop = Population(
        ids=tuple(f"u{i}" for i in range(n)),
        proxy=np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))),
        loss=np.full(n, np.nan),
        loss_kind=kind,
        scores=scores,
    )
    return pop, StrataPartition(assignment, n_strata)


@given(data=scored_pools(), budget_share=st.floats(0.0, 1.0))
def test_plugin_sds_match_the_loops_they_replaced(data, budget_share):
    pop, partition = data
    old = plugin_sds_before(pop, "proxy", partition, [])
    new = plugin_sds(pop, "proxy", partition)
    # compare variances: where z2bar - zbar^2 cancels to rounding noise the
    # two summation orders may land on either side of the clamp at 0
    if pop.loss_kind is LossKind.ACCURACY:
        z2 = pop.proxy
    else:
        z2 = conditional_moments(pop.loss_kind, pop.scores)[1]
    scale = np.bincount(partition.assignment, z2) / partition.sizes
    assert np.all(np.abs(new**2 - old**2) <= 1e-12 * old**2 + 64 * EPS * scale)
    sizes = partition.sizes
    lo, hi = 2 * partition.n_strata, int(sizes.sum())
    budget = lo + round(budget_share * (hi - lo))
    assert neyman(sizes, new, budget).n_h.tolist() == neyman(sizes, old, budget).n_h.tolist()


def test_plugin_sds_name_the_first_unit_without_scores():
    scores = np.full((4, 2), 0.5)
    scores[2] = np.nan
    pop = Population(ids=("a", "b", "c", "d"), proxy=np.full(4, 0.5), loss=np.full(4, np.nan),
                     loss_kind=LossKind.SQUARED_ERROR, scores=scores)
    with pytest.raises(ConsistencyError, match="unit 'c' has no class scores"):
        plugin_sds(pop, "proxy", StrataPartition([0, 0, 1, 1], 2))
