import itertools
import tracemalloc

import numpy as np
import pytest

from oracles import best_monotone_fit
from strateval import calibration
from strateval.calibration import IsotonicMap, fit_isotonic, split_half
from strateval.dataset import Population
from strateval.errors import PreconditionError
from strateval.losses import LossKind


def make_pop(n):
    return Population(
        ids=tuple(f"u{i}" for i in range(n)),
        proxy=np.arange(n) % 10 / 10,
        loss=np.full(n, np.nan),
        loss_kind=LossKind.ACCURACY,
    )


# -- split_half ----------------------------------------------------------------


def test_split_sizes_and_disjointness():
    for n in (4, 5, 10, 11):
        cal, ev = split_half(make_pop(n), seed=7)
        assert cal.size == (n + 1) // 2
        assert ev.size == n // 2
        assert not set(cal.ids) & set(ev.ids)
        assert set(cal.ids) | set(ev.ids) == set(make_pop(n).ids)


def test_split_deterministic():
    pop = make_pop(20)
    a = split_half(pop, seed=3)
    b = split_half(pop, seed=3)
    assert a[0].ids == b[0].ids and a[1].ids == b[1].ids
    c = split_half(pop, seed=4)
    assert a[0].ids != c[0].ids


def test_split_halves_keep_canonical_order():
    pop = make_pop(12)
    for half in split_half(pop, seed=9):
        assert np.all(np.diff([pop.index_of(u) for u in half.ids]) > 0)


def test_split_is_numpys_permutation():
    # the evaluation half is the last floor(N/2) units of numpy's own
    # Generator(PCG64(seed)).permutation(N), the calibration half the rest
    pop = make_pop(10)
    cal, ev = split_half(pop, seed=13)
    assert cal.ids == ("u0", "u1", "u4", "u5", "u6")
    assert ev.ids == ("u2", "u3", "u7", "u8", "u9")
    for n, seed in [(4, 0), (5, 13), (200, 13), (1001, 2**64 + 5), (100_001, 7)]:
        pop = make_pop(n)
        perm = np.random.Generator(np.random.PCG64(seed)).permutation(n)
        cal, ev = split_half(pop, seed)
        n_cal = (n + 1) // 2
        assert cal.ids == tuple(pop.ids[i] for i in np.sort(perm[:n_cal]))
        assert ev.ids == tuple(pop.ids[i] for i in np.sort(perm[n_cal:]))


# Peak of the traced allocations of split_half on 10**5 units, plus 10%:
# 3.25 MB on Python 3.11 and numpy 2, most of it rng._resolve's int64
# temporaries.  numpy's own permutation peaked at 3.20 MB, and resolving
# with a pool-length argsort and a second search at 4.45 MB.
SPLIT_PEAK_BOUND_MB = 3.6


def test_split_memory_peak_is_bounded():
    pop = make_pop(100_000)
    split_half(make_pop(8), seed=0)  # the stream's jump-ahead table is built once a process
    tracemalloc.start()
    try:
        cal, ev = split_half(pop, seed=13)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cal.size + ev.size == pop.size
    assert peak / 1e6 <= SPLIT_PEAK_BOUND_MB


def test_split_too_small():
    with pytest.raises(PreconditionError):
        split_half(make_pop(3), seed=1)


# -- fit_isotonic --------------------------------------------------------------


def test_fit_already_monotone():
    m = fit_isotonic([0.1, 0.9], [0.0, 1.0])
    assert m.breakpoints.tolist() == [0.1, 0.9]
    assert m.values.tolist() == [0.0, 1.0]


def test_fit_antitonic_pair_pools_to_mean():
    # brute force over the 2-point monotone step fits puts both at 0.5
    m = fit_isotonic([0.2, 0.8], [1.0, 0.0])
    assert np.allclose(m.apply([0.2, 0.8]), [0.5, 0.5])


def test_fit_three_point_pooling():
    m = fit_isotonic([0.0, 0.5, 1.0], [0.0, 1.0, 0.0])
    assert np.allclose(m.apply([0.0, 0.5, 1.0]), [0.0, 0.5, 0.5])


def test_fit_single_point_and_single_distinct_proxy():
    m = fit_isotonic([0.4], [1.0])
    assert m.apply(0.0) == 1.0 and m.apply(0.9) == 1.0
    m2 = fit_isotonic([0.3, 0.3, 0.3], [0.0, 1.0, 1.0])
    assert m2.values.tolist() == [pytest.approx(2 / 3)]


def test_fit_rejects_empty_and_nan():
    with pytest.raises(PreconditionError):
        fit_isotonic([], [])
    with pytest.raises(PreconditionError):
        fit_isotonic([0.1, 0.2], [0.0, float("nan")])


def test_ties_get_identical_fitted_values():
    rng = np.random.default_rng(8)
    for _ in range(50):
        x = rng.choice([0.1, 0.2, 0.5, 0.9], size=12)
        y = rng.random(12)
        m = fit_isotonic(x, y)
        fit = m.apply(x)
        for v in np.unique(x):
            assert np.ptp(fit[x == v]) == 0.0


def test_mean_preserved_and_range_bounded():
    rng = np.random.default_rng(12)
    for _ in range(100):
        n = int(rng.integers(2, 30))
        x = np.round(rng.random(n), 1)  # plenty of ties
        y = rng.random(n)
        m = fit_isotonic(x, y)
        fit = m.apply(x)
        assert np.mean(fit) == pytest.approx(np.mean(y), rel=1e-10, abs=1e-12)
        assert fit.min() >= y.min() - 1e-12
        assert fit.max() <= y.max() + 1e-12
        assert np.all(np.diff(m.values) > 0)  # collapsed to true level changes


def test_fit_matches_exhaustive_oracle_random_instances():
    # randomized spot check; the full sweep lives in the acceptance suite
    rng = np.random.default_rng(3)
    for _ in range(200):
        k = int(rng.integers(2, 8))
        x = np.sort(rng.choice(100, size=k, replace=False)).astype(float)
        y = (
            rng.integers(0, 2, size=k).astype(float)
            if rng.random() < 0.5
            else np.round(rng.random(k), 3)
        )
        want, want_cost = best_monotone_fit(y)
        got = fit_isotonic(x, y).apply(x)
        assert np.allclose(got, want, atol=1e-9), (x, y, got, want)


def test_fit_matches_oracle_with_ties():
    rng = np.random.default_rng(5)
    for _ in range(100):
        k = int(rng.integers(2, 7))
        x = np.sort(rng.integers(0, 4, size=k)).astype(float)
        y = rng.integers(0, 2, size=k).astype(float)
        # oracle works on pooled distinct points with multiplicity weights
        ux = np.unique(x)
        pooled = np.array([y[x == v].mean() for v in ux])
        w = np.array([(x == v).sum() for v in ux], dtype=float)
        want, _ = best_monotone_fit(pooled, weights=w)
        got = fit_isotonic(x, y).apply(ux)
        assert np.allclose(got, want, atol=1e-9)


def stack_pava(counts, sums):
    """The PAVA block stack on numpy scalars, one element at a time: the reference."""
    blk_w, blk_s, blk_r = [], [], []
    for j in range(counts.size):
        blk_w.append(counts[j])
        blk_s.append(sums[j])
        blk_r.append(j)
        while len(blk_w) > 1 and blk_s[-2] * blk_w[-1] >= blk_s[-1] * blk_w[-2]:
            blk_w[-2] += blk_w[-1]
            blk_s[-2] += blk_s[-1]
            blk_r[-2] = blk_r[-1]
            del blk_w[-1], blk_s[-1], blk_r[-1]
    fitted = np.empty(counts.size)
    left = 0
    for w, s, r in zip(blk_w, blk_s, blk_r):
        fitted[left : r + 1] = s / w
        left = r + 1
    return fitted


@pytest.mark.parametrize("loss", ["binary", "continuous"])
def test_fit_over_many_batches_is_bit_identical_to_the_scalar_stack(loss):
    # about 2.6 * 10^4 distinct proxies, some tied, span the fit's float batches
    rng = np.random.default_rng(8)
    x = np.round(rng.random(30_000), 5)
    y = (rng.random(x.size) < x).astype(float) if loss == "binary" else rng.random(x.size) * x
    ux, start = np.unique(np.sort(x), return_index=True)
    assert ux.size > 2 * calibration._FLOAT_BATCH
    y_sorted = y[np.argsort(x, kind="stable")]
    counts = np.diff(np.append(start, x.size)).astype(float)
    want = stack_pava(counts, np.add.reduceat(y_sorted, start))
    got = fit_isotonic(x, y).apply(ux)
    assert got.tobytes() == want.tobytes()


# -- IsotonicMap ---------------------------------------------------------------


def test_apply_clamps_below_first_breakpoint():
    m = IsotonicMap(breakpoints=[0.5], values=[0.3])
    assert m.apply(0.2) == 0.3
    assert m.apply(0.7) == 0.3


def test_apply_right_continuous_at_breakpoints():
    m = IsotonicMap(breakpoints=[0.2, 0.8], values=[0.1, 0.9])
    assert m.apply(0.8) == 0.9
    assert m.apply(0.79999) == 0.1
    assert m.apply(1.5) == 0.9
    assert m.apply(0.0) == 0.1


def test_apply_monotone_on_random_maps():
    rng = np.random.default_rng(44)
    for _ in range(50):
        k = int(rng.integers(1, 10))
        bp = np.sort(rng.choice(1000, size=k, replace=False)) / 1000
        vals = np.sort(rng.random(k))
        m = IsotonicMap(breakpoints=bp, values=vals)
        xs = np.sort(rng.random(40))
        out = m.apply(xs)
        assert np.all(np.diff(out) >= 0)


def test_map_validation():
    with pytest.raises(PreconditionError):
        IsotonicMap(breakpoints=[0.2, 0.2], values=[0.1, 0.2])
    with pytest.raises(PreconditionError):
        IsotonicMap(breakpoints=[0.2, 0.8], values=[0.5, 0.1])
    with pytest.raises(PreconditionError):
        IsotonicMap(breakpoints=[], values=[])

