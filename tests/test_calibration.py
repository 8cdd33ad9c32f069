import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import EDGE_SEEDS, best_monotone_fit, split_eval
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
    position = {u: i for i, u in enumerate(pop.ids)}
    for half in split_half(pop, seed=9):
        assert np.all(np.diff([position[u] for u in half.ids]) > 0)


def ids_at(pop, positions):
    return tuple(pop.ids[i] for i in positions)


def test_split_pins_a_small_pool():
    cal, ev = split_half(make_pop(10), seed=13)
    assert tuple(cal.ids) == ("u0", "u1", "u5", "u8", "u9")
    assert tuple(ev.ids) == ("u2", "u3", "u4", "u6", "u7")


# 2**12 + 1 crosses a block of the uniforms' stream
@pytest.mark.parametrize("n", [4, 5, 2**12 + 1, 10**5 + 1])
def test_split_matches_numpy(n):
    pop = make_pop(n)
    for seed in EDGE_SEEDS:
        want = split_eval(seed, n)
        cal, ev = split_half(pop, seed)
        assert tuple(ev.ids) == ids_at(pop, want)
        assert tuple(cal.ids) == ids_at(pop, np.setdiff1d(np.arange(n), want))


@given(st.integers(0, 2**140), st.integers(4, 3000))
def test_split_matches_numpy_on_any_seed_and_length(seed, n):
    pop = make_pop(n)
    assert tuple(split_half(pop, seed)[1].ids) == ids_at(pop, split_eval(seed, n))


@pytest.mark.parametrize("u", [
    [0.5, 0.2, 0.5, 0.5, 0.2, 0.9, 0.5, 0.1],  # ties below the cut, and at it
    [0.3, 0.3, 0.3, 0.3, 0.1, 0.1],
    [0.2, 0.1, 0.1, 0.1, 0.7],  # more ties at the cut than slots left
    [0.0] * 9,  # every unit ties
])
def test_split_ties_go_to_the_earlier_unit(monkeypatch, u):
    # uniforms tie about once in 2**53 draws: feed the split tied values
    u = np.array(u)
    monkeypatch.setattr(calibration, "uniforms", lambda seed, n: u.copy())
    pop = make_pop(u.size)
    want = np.sort(np.argsort(u, kind="stable")[: u.size // 2])
    cal, ev = split_half(pop, seed=0)
    assert tuple(ev.ids) == ids_at(pop, want)
    assert tuple(cal.ids) == ids_at(pop, np.setdiff1d(np.arange(u.size), want))


# Peak of the traced allocations of split_half on 10**5 units: the bound
# was set at 2.90 MB plus 10% on Python 3.11 and numpy 2.4, when the ids
# were a tuple of str whose halves shared the pool's str objects.  The
# halves now hold new id bytes and offsets, and the peak reads 3.19 MB:
# the two halves' 3.09 MB of proxies, losses, id offsets and id bytes, and
# the 0.10 MB mask of the evaluation half.  Each half is taken by a mask,
# not by its positions (3.59 MB), and the uniforms are freed before the
# halves are taken.
SPLIT_PEAK_BOUND_MB = 3.2


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

