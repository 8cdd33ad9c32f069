from itertools import permutations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from scipy import stats

from oracles import (
    EDGE_SEEDS,
    GAMMA,
    CounterStream,
    bounded,
    fold_key,
    mix64,
    srs_indices,
    stratified_slots,
    stream_word,
)
from strateval import simulate
from strateval.estimators import stratified_estimate
from strateval.errors import ParseError
from strateval.rng import (
    SCHEME,
    _bounded,
    _mix64,
    _resolve,
    check_seed,
    derive_seed,
    derive_seeds,
    fisher_yates,
    uniforms,
)
from strateval.simulate import SuperpopSpec, generate, run_mc


def draw(seed, n_population, n_sample):
    """One-stratum draw: positions in selection order."""
    return fisher_yates(seed, [n_population], [n_sample])[0]


def test_scheme_tag_is_stable():
    # the tag names the reproducibility contract; changing it is a
    # breaking change for anyone relying on stored seeds
    assert SCHEME == "splitmix-fy-v3"


def test_derive_seed_deterministic_and_distinct():
    assert derive_seed(13, 2) == derive_seed(13, 2)
    seen = {derive_seed(13, k) for k in range(200)}
    assert len(seen) == 200
    assert derive_seed(13, 1, 2) != derive_seed(13, 2, 1)
    assert derive_seed(13) != 13  # plain whitening, not identity


def test_derive_seed_range():
    for s in (0, 1, 2**63, 12345):
        d = derive_seed(s, 7)
        assert 0 <= d < 2**64


def test_negative_seeds_are_refused():
    for call in (lambda: derive_seed(-1, 2), lambda: uniforms(-5, 3), lambda: draw(-3, 10, 2)):
        with pytest.raises(ValueError, match="non-negative"):
            call()


@pytest.mark.parametrize("seed", [2.7, -0.5, float("inf"), float("nan"), True, np.bool_(False),
                                  "7", None],
                         ids=["fractional", "negative-fractional", "inf", "nan", "bool",
                              "numpy-bool", "string", "none"])
def test_a_seed_that_is_not_an_integer_is_refused(seed):
    # before, check_seed(2.7) returned 2, so run_mc(..., seed=2.7) ran as seed 2
    with pytest.raises(ParseError, match=f"sim_seed must be a non-negative integer, got {seed!r}"):
        check_seed(seed, "sim_seed")


@pytest.mark.parametrize("seed,want", [
    (7, 13647215125184110592),
    (np.int64(7), 13647215125184110592),
    (7.0, 13647215125184110592),
    (np.float32(7.0), 13647215125184110592),
    (2**63 + 5, 1380322360509708497),
    (np.uint64(2**63 + 5), 1380322360509708497),
], ids=["int", "numpy-int", "integral-float", "numpy-integral-float", "big-int", "numpy-uint"])
def test_accepted_seeds_keep_their_bits(seed, want):
    # every accepted spelling of a seed derives what its int does
    assert derive_seed(seed) == want


def test_scheme_pins_its_sub_seeds():
    # literal values of the splitmix-fy-v3 fold: a change to the stream
    # fails here, and has to bump SCHEME
    assert derive_seed(0) == 10451216379200822465
    assert derive_seed(2**140, 3) == 9098172664599996435


# -- the counter-based stream, against the plain-Python reference ----------------


def test_derive_seeds_match_the_reference_fold():
    rs = np.random.default_rng(0)
    keys = np.concatenate([
        np.array([0, 1, 2**32 - 1, 2**32, 2**64 - 1], dtype=np.uint64),
        rs.integers(0, 2**32, 700, dtype=np.uint64),
        rs.integers(0, 2**64 - 1, 700, dtype=np.uint64, endpoint=True),
    ])
    for seed in EDGE_SEEDS + (2**128 - 1, 2**128):  # roots of one to three limbs
        got = derive_seeds(seed, keys).tolist()
        assert got == [fold_key(seed, k) for k in keys]
    # several key columns, broadcast against a scalar one
    a, b = keys[:300], keys[300:600]
    got = derive_seeds(2**40 + 3, a, b, 7).tolist()
    assert got == [fold_key(2**40 + 3, x, y, 7) for x, y in zip(a, b)]
    assert derive_seed(2**200 + 1) == fold_key(2**200 + 1)
    # a limb of the seed is not a key: the limb count starts the fold
    assert derive_seed(5 + 2**64 * 9) != derive_seed(5, 9)


def test_mix64_matches_the_reference():
    rs = np.random.default_rng(1)
    z = np.concatenate([
        np.array([0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1], dtype=np.uint64),
        rs.integers(0, 2**64 - 1, 10_000, dtype=np.uint64, endpoint=True),
    ])
    want = [mix64(int(v)) for v in z]
    assert _mix64(z.copy()).tolist() == want


def test_bounded_draws_match_the_reference_on_every_lane():
    # a step's word on lane l is word l * 2**32 + step + 1 of its stream;
    # spans just above 2**31 reject about half of all words, steps near
    # 2**32 fill the counter's low half
    rs = np.random.default_rng(3)
    keys = rs.integers(0, 2**64 - 1, 4000, dtype=np.uint64, endpoint=True)
    steps = np.concatenate([rs.integers(0, 2**32 - 1, 3990), np.arange(2**32 - 11, 2**32 - 1)])
    spans = np.concatenate([rs.integers(1, 2**32, 2000), rs.integers(2**31, 2**31 + 9, 2000)])
    for lane in range(4):
        counters = (np.uint64(lane) << np.uint64(32)) + steps.astype(np.uint64) + np.uint64(1)
        got = _bounded(keys + counters * np.uint64(GAMMA), spans.astype(np.uint64),
                       (2**32 % spans).astype(np.uint64))
        for k, c, span, g in zip(keys.tolist(), counters.tolist(), spans.tolist(), got.tolist()):
            m = (stream_word(k, c) >> 32) * span
            assert g == (-1 if m & 0xFFFFFFFF < 2**32 % span else m >> 32)


# one output word, one short of a block, a block, one past it, three blocks and a part
@pytest.mark.parametrize("n", [1, 4095, 4096, 4097, 3 * 4096 + 5])
def test_uniforms_are_numpys_random(n):
    for seed in EDGE_SEEDS:
        got = uniforms(seed, n)
        assert got.dtype == np.float64
        assert np.array_equal(got, np.random.Generator(np.random.PCG64(seed)).random(n))


@given(st.integers(0, 2**140), st.integers(0, 9000))
def test_uniforms_are_numpys_random_on_any_seed_and_length(seed, n):
    assert np.array_equal(uniforms(seed, n), np.random.Generator(np.random.PCG64(seed)).random(n))


def test_fisher_yates_matches_the_reference_draws():
    # every row equals the reference stream and the dict loop: edge sizes
    # n_h = N_h, N_h = 1, n = 1 and empty strata included
    rs = np.random.default_rng(2)
    cases = [([1], [1]), ([5], [5]), ([7], [1]), ([1, 1, 3], [1, 1, 3]), ([4, 9], [0, 9])]
    cases.append(([6], [0]))
    for _ in range(150):
        sizes = rs.integers(1, 60, size=rs.integers(1, 6))
        cases.append((sizes, [int(rs.integers(0, s + 1)) for s in sizes]))
    parents = np.concatenate([
        np.array([0, 2**32 - 1, 2**32, 2**64 - 1], dtype=np.uint64),
        rs.integers(0, 2**32, 3, dtype=np.uint64),
        derive_seeds(5, np.arange(3)),
    ])
    for sizes, n_h in cases:
        got = fisher_yates(parents, sizes, n_h)
        assert got.shape == (parents.size, sum(n_h))
        for seed, row in zip(parents, got):
            assert np.array_equal(row, stratified_slots(seed, sizes, n_h))
    for seed in EDGE_SEEDS:  # one draw from a plain int seed of any size
        want = stratified_slots(seed, [300, 1], [40, 1])
        assert np.array_equal(fisher_yates(seed, [300, 1], [40, 1])[0], want)


def test_fisher_yates_long_swap_chains():
    # census and near-census draws of up to 1024 units: half the steps take
    # from a position an earlier swap moved a unit into, and the longest
    # carry chains run back 12 to 15 steps in these 50 rows.  Seeded draws
    # seldom chain much further, so the test below builds a chain through
    # every step
    parents = derive_seeds(9, np.arange(50))
    cases = [([1024], [1024]), ([1024], [1023]), ([1000, 24], [999, 24]),
             ([3, 1024, 512], [3, 1023, 512]), ([700, 1, 300], [699, 1, 299])]
    for sizes, n_h in cases:
        got = fisher_yates(parents, sizes, n_h)
        for seed, row in zip(parents, got):
            assert np.array_equal(row, stratified_slots(seed, sizes, n_h))


def test_every_ordering_of_six_is_equally_likely():
    # a census draw of 6 is a uniform random permutation: chi-square over
    # all 720 orderings, 72 draws each on average
    reps = 720 * 72
    rows = fisher_yates(derive_seeds(31, np.arange(reps)), [6], [6])
    code = rows @ 6 ** np.arange(6)
    orderings = np.array([p @ 6 ** np.arange(6) for p in permutations(range(6))])
    assert np.isin(code, orderings).all()
    counts = np.bincount(np.searchsorted(np.sort(orderings), code), minlength=720)
    p = stats.chisquare(counts).pvalue
    assert p > 0.001, f"ordering counts from {counts.min()} to {counts.max()} (p={p:.2e})"


class GivenOffsets:
    """Stands in for a generator whose ``integers`` returns ``offsets``."""

    def __init__(self, offsets):
        self.offsets = offsets

    def integers(self, spans):
        assert np.all(self.offsets < spans)
        return self.offsets


@pytest.mark.parametrize("n", [1024, 1023])
def test_resolve_follows_a_chain_through_every_step(n):
    # offsets 1, 1, ..., 1, 0 over 1024 units carry unit 0 one position on
    # at every step, and the last step selects it: one chain of carries
    # through every step, which a seeded draw all but never makes.  At
    # n = 1023 it takes every one of the n.bit_length() rounds of pointer
    # jumping.  Other rows: no swaps, and random swaps
    size = 1024
    rs = np.random.default_rng(8)
    offsets = np.stack([
        np.r_[np.ones(n - 1, np.int64), 0],
        np.zeros(n, np.int64),
        *(rs.integers(np.arange(size, size - n, -1)) for _ in range(3)),
    ])
    fill = np.arange(len(offsets))[:, None] * size + np.arange(n)
    got = _resolve(fill, fill + offsets)
    for r, row in enumerate(offsets):
        assert np.array_equal(got[r] - r * size, srs_indices(GivenOffsets(row), size, n))
    assert got[0, -1] == 0


def lanes(seed, h, size, k):
    """The lane each of stream ``(seed, h)``'s first ``k`` draws from ``size``
    units comes from: 0 unless Lemire's method rejects the step's word."""
    key = fold_key(int(seed), h)
    return [bounded(key, j, size - j)[1] for j in range(k)]


def test_rejected_steps_are_redrawn_exactly():
    # spans just above 2**31 reject about half of all 32-bit words, so
    # almost every stream redraws a step on a later lane, some on several
    sizes, n_h = [2**31 + 5, 3 * 2**30], [9, 6]
    parents = derive_seeds(3, np.arange(60))
    used = [lanes(seed, h, size, k)
            for seed in parents for h, (size, k) in enumerate(zip(sizes, n_h))]
    assert sum(max(u) > 0 for u in used) > 100
    assert max(max(u) for u in used) >= 4
    got = fisher_yates(parents, sizes, n_h)
    for seed, row in zip(parents, got):
        assert np.array_equal(row, stratified_slots(seed, sizes, n_h))


def test_strata_of_2_32_and_more_units_are_refused():
    # a span must fit Lemire's 32-bit draw and a step the low half of a
    # word's counter; no pool that large can be held in memory
    for sizes, n_h in [([2**32, 40], [4, 5]), ([40, 2**32 + 5], [5, 0])]:
        with pytest.raises(ValueError, match="a stratum of 2\\*\\*32 or more units"):
            fisher_yates(6, sizes, n_h)
    # the largest stratum it draws still matches the reference
    sizes, n_h = [2**32 - 1, 40], [4, 5]
    for seed in derive_seeds(6, np.arange(5)):
        assert np.array_equal(fisher_yates(seed, sizes, n_h)[0], stratified_slots(seed, sizes, n_h))


def prefix_columns(n_h, n_max):
    """Columns of a draw of ``n_max`` that hold the draw of ``n_h``."""
    n_h, n_max = np.asarray(n_h), np.asarray(n_max)
    start = np.repeat(np.cumsum(n_max) - n_max, n_h)
    return start + np.arange(n_h.sum()) - np.repeat(np.cumsum(n_h) - n_h, n_h)


def test_draws_extend_by_prefix():
    # in every stratum, the first a_h draws of (N_h, a_h + b_h) are the
    # draws of (N_h, a_h): a second wave extends the first on the same
    # substream, and methods with different n_h share one draw
    rs = np.random.default_rng(4)
    for trial in range(200):
        sizes = rs.integers(1, 400, size=rs.integers(1, 5))
        a = np.array([int(rs.integers(0, s + 1)) for s in sizes])
        b = np.array([int(rs.integers(0, s - k + 1)) for s, k in zip(sizes, a)])
        seeds = derive_seeds(trial, np.arange(3))
        whole = fisher_yates(seeds, sizes, a + b)
        assert np.array_equal(whole[:, prefix_columns(a, a + b)], fisher_yates(seeds, sizes, a))
    # stratum 1's whole draw rejects steps past its prefix, which are
    # redrawn on later lanes of their own step: the prefix does not move
    sizes, a, b = [40, 2**31 + 5, 7], np.array([3, 4, 2]), np.array([10, 8, 0])
    seed = next(s for s in derive_seeds(11, np.arange(100))
                if max(lanes(s, 1, sizes[1], 4)) == 0 < max(lanes(s, 1, sizes[1], 12)[4:]))
    whole = fisher_yates(np.array([seed]), sizes, a + b)
    assert np.array_equal(whole[:, prefix_columns(a, a + b)],
                          fisher_yates(np.array([seed]), sizes, a))
    assert np.array_equal(whole[0], stratified_slots(seed, sizes, a + b))
    # and on a stream whose prefix itself rejects
    seed = next(s for s in derive_seeds(12, np.arange(100)) if max(lanes(s, 1, sizes[1], 4)) > 0)
    whole = fisher_yates(seed, sizes, a + b)
    assert np.array_equal(whole[:, prefix_columns(a, a + b)], fisher_yates(seed, sizes, a))


def test_run_mc_batches_straddle_chunk_boundaries(monkeypatch):
    # reps not a multiple of the batch size: every replication still equals
    # its own draw and estimate
    params = {"p_values": [0.2, 0.7], "weights": [0.5, 0.5]}
    pop = generate(SuperpopSpec("two_point", 120, 6, params))
    kw = dict(design="srs", estimator="ht", n=10, reps=101, seed=8)
    whole = run_mc(pop, **kw)
    monkeypatch.setattr(simulate, "_CHUNK_DRAWS", 30)  # three replications a batch
    assert np.array_equal(run_mc(pop, **kw).estimates, whole.estimates)
    strata = np.zeros(10, dtype=np.int64)
    for r in (0, 2, 3, 99, 100):
        idx = stratified_slots(derive_seed(8, r), [120], [10])
        theta, _ = stratified_estimate(pop.loss[idx], strata, [120])
        assert whole.estimates[r] == theta


# -- the selection rule ------------------------------------------------------------


def test_srs_indices_basic_properties():
    idx = draw(5, 100, 10)
    assert idx.shape == (10,)
    assert len(set(idx.tolist())) == 10
    assert idx.min() >= 0 and idx.max() < 100


def test_srs_indices_census_is_permutation():
    idx = draw(3, 8, 8)
    assert sorted(idx.tolist()) == list(range(8))


def test_srs_indices_deterministic():
    a = draw(21, 50, 7)
    b = draw(21, 50, 7)
    assert np.array_equal(a, b)
    c = draw(22, 50, 7)
    assert not np.array_equal(a, c)
    # the reference loop on the same stream agrees
    assert np.array_equal(a, srs_indices(CounterStream(derive_seed(21, 0)), 50, 7))


def test_srs_indices_edge_sizes():
    assert draw(1, 10, 0).size == 0
    assert draw(1, 1, 1).tolist() == [0]
    with pytest.raises(ValueError):
        draw(1, 5, 6)
    with pytest.raises(ValueError):
        draw(1, 5, -1)


def test_first_selection_uniform():
    # the first selected index is uniform over the population
    reps = 20_000
    first = fisher_yates(derive_seeds(17, np.arange(reps)), [5], [2])[:, 0]
    freq = np.bincount(first, minlength=5) / reps
    se = np.sqrt(0.2 * 0.8 / reps)
    assert np.all(np.abs(freq - 0.2) < 4 * se)
