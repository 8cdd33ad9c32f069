import numpy as np
import pytest

from oracles import srs_indices, stratified_slots
from strateval import simulate
from strateval.estimators import stratified_estimate
from strateval.rng import (
    SCHEME,
    _jump_columns,
    _pcg64_outputs,
    derive_seed,
    derive_seeds,
    fisher_yates,
    generator,
    substream,
)
from strateval.simulate import SuperpopSpec, generate, run_mc

EDGE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**96 + 11, 2**130 + 7)


def draw(seed, n_population, n_sample):
    """One-stratum draw: positions in selection order."""
    return fisher_yates(seed, [n_population], [n_sample])[0]


def test_scheme_tag_is_stable():
    # the tag names the reproducibility contract; changing it is a
    # breaking change for anyone relying on stored seeds
    assert SCHEME == "pcg64-fy-v1"


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


def test_substream_matches_derived_generator():
    a = substream(99, 3).random(5)
    b = generator(derive_seed(99, 3)).random(5)
    assert np.array_equal(a, b)


def test_negative_seeds_are_refused():
    for call in (lambda: derive_seed(-1, 2), lambda: generator(-5), lambda: draw(-3, 10, 2)):
        with pytest.raises(ValueError, match="non-negative"):
            call()


# -- the bulk derivation, word for word against live numpy ---------------------


def seed_sequence_word(*entropy):
    return int(np.random.SeedSequence([int(e) for e in entropy]).generate_state(1, np.uint64)[0])


def test_derive_seeds_match_seed_sequence():
    rs = np.random.default_rng(0)
    keys = np.concatenate([
        np.array([0, 1, 2**32 - 1, 2**32, 2**64 - 1], dtype=np.uint64),
        rs.integers(0, 2**32, 700, dtype=np.uint64),
        rs.integers(0, 2**64 - 1, 700, dtype=np.uint64, endpoint=True),
    ])
    for seed in EDGE_SEEDS:  # roots of one to five words
        got = derive_seeds(seed, keys).tolist()
        assert got == [seed_sequence_word(seed, k) for k in keys]
    # several key columns, the later ones landing row by row
    a, b = keys[:300], keys[300:600]
    got = derive_seeds(2**40 + 3, a, b, 7).tolist()
    assert got == [seed_sequence_word(2**40 + 3, x, y, 7) for x, y in zip(a, b)]
    assert derive_seed(2**200 + 1) == seed_sequence_word(2**200 + 1)


def test_pcg64_outputs_match_numpy():
    rs = np.random.default_rng(1)
    seeds = np.concatenate([
        np.array([0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1], dtype=np.uint64),
        rs.integers(0, 2**32, 4000, dtype=np.uint64),
        rs.integers(0, 2**64 - 1, 6000, dtype=np.uint64, endpoint=True),
    ])
    words = np.stack([seeds & np.uint64(0xFFFFFFFF), seeds >> np.uint64(32)], axis=-1)
    words = words.astype(np.uint32)[:, None, :]
    out = _pcg64_outputs(words, np.zeros(3, dtype=np.int64), _jump_columns(np.arange(1, 4)))
    assert out.tolist() == [np.random.PCG64(int(s)).random_raw(3).tolist() for s in seeds]
    # far jumps: 300 words of a few streams, taken out of order
    k = rs.permutation(np.arange(1, 301))
    out = _pcg64_outputs(words[:8], np.zeros(300, dtype=np.int64), _jump_columns(k))
    for s, row in zip(seeds[:8], out):
        assert np.array_equal(row, np.random.PCG64(int(s)).random_raw(300)[k - 1])


def test_fisher_yates_matches_numpy_draws():
    # every row equals stratum-by-stratum Generator.integers and the dict
    # loop: edge sizes n_h = N_h, N_h = 1, n = 1 and empty strata included
    rs = np.random.default_rng(2)
    cases = [([1], [1]), ([5], [5]), ([7], [1]), ([1, 1, 3], [1, 1, 3]), ([4, 9], [0, 9])]
    cases.append(([6], [0]))
    for _ in range(150):
        sizes = rs.integers(1, 60, size=rs.integers(1, 6))
        cases.append((sizes, [int(rs.integers(0, s + 1)) for s in sizes]))
    parents = np.concatenate([
        np.array([0, 2**32 - 1, 2**32, 2**64 - 1], dtype=np.uint64),
        rs.integers(0, 2**32, 3, dtype=np.uint64),  # parents below 2**32: one word
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


def first_rejection(seed, h, size, k):
    """The first of stream ``(seed, h)``'s ``k`` draws from ``size`` units
    that Lemire's 32-bit method rejects, or ``k`` if none does."""
    raw = np.random.PCG64(derive_seed(int(seed), h)).random_raw((k + 1) // 2)
    u = np.stack([raw & np.uint64(0xFFFFFFFF), raw >> np.uint64(32)], axis=1)
    u = u.reshape(-1)[:k]  # low half first
    spans = np.arange(size, size - k, -1, dtype=np.uint64)
    rejected = np.flatnonzero((u * spans & np.uint64(0xFFFFFFFF)) < (2**32 % spans))
    return int(rejected[0]) if rejected.size else k


def test_rejection_fallback_is_exact():
    # spans just above 2**31 reject about half of all 32-bit words, so
    # almost every stream takes numpy's own Generator.integers path
    sizes, n_h = [2**31 + 5, 3 * 2**30], [9, 6]
    parents = derive_seeds(3, np.arange(60))
    rejecting = sum(
        first_rejection(seed, h, size, k) < k
        for seed in parents for h, (size, k) in enumerate(zip(sizes, n_h))
    )
    assert rejecting > 100
    got = fisher_yates(parents, sizes, n_h)
    for seed, row in zip(parents, got):
        assert np.array_equal(row, stratified_slots(seed, sizes, n_h))


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
    # stratum 1's whole draw rejects a 32-bit word past its prefix, so the
    # whole draw takes numpy's Generator.integers path and the prefix does not
    sizes, a, b = [40, 2**31 + 5, 7], np.array([3, 4, 2]), np.array([10, 8, 0])
    seed = next(s for s in derive_seeds(11, np.arange(100))
                if 4 <= first_rejection(s, 1, sizes[1], 12) < 12)
    whole = fisher_yates(np.array([seed]), sizes, a + b)
    assert np.array_equal(whole[:, prefix_columns(a, a + b)],
                          fisher_yates(np.array([seed]), sizes, a))
    assert np.array_equal(whole[0], stratified_slots(seed, sizes, a + b))


def test_run_mc_batches_straddle_chunk_boundaries(monkeypatch):
    # reps not a multiple of the batch size: every replication still equals
    # its own draw and estimate
    params = {"p_values": [0.2, 0.7], "weights": [0.5, 0.5]}
    pop = generate(SuperpopSpec("two_point", 120, 6, params))
    kw = dict(design="srs", estimator="ht", n=10, reps=101, seed=8, keep_estimates=True)
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
    assert np.array_equal(a, srs_indices(substream(21, 0), 50, 7))


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
