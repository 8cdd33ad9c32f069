"""Estimator and design-MSE tests.

The heavy artillery here is complete enumeration: for tiny populations
every equally likely sample can be listed, so design MSEs and
unbiasedness are checked *exactly* rather than by Monte Carlo.
"""

import json

import numpy as np
import pytest
from scipy import stats

from oracles import (
    enumerate_srs_estimates,
    enumerate_srs_mse,
    enumerate_ssrs_mse,
    textbook_stratified_estimate,
    two_group_losses,
)
from strateval.cli import main
from strateval.errors import PreconditionError
from strateval.estimators import (
    confidence_interval,
    mse_df_prop,
    mse_df_srs,
    mse_ht_neyman,
    mse_ht_prop,
    mse_ht_srs,
    normal_quantile,
    stratified_estimate,
)
from strateval.stratify import StrataPartition, kmeans_1d


# -- point estimators ----------------------------------------------------------
# HT is stratified_estimate on the sampled losses; DF adds the pool proxy
# mean to stratified_estimate on the sampled residuals.


def test_ht_reduces_to_sample_mean_under_srs():
    theta, _ = stratified_estimate([1, 0, 1, 1], [0] * 4, [1000])
    assert theta == pytest.approx(0.75)


def test_ht_census_is_exact_mean():
    z = np.array([0.2, 0.4, 0.9])
    theta, se = stratified_estimate(z, [0, 0, 0], [3])
    assert theta == pytest.approx(z.mean())
    assert se == 0.0


def test_ht_stratified_hand_value():
    # strata sizes (600, 400), n_h = (3, 2); stratum means 1 and 0
    losses = [1.0, 1.0, 1.0, 0.0, 0.0]
    theta, _ = stratified_estimate(losses, [0, 0, 0, 1, 1], [600, 400])
    assert theta == pytest.approx(0.6)


def test_ht_requires_losses_and_valid_pi():
    with pytest.raises(PreconditionError, match="observed"):
        stratified_estimate([1.0, np.nan], [0, 0], [4])
    # more sampled units than stratum members: pi = n_h / N_h > 1
    with pytest.raises(PreconditionError, match="members"):
        stratified_estimate([1.0, 1.0, 0.0], [0, 0, 0], [2])
    with pytest.raises(PreconditionError, match="labels"):
        stratified_estimate([1.0, 1.0], [1, 1], [4])
    with pytest.raises(PreconditionError, match="aligned"):
        stratified_estimate([1.0, 1.0], [0], [4])


def test_df_residuals_vanish():
    # perfect proxy on the sample -> exactly the pool proxy mean
    correction, se = stratified_estimate(np.subtract([1.0, 0.0], [1.0, 0.0]), [0, 0], [4])
    assert 0.37 + correction == 0.37
    assert se == 0.0


def test_df_zero_proxy_is_ht(tmp_path):
    # through `estimate`: a proxy column of zeros makes DF report exactly HT
    pool = tmp_path / "pool.csv"
    pool.write_text("id,proxy\n" + "".join(f"u{i},0.0\n" for i in range(10)))
    sheet = tmp_path / "ws.csv"
    sheet.write_text("id,stratum,pi,loss\nu1,0,0.3,1\nu4,0,0.3,0\nu7,0,0.3,1\n")
    assert main(["estimate", "--input", str(pool), "--worksheet", str(sheet),
                 "--out", str(tmp_path / "est")]) == 0
    report = json.loads((tmp_path / "est" / "report.json").read_text())
    assert report["df"]["theta"] == report["ht"]["theta"] == pytest.approx(2 / 3)
    assert report["df"]["se"] == report["ht"]["se"]


def test_df_census_exact():
    z = np.array([1.0, 0.0, 1.0, 1.0])
    correction, se = stratified_estimate(z - 0.5, [0] * 4, [4])
    assert 0.5 + correction == pytest.approx(0.75)
    assert se == 0.0


def test_ht_and_df_design_unbiased_by_enumeration():
    # average the estimator over every C(6,3) equally likely sample
    rng = np.random.default_rng(13)
    z = rng.random(6)
    zh = rng.random(6)
    ht_vals = enumerate_srs_estimates(z, 3)
    df_vals = enumerate_srs_estimates(z, 3, proxies=zh)
    assert np.mean(ht_vals) == pytest.approx(z.mean(), abs=1e-12)
    assert np.mean(df_vals) == pytest.approx(z.mean(), abs=1e-12)


# -- closed-form design MSEs ----------------------------------------------------


def test_mse_ht_srs_hand_value():
    z = np.concatenate([np.ones(500), np.zeros(500)])
    assert mse_ht_srs(z, 100) == pytest.approx(2.2523e-3, abs=1e-7)


def test_mse_ht_srs_degenerate():
    z = np.concatenate([np.ones(5), np.zeros(5)])
    assert mse_ht_srs(z, 10) == 0.0  # census
    assert mse_ht_srs(np.full(10, 0.3), 4) == 0.0  # constant loss


def test_mse_ht_srs_equals_exhaustive_enumeration():
    # (1-f)/n * S^2 is exact for SRS without replacement; check against
    # the average over all C(8, n) samples
    rng = np.random.default_rng(21)
    z = rng.random(8)
    for n in (2, 3, 5, 7):
        assert mse_ht_srs(z, n) == pytest.approx(
            enumerate_srs_mse(z, n), rel=1e-12
        )


def test_mse_ht_prop_hand_value():
    z = two_group_losses([500, 500], [0.6, 0.2], [0.3, 0.1])
    part = StrataPartition(np.repeat([0, 1], 500), 2)
    # (1-f)/n * (0.5*0.09 + 0.5*0.01) = 0.009 * 0.05
    assert mse_ht_prop(z, part, 100) == pytest.approx(4.5e-4, abs=1e-9)


def test_mse_ht_prop_reductions():
    rng = np.random.default_rng(22)
    z = rng.random(30)
    single = StrataPartition(np.zeros(30, dtype=int), 1)
    assert mse_ht_prop(z, single, 10) == pytest.approx(mse_ht_srs(z, 10), rel=1e-12)
    # homogeneous strata -> zero
    z2 = np.repeat([0.3, 0.8], 10)
    part = StrataPartition(np.repeat([0, 1], 10), 2)
    assert mse_ht_prop(z2, part, 4) == 0.0


def test_mse_ht_prop_equals_exhaustive_enumeration():
    rng = np.random.default_rng(23)
    z = rng.random(9)
    part = StrataPartition(np.array([0] * 5 + [1] * 4), 2)
    # proportional-allocation MSE formula assumes n_h = n * N_h / N;
    # choose sizes making that integral isn't possible at N=9, so compare
    # through the generic stratified variance with explicit n_h instead:
    # mse_ht_prop(z, part, n) with n=... requires integral n_h; use a
    # balanced case below.
    z = rng.random(8)
    part = StrataPartition(np.repeat([0, 1], 4), 2)
    for n in (2, 4, 6):
        exact = enumerate_ssrs_mse(z, part.assignment, [n // 2, n // 2])
        # the closed form divides by N_h - 1 within strata while the
        # enumeration is the true design variance; they agree exactly
        # when n_h/N_h = n/N in every stratum
        assert mse_ht_prop(z, part, n) == pytest.approx(exact, rel=1e-12)


def test_mse_ht_neyman_hand_value():
    z = two_group_losses([500, 500], [0.6, 0.2], [0.3, 0.1])
    part = StrataPartition(np.repeat([0, 1], 500), 2)
    # (0.5*0.3 + 0.5*0.1)^2 / 100 - (0.5*0.09 + 0.5*0.01) / 1000
    assert mse_ht_neyman(z, part, 100) == pytest.approx(3.5e-4, abs=1e-9)


def test_mse_ht_neyman_reductions():
    rng = np.random.default_rng(24)
    z = rng.random(40)
    single = StrataPartition(np.zeros(40, dtype=int), 1)
    # H=1: (S/1)^2/n - S^2/N = S^2 (1/n - 1/N) = mse_ht_srs exactly
    for n in (5, 10, 39):
        assert mse_ht_neyman(z, single, n) == pytest.approx(
            mse_ht_srs(z, n), rel=1e-14
        )
    # constant within-stratum SD -> equals proportional
    z2 = two_group_losses([10, 10], [0.2, 0.8], [0.1, 0.1])
    part = StrataPartition(np.repeat([0, 1], 10), 2)
    assert mse_ht_neyman(z2, part, 10) == pytest.approx(
        mse_ht_prop(z2, part, 10), rel=1e-12
    )


def test_mse_df_srs_perfect_proxy():
    z = np.array([0.1, 0.7, 0.3, 0.9])
    assert mse_df_srs(z, z, 2) == pytest.approx(0.0, abs=1e-15)


def test_mse_df_srs_zero_proxy_near_ht():
    # with proxies == 0 the two formulas differ only in the N vs N-1
    # population-variance divisor
    rng = np.random.default_rng(25)
    z = rng.random(50)
    n = 10
    df = mse_df_srs(z, np.zeros(50), n)
    ht = mse_ht_srs(z, n)
    assert df == pytest.approx(ht * (50 - 1) / 50, rel=1e-12)
    assert abs(df - ht) / ht <= 1 / 50 + 1e-12


def test_mse_df_srs_exact_relation_to_enumeration():
    # DF under SRS is a constant plus the expansion estimator of the
    # residuals, so its exact design MSE is (1-f)/n * S^2_resid; the
    # closed form uses the divisor-N population variance instead
    rng = np.random.default_rng(26)
    z = rng.random(8)
    zh = rng.random(8)
    for n in (2, 4, 6):
        exact = enumerate_srs_mse(z, n, proxies=zh)
        assert mse_df_srs(z, zh, n) == pytest.approx(
            exact * (8 - 1) / 8, rel=1e-11
        )


def test_mse_df_prop_reductions_and_enumeration():
    rng = np.random.default_rng(27)
    z = rng.random(8)
    zh = rng.random(8)
    part = StrataPartition(np.repeat([0, 1], 4), 2)
    single = StrataPartition(np.zeros(8, dtype=int), 1)
    assert mse_df_prop(z, zh, single, 4) == pytest.approx(
        mse_df_srs(z, zh, 4), rel=1e-12
    )
    assert mse_df_prop(z, z, part, 4) == pytest.approx(0.0, abs=1e-15)
    # against enumeration: per-stratum divisor mismatch is (N_h-1)/N_h
    for n in (2, 4, 6):
        exact = enumerate_ssrs_mse(z, part.assignment, [n // 2, n // 2], proxies=zh)
        assert mse_df_prop(z, zh, part, n) == pytest.approx(
            exact * (4 - 1) / 4, rel=1e-11
        )


def test_mse_formula_preconditions():
    with pytest.raises(PreconditionError):
        mse_ht_srs([1.0, np.nan], 1)
    with pytest.raises(PreconditionError):
        mse_ht_srs([1.0, 0.0], 3)


# -- orderings and identities ---------------------------------------------------


def pipeline_instance(rng):
    """Population + k-means partition the way the planner builds them.

    Group means sit on a 0.25-spaced grid and the within-group spread is
    capped at 0.1, so the between-strata variance dominates the pooled
    within-strata variance on every draw.  That keeps the instances inside
    the regime where stratifying on the proxy helps -- the prop-vs-srs
    comparison is only an O(1/min N_h) approximation and flips sign for
    partitions unrelated to the losses.
    """
    k = int(rng.integers(2, 5))
    theta = np.sort(rng.choice(np.array([0.1, 0.35, 0.6, 0.85]), size=k, replace=False))
    raw = rng.dirichlet(np.ones(k) * 4.0)
    weights = 0.1 + (1.0 - 0.1 * k) * raw  # every group holds >= 10% of units
    counts = np.round(weights * int(rng.integers(200, 600))).astype(int)
    spreads = rng.uniform(0.02, 0.1, size=k)
    blocks = []
    for h in range(k):
        pattern = np.zeros(counts[h])
        pattern[: counts[h] - counts[h] % 2] = np.tile([1.0, -1.0], counts[h] // 2)
        blocks.append(theta[h] + spreads[h] * pattern)
    z = np.concatenate(blocks)
    proxy = np.repeat(theta, counts)
    perm = rng.permutation(z.size)
    z, proxy = z[perm], proxy[perm]
    part = kmeans_1d(proxy, k)
    n = int(rng.integers(2 * k, max(2 * k + 1, z.size // 4)))
    return z, proxy, part, n


def test_design_ordering_on_pipeline_instances():
    rng = np.random.default_rng(28)
    for _ in range(200):
        z, _, part, n = pipeline_instance(rng)
        srs = mse_ht_srs(z, n)
        prop = mse_ht_prop(z, part, n)
        ney = mse_ht_neyman(z, part, n)
        assert ney <= prop + 1e-12
        assert prop <= srs + 1e-12


def test_allocation_gap_identity_exact():
    # prop - neyman == (1/n) * sum_h w_h (S_h - S̄)^2 with S̄ = sum w_h S_h
    rng = np.random.default_rng(29)
    for _ in range(200):
        z, _, part, n = pipeline_instance(rng)
        w = part.sizes / part.sizes.sum()
        sds = np.array(
            [np.std(z[part.assignment == h], ddof=1) if s > 1 else 0.0
             for h, s in enumerate(part.sizes)]
        )
        sbar = float(np.dot(w, sds))
        gap = np.dot(w, (sds - sbar) ** 2) / n
        assert mse_ht_prop(z, part, n) - mse_ht_neyman(z, part, n) == pytest.approx(
            gap, rel=1e-10, abs=1e-15
        )


def test_stratification_gain_identity_approximate():
    # srs - prop ≈ (1-f)/n * sum_h w_h (mean_h - mean)^2, exact up to the
    # (N_h-1)/N vs N_h/N divisor swap, i.e. O(1/min N_h) relatively
    rng = np.random.default_rng(30)
    for _ in range(200):
        z, _, part, n = pipeline_instance(rng)
        f = n / z.size
        w = part.sizes / part.sizes.sum()
        means = np.array([z[part.assignment == h].mean() for h in range(part.n_strata)])
        between = float(np.dot(w, (means - z.mean()) ** 2))
        claim = (1 - f) / n * between
        got = mse_ht_srs(z, n) - mse_ht_prop(z, part, n)
        tol = 2 / part.sizes.min()
        assert got == pytest.approx(claim, rel=tol, abs=1e-15)


# -- plug-in standard errors -----------------------------------------------------


def test_plugin_se_srs_hand_value():
    # plain SRS is one stratum: values {0, 1} drawn 2 of N = 4 give
    # s^2 = 0.5 and se^2 = (1 - 2/4) * 0.5 / 2
    assert stratified_estimate([0.0, 1.0], [0, 0], [4])[1] == pytest.approx(
        0.35355, abs=1e-5
    )
    assert stratified_estimate([0.7, 0.7, 0.7], [0, 0, 0], [10])[1] == 0.0


def test_plugin_se_ssrs_census_is_zero():
    _, se = stratified_estimate([1.0, 0.0, 1.0, 1.0], [0, 0, 1, 1], [2, 2])
    assert se == 0.0


def test_plugin_se_ssrs_hand_value():
    # one stratum of 100 sampled 2, values {0,1}: s^2 = 0.5,
    # var = (1/1)^2 * (1 - 0.02) * 0.5 / 2 with weight (100/100)^2
    _, se = stratified_estimate([0.0, 1.0], [0, 0], [100])
    assert se == pytest.approx(np.sqrt(0.98 * 0.25), rel=1e-12)
    # constant strata contribute exactly 0, though 0.7 * 3 rounds
    values = [0.7, 0.7, 0.7, 0.3, 0.3, 0.3, 0.1, 0.1]
    assert stratified_estimate(values, [0, 0, 0, 1, 1, 1, 2, 2], [10, 20, 5])[1] == 0.0


def test_plugin_se_ssrs_needs_two_per_stratum():
    with pytest.raises(PreconditionError, match="stratum 1 has 1"):
        stratified_estimate([1.0, 0.0, 1.0], [0, 0, 1], [5, 5])


def test_stratified_estimate_matches_textbook_sums():
    # random stratified samples in shuffled order, against the
    # stratum-by-stratum transcription of the two formulas
    rng = np.random.default_rng(17)
    for _ in range(300):
        n_strata = int(rng.integers(1, 6))
        n_h = rng.integers(2, 9, size=n_strata)
        sizes = n_h + rng.integers(0, 40, size=n_strata)
        strata = rng.permutation(np.repeat(np.arange(n_strata), n_h))
        values = np.where(rng.random(strata.size) < 0.5, rng.random(strata.size), 1.0)
        theta, se = stratified_estimate(values, strata, sizes)
        want_theta, want_se = textbook_stratified_estimate(values, strata, sizes)
        assert theta == pytest.approx(want_theta, rel=1e-12)
        assert se == pytest.approx(want_se, rel=1e-12, abs=1e-15)


# -- normal quantile and intervals ------------------------------------------------


def test_normal_quantile_against_scipy():
    grid = np.concatenate(
        [
            np.linspace(1e-6, 1 - 1e-6, 201),
            [0.025, 0.975, 0.5, 0.75, 1e-9, 1 - 1e-9],
        ]
    )
    for p in grid:
        assert normal_quantile(float(p)) == pytest.approx(
            stats.norm.ppf(p), abs=1e-8
        )


def test_normal_quantile_symmetry_and_domain():
    assert normal_quantile(0.5) == 0.0
    assert normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-6)
    assert normal_quantile(0.25) == pytest.approx(-normal_quantile(0.75), rel=1e-12)
    for bad in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(PreconditionError):
            normal_quantile(bad)


def test_confidence_interval_values():
    lo, hi = confidence_interval(0.5, 0.1, 0.95)
    assert (lo, hi) == (pytest.approx(0.30400, abs=1e-5), pytest.approx(0.69600, abs=1e-5))
    assert confidence_interval(0.42, 0.0, 0.95) == (0.42, 0.42)
    lo50, hi50 = confidence_interval(0.0, 1.0, 0.5)
    assert hi50 == pytest.approx(0.67449, abs=1e-5)
    assert lo50 == pytest.approx(-0.67449, abs=1e-5)


def test_ci_half_width_scales_with_se():
    lo, hi = confidence_interval(0.3, 0.05, 0.9)
    half = (hi - lo) / 2
    assert half == pytest.approx(normal_quantile(0.95) * 0.05, rel=1e-12)
    assert lo < 0.3 < hi
