"""Simulation harness tests: pool generators, Monte Carlo mechanics, tables.

Statistical assertions run at fixed seeds (deterministic reruns) and use
3 Monte Carlo standard errors unless the quantity is exact by design.
"""

import json
import os
import signal
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from oracles import two_group_losses
from strateval import simulate, tables
from strateval.allocate import neyman, proportional
from strateval.cli import main
from strateval.dataset import Population
from strateval.errors import ParseError, PreconditionError
from strateval.estimators import design_mse, stratified_estimate, stratum_moments
from strateval.losses import LossKind
from strateval.rng import derive_seed
from strateval.sampling import draw_ssrs, worksheet_table
from strateval.simulate import (
    MCResult,
    SuperpopSpec,
    efficiency_table,
    generate,
    mc_design,
    run_mc,
    run_methods,
)
from strateval.stratify import StrataPartition, kmeans_1d
from strateval.tables import write_csv


def two_point_spec(size, seed, p=(0.2, 0.8), w=(0.5, 0.5)):
    return SuperpopSpec(
        "two_point", size, seed, {"p_values": list(p), "weights": list(w)}
    )


# -- generators ----------------------------------------------------------------


def test_generate_two_point_pool():
    pop = generate(two_point_spec(10_000, seed=4))
    assert pop.size == 10_000
    assert np.array_equal(np.unique(pop.proxy), [0.2, 0.8])
    assert abs(float(pop.proxy.mean()) - 0.5) <= 0.02
    assert set(np.unique(pop.loss)) <= {0.0, 1.0}
    # losses are Bernoulli draws at the stored conditional mean
    for p in (0.2, 0.8):
        grp = pop.loss[pop.proxy == p]
        tol = 4.0 * np.sqrt(p * (1 - p) / grp.size)
        assert float(grp.mean()) == pytest.approx(p, abs=tol)


def test_generate_is_deterministic():
    a = generate(two_point_spec(500, seed=4))
    b = generate(two_point_spec(500, seed=4))
    assert a.ids == b.ids
    assert np.array_equal(a.proxy, b.proxy)
    assert np.array_equal(a.loss, b.loss)
    c = generate(two_point_spec(500, seed=5))
    assert not (np.array_equal(a.proxy, c.proxy) and np.array_equal(a.loss, c.loss))


def test_generate_beta_uniform_proxies():
    spec = SuperpopSpec("beta_conditional", 10_000, 18, {"alpha": 1.0, "beta": 1.0})
    pop = generate(spec)
    assert stats.kstest(pop.proxy, "uniform").pvalue > 0.01
    assert set(np.unique(pop.loss)) <= {0.0, 1.0}
    assert float(pop.loss.mean()) == pytest.approx(float(pop.proxy.mean()), abs=0.02)


def test_generate_miscalibrated_identity_distortion():
    params = {"p_values": [0.2, 0.8], "weights": [0.5, 0.5]}
    straight = generate(two_point_spec(800, seed=4))
    bent = generate(
        SuperpopSpec("miscalibrated", 800, 4, {**params, "slope": 1.0, "offset": 0.0})
    )
    assert straight.ids == bent.ids
    assert np.array_equal(straight.proxy, bent.proxy)
    assert np.array_equal(straight.loss, bent.loss)


def test_generate_miscalibrated_stores_distorted_proxy():
    params = {"p_values": [0.2, 0.8], "weights": [0.5, 0.5]}
    flipped = generate(
        SuperpopSpec("miscalibrated", 8000, 11, {**params, "slope": -1.0, "offset": 1.0})
    )
    # 1-p in floats lands a half-ulp off the literals, hence allclose
    assert np.allclose(np.unique(flipped.proxy), [0.2, 0.8], atol=1e-12)
    # stored proxy near 0.8 marks the units whose true annotation rate is 0.2
    grp = flipped.loss[flipped.proxy > 0.5]
    assert float(grp.mean()) == pytest.approx(0.2, abs=4 * np.sqrt(0.16 / grp.size))
    clipped = generate(
        SuperpopSpec("miscalibrated", 100, 11, {**params, "slope": 2.0, "offset": -0.2})
    )
    assert np.array_equal(np.unique(clipped.proxy), [0.2, 1.0])


def numpy_pool(seed, size, p_values, weights):
    """The documented recipe on numpy's own Generator: choice, then random."""
    g = np.random.Generator(np.random.PCG64(seed))
    p = g.choice(np.asarray(p_values, dtype=float), size=size, p=np.asarray(weights, dtype=float))
    return p, (g.random(size) < p).astype(float)


ATOL = np.sqrt(np.finfo(np.float64).eps)


# the last weights sum to 1 + 0.9 sqrt(eps): inside numpy's rule, where the pool's
# normalized cumulative sum differs from the raw one
@pytest.mark.parametrize("p_values,weights", [
    ([0.03, 0.25, 0.55, 0.9], [0.4, 0.3, 0.2, 0.1]),
    ([0.5, 0.05], [0.5, 0.5]),
    ([0.1, 0.0, 1.0], [0.0, 1 / 3, 2 / 3]),
    ([0.7], [1.0]),
    ([0.2, 0.6, 0.9], [0.25, 0.5, 0.25 + 0.9 * ATOL]),
])
@pytest.mark.parametrize("size", [2, 777, 4096, 5000])
def test_two_point_pools_are_numpys_choice_then_random(p_values, weights, size):
    params = {"p_values": p_values, "weights": weights}
    bent = {**params, "slope": 0.5, "offset": 0.25}
    for seed in (0, 7, 2**40 + 3):
        p, loss = numpy_pool(seed, size, p_values, weights)
        pop = generate(SuperpopSpec("two_point", size, seed, params))
        assert np.array_equal(pop.proxy, p) and np.array_equal(pop.loss, loss)
        pop = generate(SuperpopSpec("miscalibrated", size, seed, bent))
        assert np.array_equal(pop.proxy, np.clip(0.5 * p + 0.25, 0.0, 1.0))
        assert np.array_equal(pop.loss, loss)


@pytest.mark.parametrize("weights,accepted", [
    ([0.25, 0.5, 0.25 + 0.9 * ATOL], True),
    ([0.25, 0.5, 0.25 - 0.9 * ATOL], True),
    ([0.25, 0.5, 0.25 + 1.1 * ATOL], False),
    ([0.25, 0.5, 0.25 - 1.1 * ATOL], False),
    # a plain left-to-right sum lands one ulp past the bound, the compensated one inside
    ([0.5007691101851777, 0.13909035103854536, 0.3601405536774383], True),
])
def test_the_weights_rule_is_numpys(weights, accepted):
    spec = SuperpopSpec("two_point", 100, 3, {"p_values": [0.2, 0.6, 0.9], "weights": weights})
    if accepted:
        numpy_pool(3, 100, [0.2, 0.6, 0.9], weights)
        spec.validate()
        return
    with pytest.raises(ValueError, match="Probabilities do not sum to 1"):
        numpy_pool(3, 100, [0.2, 0.6, 0.9], weights)
    with pytest.raises(ParseError, match="sum to 1 within 1.49e-08; their sum is"):
        spec.validate()


def test_ties_and_the_normalized_sum_place_uniforms_as_numpy_does():
    # seed 4's first uniform u0 > 1/2: with weights [u0, 1 - u0] it equals the first
    # cumulative weight, which searchsorted(side="right") passes; with the first weight
    # u0 + d/2 and a sum of 1 + d, it lies below the raw cumulative weight but above
    # the normalized one.  Both times the first unit takes the second value
    u0 = np.random.Generator(np.random.PCG64(4)).random()
    assert u0 > 0.5
    d = 0.9 * ATOL
    for weights in ([u0, 1 - u0], [u0 + d / 2, 1 + d / 2 - u0]):
        p, loss = numpy_pool(4, 50, [0.1, 0.9], weights)
        params = {"p_values": [0.1, 0.9], "weights": weights}
        pop = generate(SuperpopSpec("two_point", 50, 4, params))
        assert p[0] == pop.proxy[0] == 0.9
        assert np.array_equal(pop.proxy, p) and np.array_equal(pop.loss, loss)


def test_generate_skips_the_id_repeat_test(monkeypatch):
    # its ids are distinct by construction; at 10**6 units the test took
    # about a sixth of generate's time
    def no_repeat_test(ids, hashes=None):
        raise AssertionError("ids tested for a repeat")

    monkeypatch.setattr(tables, "first_repeat", no_repeat_test)
    pop = generate(two_point_spec(1001, seed=4))
    assert len(set(pop.ids)) == 1001 and pop.ids[0] == "u0000"


def test_spec_validation():
    ok = {"p_values": [0.2, 0.8], "weights": [0.5, 0.5]}
    with pytest.raises(ParseError):
        generate(SuperpopSpec("gaussian", 10, 1, ok))
    with pytest.raises(PreconditionError):
        generate(two_point_spec(1, seed=1))
    with pytest.raises(ParseError):
        generate(SuperpopSpec("two_point", 10, 1, {"p_values": [0.2, 0.8]}))
    with pytest.raises(ParseError):
        generate(
            SuperpopSpec("two_point", 10, 1, {"p_values": [0.2], "weights": [0.5, 0.5]})
        )
    with pytest.raises(ParseError):
        generate(
            SuperpopSpec(
                "two_point", 10, 1, {"p_values": [0.2, 0.8], "weights": [0.7, 0.5]}
            )
        )
    with pytest.raises(ParseError):
        generate(
            SuperpopSpec(
                "two_point", 10, 1, {"p_values": [0.2, 1.8], "weights": [0.5, 0.5]}
            )
        )
    with pytest.raises(ParseError):
        generate(SuperpopSpec("beta_conditional", 10, 1, {"alpha": 0.0, "beta": 1.0}))
    with pytest.raises(ParseError):
        generate(SuperpopSpec("beta_conditional", 10, 1, {"alpha": 2.0}))
    with pytest.raises(ParseError):
        generate(SuperpopSpec("miscalibrated", 10, 1, {**ok, "offset": 0.0}))
    with pytest.raises(ParseError):
        generate(
            SuperpopSpec("miscalibrated", 10, 1, {**ok, "slope": np.inf, "offset": 0.0})
        )


# -- run_mc mechanics ------------------------------------------------------------


def test_run_mc_census_is_exact():
    pop = generate(two_point_spec(256, seed=21))
    res = run_mc(pop, design="srs", estimator="ht", n=256, reps=100, seed=5)
    assert res.empirical_mse == 0.0
    assert res.bias == 0.0
    assert res.coverage == 1.0
    assert res.target == pytest.approx(float(pop.loss.mean()))
    # power-of-two stratum sizes keep every census average exactly dyadic
    part = StrataPartition(np.repeat([0, 1], 128), 2)
    full = run_mc(
        pop, design="ssrs", estimator="ht", n=256, reps=100, seed=5, partition=part
    )
    assert full.empirical_mse == 0.0
    assert full.avg_plugin_se == 0.0  # finite-population correction zeroes each term


def test_run_mc_rejects_too_few_reps():
    pop = generate(two_point_spec(64, seed=2))
    with pytest.raises(PreconditionError, match="standard error"):
        run_mc(pop, design="srs", estimator="ht", n=16, reps=99, seed=1)


def test_run_mc_validation():
    pop = generate(two_point_spec(60, seed=3))
    part = kmeans_1d(pop.proxy, 2)
    with pytest.raises(PreconditionError):
        run_mc(pop, design="cluster", estimator="ht", n=10, reps=100, seed=1)
    with pytest.raises(PreconditionError):
        run_mc(pop, design="srs", estimator="ratio", n=10, reps=100, seed=1)
    with pytest.raises(PreconditionError):
        run_mc(pop, design="ssrs", estimator="ht", n=10, reps=100, seed=1)
    with pytest.raises(PreconditionError):
        run_mc(
            pop,
            design="ssrs",
            estimator="ht",
            n=10,
            reps=100,
            seed=1,
            partition=StrataPartition(np.zeros(10, dtype=int), 1),
        )
    with pytest.raises(PreconditionError):
        run_mc(
            pop,
            design="ssrs",
            estimator="ht",
            n=10,
            reps=100,
            seed=1,
            partition=part,
            allocation="equal",
        )
    with pytest.raises(PreconditionError):
        run_mc(
            pop,
            design="ssrs",
            estimator="ht",
            n=10,
            reps=100,
            seed=1,
            partition=part,
            allocation="neyman",
            sd_source="oracle",
        )
    with pytest.raises(PreconditionError):
        run_mc(pop, design="srs", estimator="ht", n=0, reps=100, seed=1)
    with pytest.raises(PreconditionError):
        run_mc(pop, design="srs", estimator="ht", n=61, reps=100, seed=1)
    # a stratum allocated fewer than 2 units cannot feed the plug-in SE
    with pytest.raises(PreconditionError, match="stratum"):
        run_mc(
            pop,
            design="ssrs",
            estimator="ht",
            n=3,
            reps=100,
            seed=1,
            partition=StrataPartition(np.repeat([0, 1], 30), 2),
        )
    holes = Population(
        ids=("a", "b", "c"),
        proxy=np.array([0.1, 0.5, 0.9]),
        loss=np.array([0.0, np.nan, 1.0]),
        loss_kind=LossKind.ACCURACY,
    )
    with pytest.raises(PreconditionError, match="annotated"):
        run_mc(holes, design="srs", estimator="ht", n=2, reps=100, seed=1)
    # plug-in SDs of a loss other than 0/1 need class scores
    cont = Population(
        ids=tuple(f"q{i}" for i in range(40)),
        proxy=np.linspace(0.05, 0.95, 40),
        loss=np.linspace(0.1, 0.9, 40),
        loss_kind=LossKind.SQUARED_ERROR,
    )
    with pytest.raises(PreconditionError, match="class scores"):
        run_mc(
            cont,
            design="ssrs",
            estimator="ht",
            n=10,
            reps=100,
            seed=1,
            partition=kmeans_1d(cont.proxy, 2),
            allocation="neyman",
            sd_source="plugin",
        )


def one_stratum(pop):
    return StrataPartition(np.zeros(pop.size, dtype=np.int64), 1)


def worksheet_ids(path):
    rows = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return tuple(row.split(",")[0] for row in rows[1:])


def test_run_mc_replications_match_public_draws(tmp_path):
    # one seed gives one SRS sample everywhere: `plan --strategy srs`, the
    # one-stratum draw_ssrs, and run_mc's replication replayed from it
    pop = generate(two_point_spec(300, seed=33))
    pool = tmp_path / "pool.csv"
    write_csv(pool, "", *pop.canonical_table())
    res = run_mc(pop, design="srs", estimator="ht", n=40, reps=120, seed=77)
    assert res.estimates.shape == (120,)
    for r in (0, 57, 119):
        sub_seed = derive_seed(77, r)
        out = tmp_path / f"plan{r}"
        argv = ["plan", "--input", str(pool), "--out", str(out), "--budget", "40",
                "--strategy", "srs", "--seed-sample", str(sub_seed)]
        assert main(argv) == 0
        draw = draw_ssrs(pop, one_stratum(pop), [40], sub_seed)
        assert worksheet_ids(out / "worksheet.csv") == tuple(draw.ids)
        ht, _ = stratified_estimate(pop.loss[draw.indices], draw.strata, [pop.size])
        assert res.estimates[r] == pytest.approx(ht, rel=1e-12)

    part = kmeans_1d(pop.proxy, 2)
    n_h = proportional(part.sizes, 40)
    res2 = run_mc(pop, design="ssrs", estimator="df", n=40, reps=120, seed=78, partition=part)
    pool_mean = float(np.mean(pop.proxy))
    for r in (0, 119):
        draw = draw_ssrs(pop, part, n_h, derive_seed(78, r))
        residuals = pop.loss[draw.indices] - pop.proxy[draw.indices]
        correction, _ = stratified_estimate(residuals, draw.strata, part.sizes)
        assert res2.estimates[r] == pytest.approx(pool_mean + correction, rel=1e-12)


@pytest.mark.parametrize("design", ["srs", "ssrs"])
def test_run_mc_validates_the_se_estimate_reports(tmp_path, design):
    # replay every replication through `estimate`: run_mc's estimates, mean
    # standard error and coverage are the ones a user running the CLI would see
    pop = generate(two_point_spec(90, seed=12))
    pool = tmp_path / "pool.csv"
    write_csv(pool, "", *pop.canonical_table())
    part = kmeans_1d(pop.proxy, 2) if design == "ssrs" else one_stratum(pop)
    n_h = proportional(part.sizes, 16)
    kw = dict(design=design, n=16, reps=100, seed=91, partition=part)
    runs = {est: run_mc(pop, estimator=est, **kw) for est in ("ht", "df")}
    reported = {"ht": ([], [], []), "df": ([], [], [])}
    for r in range(100):
        draw = draw_ssrs(pop, part, n_h, derive_seed(91, r))
        sheet = tmp_path / "annotated.csv"
        write_csv(sheet, "", *worksheet_table(draw))
        rows = sheet.read_text().splitlines()
        sheet.write_text(
            rows[0] + ",loss\n"
            + "".join(f"{row},{float(pop.loss[i])!r}\n" for row, i in zip(rows[1:], draw.indices))
        )
        out = tmp_path / "est"
        argv = ["estimate", "--input", str(pool), "--worksheet", str(sheet), "--out", str(out)]
        assert main(argv) == 0
        report = json.loads((out / "report.json").read_text())
        for est, (thetas, ses, cis) in reported.items():
            thetas.append(report[est]["theta"])
            ses.append(report[est]["se"])
            cis.append(report[est]["ci"])
    target = pop.finite_mean()
    for est, (thetas, ses, cis) in reported.items():
        assert runs[est].estimates == pytest.approx(thetas, rel=1e-12)
        assert runs[est].avg_plugin_se == pytest.approx(np.mean(ses), rel=1e-12)
        # the coverage is the share of the reported intervals that hold the pool mean
        assert runs[est].coverage == np.mean([lo <= target <= hi for lo, hi in cis])


def test_run_mc_deterministic():
    pop = generate(two_point_spec(200, seed=14))
    part = kmeans_1d(pop.proxy, 2)
    kw = dict(design="ssrs", estimator="df", n=30, reps=150, seed=9, partition=part)
    assert run_mc(pop, **kw).to_dict() == run_mc(pop, **kw).to_dict()


METHOD = st.fixed_dictionaries({
    "design": st.sampled_from(["srs", "ssrs"]),
    "estimator": st.sampled_from(["ht", "df"]),
    "allocation": st.sampled_from(["prop", "neyman"]),
    "sd_source": st.sampled_from(["true", "plugin"]),
})


@st.composite
def paired_runs(draw):
    """A pool, a partition, a budget and a method list for ``run_methods``."""
    n_strata = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**32))
    rs = np.random.default_rng(seed)
    assignment = rs.permutation(np.repeat(np.arange(n_strata), rs.integers(1, 40, size=n_strata)))
    size = assignment.size
    # strata at different loss rates, so that Neyman and proportional differ
    proxy = rs.random(size) * rs.random(n_strata)[assignment]
    pop = Population(ids=tuple(f"u{i}" for i in range(size)), proxy=proxy,
                     loss=(rs.random(size) < proxy).astype(float),
                     loss_kind=LossKind.ACCURACY)
    part = StrataPartition(assignment, n_strata)
    n = int(rs.integers(max(np.minimum(2, part.sizes).sum(), min(2, size)), size + 1))
    methods = draw(st.lists(METHOD, min_size=1, max_size=6))
    return pop, part, n, methods, seed


@given(paired_runs())
@settings(max_examples=60)
def test_run_methods_rows_are_the_one_method_calls(case):
    # sharing one draw per partition changes no bit of any method's result
    pop, part, n, methods, seed = case
    kw = dict(n=n, reps=101, seed=seed, partition=part)
    for method, res in zip(methods, run_methods(pop, methods, **kw)):
        alone = run_mc(pop, **method, **kw)
        assert res.to_dict() == alone.to_dict()
        assert np.array_equal(res.estimates, alone.estimates)


def test_run_methods_shares_one_draw_per_partition(monkeypatch):
    # five methods, two partitions: srs twice, and ssrs with two different
    # allocations, read from one draw of the larger n_h per batch; on one
    # CPU, so that every draw is made, and counted, in this process
    monkeypatch.setattr(simulate, "_cpu_count", lambda: 1)
    pop = generate(two_point_spec(400, seed=3, p=(0.1, 0.6)))
    part = kmeans_1d(pop.proxy, 2)
    methods = [dict(design="srs", estimator="ht"), dict(design="srs", estimator="ht"),
               dict(design="ssrs", estimator="ht"),
               dict(design="ssrs", estimator="df", allocation="neyman"),
               dict(design="srs", estimator="df")]
    kw = dict(n=40, reps=300, seed=5, partition=part)
    n_h = [mc_design(pop, partition=part, n=40, **m)[3] for m in methods[2:4]]
    assert not np.array_equal(*n_h)
    draws = []
    real = simulate.stratified_indices
    monkeypatch.setattr(simulate, "stratified_indices",
                        lambda p, k, seeds: draws.append(list(k)) or real(p, k, seeds))
    runs = run_methods(pop, methods, **kw)
    n_max = np.maximum(*n_h)
    batches = -(-300 // (simulate._CHUNK_DRAWS // int(n_max.sum())))
    assert draws == [[40], n_max.tolist()] * batches
    monkeypatch.undo()
    for method, res in zip(methods, runs):
        assert np.array_equal(res.estimates, run_mc(pop, **method, **kw).estimates)
    assert np.array_equal(runs[0].estimates, runs[1].estimates)


MC_DESIGNS = [dict(design="srs", estimator="ht"), dict(design="srs", estimator="df"),
              dict(design="ssrs", estimator="ht", allocation="prop"),
              dict(design="ssrs", estimator="ht", allocation="neyman", sd_source="true"),
              dict(design="ssrs", estimator="df", allocation="neyman", sd_source="plugin")]


def test_five_paired_methods_do_not_depend_on_the_batch_size(monkeypatch):
    # the shape of the benchmark's mc-designs: two SRS methods and three
    # SSRS ones on four strata, a budget of 100.  The SSRS draw is 120 units
    # wide, so a batch of 30 draws holds one replication, 4096 hold 34 and
    # the default more; every estimate and standard error keeps its bits
    params = {"p_values": [0.03, 0.25, 0.55, 0.9], "weights": [0.4, 0.3, 0.2, 0.1]}
    pop = generate(SuperpopSpec("two_point", 2000, 12, params))
    part = kmeans_1d(pop.proxy, 4)
    n_max = np.max([mc_design(pop, n=100, partition=part, **m)[3] for m in MC_DESIGNS[2:]],
                   axis=0)
    assert n_max.sum() == 120
    kept = []
    real = simulate._summary
    monkeypatch.setattr(simulate, "_summary", lambda e, s, *rest: kept.append(
        (e.tobytes(), s.tobytes())) or real(e, s, *rest))
    runs = {}
    for chunk_draws in (30, 4096, simulate._CHUNK_DRAWS):
        monkeypatch.setattr(simulate, "_CHUNK_DRAWS", chunk_draws)
        kept.clear()
        results = run_methods(pop, MC_DESIGNS, n=100, reps=250, seed=21, partition=part)
        runs[chunk_draws] = [r.to_dict() for r in results], list(kept)
    assert len(runs[30][1]) == len(MC_DESIGNS)
    assert runs[30] == runs[4096] == runs[simulate._CHUNK_DRAWS]


# -- batches split across forked workers ------------------------------------------


@given(paired_runs(), st.sampled_from([16, 64, 4096, simulate._CHUNK_DRAWS]),
       st.integers(101, 300))
@settings(max_examples=30)
def test_run_methods_bits_do_not_depend_on_the_cpu_count(case, chunk_draws, reps):
    # 16 and 64 give many batches per run, a last one cut short when reps
    # is not a multiple.  The widest draw of these pools is at most 156
    # units, so 4096 and the default hold from 26 replications a batch to
    # every replication in one batch, which runs in this process with no fork
    pop, part, n, methods, seed = case
    kw = dict(n=n, reps=reps, seed=seed, partition=part)
    # a batch holds chunk_draws // (units of the widest shared draw) reps
    widest = {}
    for m in methods:
        n_h = mc_design(pop, n=n, partition=part, **m)[3]
        widest[m["design"]] = np.maximum(widest.get(m["design"], n_h), n_h)
    batches = -(-reps // max(1, chunk_draws // max(int(k.sum()) for k in widest.values())))
    forks = []
    real_fork = os.fork
    runs = {}
    with mock.patch.object(simulate, "_CHUNK_DRAWS", chunk_draws), \
            mock.patch.object(simulate.os, "fork", lambda: forks.append(1) or real_fork()):
        for cpus in (1, 2, 3, 5):
            with mock.patch.object(simulate, "_cpu_count", lambda: cpus):
                forks.clear()
                runs[cpus] = run_methods(pop, methods, **kw)
            assert len(forks) == min(cpus, batches) - 1
    for cpus in (2, 3, 5):
        for serial, split in zip(runs[1], runs[cpus]):
            assert split.to_dict() == serial.to_dict()
            assert np.array_equal(split.estimates, serial.estimates)


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def deadline():
    """Fail, rather than hang, a test whose forked workers never report."""
    def hung(signum, frame):
        raise TimeoutError("run_methods hung")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(120)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def test_run_methods_reaps_every_worker(monkeypatch, deadline):
    monkeypatch.setattr(simulate, "_cpu_count", lambda: 3)
    pop = generate(two_point_spec(400, seed=3))
    part = kmeans_1d(pop.proxy, 2)
    methods = [dict(design="srs", estimator="ht"), dict(design="ssrs", estimator="df")]
    runs = run_methods(pop, methods, n=200, reps=300, seed=4, partition=part)
    assert [r.reps for r in runs] == [300, 300]
    no_child_left()


@pytest.mark.parametrize("where", ["child", "parent"])
def test_a_failing_worker_raises_here_and_leaves_no_child(monkeypatch, capfd, deadline,
                                                          where):
    # the failure happens in one process only: a forked worker, or this one
    parent = os.getpid()
    real = simulate.stratified_estimate

    def failing(*args):
        if (os.getpid() != parent) == (where == "child"):
            raise ArithmeticError(f"boom in the {where}")
        return real(*args)

    monkeypatch.setattr(simulate, "_cpu_count", lambda: 3)
    monkeypatch.setattr(simulate, "stratified_estimate", failing)
    pop = generate(two_point_spec(400, seed=3))
    kw = dict(n=200, reps=300, seed=4)
    if where == "child":
        with pytest.raises(RuntimeError, match=r"simulate worker 1 \(replications \d+\.\.\d+\) "
                                               r"exited with status 1 after sending 0 of"):
            run_methods(pop, [dict(design="srs", estimator="ht")], **kw)
        assert "ArithmeticError: boom in the child" in capfd.readouterr().err
    else:
        with pytest.raises(ArithmeticError, match="boom in the parent"):
            run_methods(pop, [dict(design="srs", estimator="ht")], **kw)
    no_child_left()


def test_a_bad_level_is_refused_before_any_replication(monkeypatch):
    def no_replications(*args, **kwargs):
        raise AssertionError("a replication ran")

    monkeypatch.setattr(simulate, "stratified_indices", no_replications)
    pop = generate(two_point_spec(60, seed=3))
    for level in (1.5, 0.0):
        with pytest.raises(PreconditionError, match=rf"^level must be in \(0,1\), got {level}$"):
            run_mc(pop, design="srs", estimator="ht", n=10, reps=100, seed=1, level=level)


DEMO_SPECS = sorted((Path(__file__).resolve().parent.parent / "demos" / "configs").glob("*.json"))


@pytest.mark.parametrize("spec", DEMO_SPECS, ids=[s.stem for s in DEMO_SPECS])
def test_simulate_files_do_not_depend_on_the_cpu_count(tmp_path, monkeypatch, deadline, spec):
    out = tmp_path / "sim"
    files = {}
    for cpus in (1, 2):
        monkeypatch.setattr(simulate, "_cpu_count", lambda: cpus)
        assert main(["simulate", "--spec", str(spec), "--out", str(out)]) == 0
        files[cpus] = {name: (out / name).read_bytes()
                       for name in ("results.json", "efficiency.csv")}
    assert files[1] == files[2]
    no_child_left()


# -- formula-vs-simulation agreement ---------------------------------------------


def test_run_mc_reproduces_closed_forms():
    # two strata with exact moments; each closed form takes the n_h the
    # simulated design draws: (50, 50) proportional, (75, 25) Neyman
    z = two_group_losses([500, 500], [0.35, 0.65], [0.3, 0.1])
    proxy = np.repeat([0.35, 0.65], 500)
    pop = Population(
        ids=tuple(f"c{i:04d}" for i in range(1000)),
        proxy=proxy,
        loss=z,
        loss_kind=LossKind.SQUARED_ERROR,
    )
    part = StrataPartition(np.repeat([0, 1], 500), 2)
    srs = StrataPartition(np.zeros(1000, dtype=np.int64), 1)
    true_sds = np.sqrt(stratum_moments(z, part.assignment, 2)[2])
    reps = 10_000
    runs = {
        "srs+ht": (
            run_mc(pop, design="srs", estimator="ht", n=100, reps=reps, seed=111),
            design_mse(z, srs, [100]),
        ),
        "prop+ht": (
            run_mc(
                pop,
                design="ssrs",
                estimator="ht",
                n=100,
                reps=reps,
                seed=112,
                partition=part,
            ),
            design_mse(z, part, proportional(part.sizes, 100)),
        ),
        "neyman+ht": (
            run_mc(
                pop,
                design="ssrs",
                estimator="ht",
                n=100,
                reps=reps,
                seed=113,
                partition=part,
                allocation="neyman",
                sd_source="true",
            ),
            design_mse(z, part, neyman(part.sizes, true_sds, 100)),
        ),
        "srs+df": (
            run_mc(pop, design="srs", estimator="df", n=100, reps=reps, seed=114),
            design_mse(z - proxy, srs, [100]),
        ),
    }
    for name, (res, closed) in runs.items():
        assert res.empirical_mse >= 0.0
        assert abs(res.empirical_mse - closed) <= 3 * res.mse_mc_se, name


def test_run_mc_design_ordering_statistical():
    pop = generate(two_point_spec(600, seed=41, p=(0.5, 0.05)))
    part = kmeans_1d(pop.proxy, 2)
    reps, n = 15_000, 60
    srs = run_mc(pop, design="srs", estimator="ht", n=n, reps=reps, seed=5)
    prop = run_mc(
        pop, design="ssrs", estimator="ht", n=n, reps=reps, seed=6, partition=part
    )
    ney = run_mc(
        pop,
        design="ssrs",
        estimator="ht",
        n=n,
        reps=reps,
        seed=7,
        partition=part,
        allocation="neyman",
        sd_source="true",
    )
    assert prop.empirical_mse <= srs.empirical_mse + 3 * float(
        np.hypot(prop.mse_mc_se, srs.mse_mc_se)
    )
    assert ney.empirical_mse <= prop.empirical_mse + 3 * float(
        np.hypot(ney.mse_mc_se, prop.mse_mc_se)
    )


def test_df_identity_distortion_not_worse_than_ht():
    spec = SuperpopSpec(
        "miscalibrated",
        600,
        43,
        {"p_values": [0.2, 0.8], "weights": [0.5, 0.5], "slope": 1.0, "offset": 0.0},
    )
    pop = generate(spec)
    reps, n = 15_000, 60
    ht = run_mc(pop, design="srs", estimator="ht", n=n, reps=reps, seed=9)
    df = run_mc(pop, design="srs", estimator="df", n=n, reps=reps, seed=10)
    assert df.empirical_mse <= ht.empirical_mse + 3 * float(
        np.hypot(df.mse_mc_se, ht.mse_mc_se)
    )


def test_run_mc_design_unbiasedness():
    pop = generate(two_point_spec(400, seed=50))
    part = kmeans_1d(pop.proxy, 2)
    reps = 50_000
    cases = [
        ("srs", "ht", {}),
        ("srs", "df", {}),
        ("ssrs", "ht", {"partition": part}),
        ("ssrs", "ht", {"partition": part, "allocation": "neyman"}),
        ("ssrs", "df", {"partition": part}),
    ]
    for design, est, kw in cases:
        res = run_mc(pop, design=design, estimator=est, n=50, reps=reps, seed=60, **kw)
        assert abs(res.bias) <= 3 * res.bias_mc_se, (design, est, kw)
        assert 0.0 <= res.coverage <= 1.0


# -- efficiency tables ------------------------------------------------------------


def _result(mse):
    return MCResult(
        empirical_mse=mse,
        mse_mc_se=0.0,
        bias=0.0,
        bias_mc_se=0.0,
        avg_plugin_se=0.0,
        coverage=0.95,
        reps=100,
        target=0.5,
        estimates=np.full(100, 0.5),
    )


def test_efficiency_table_ratios():
    results = {
        "SRS+HT": _result(4e-4),
        "SRS+DF": _result(2e-4),
        "SSRS,p+HT": _result(4e-4),
    }
    table = efficiency_table(results, "SRS+HT")
    assert table["SRS+HT"] == 1.0
    assert table["SRS+DF"] == pytest.approx(0.5)
    assert table["SSRS,p+HT"] == pytest.approx(1.0)
    with pytest.raises(PreconditionError):
        efficiency_table(results, "missing")
    with pytest.raises(PreconditionError):
        efficiency_table({"a": _result(0.0)}, "a")
