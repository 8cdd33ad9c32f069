"""Simulation harness tests: pool generators, Monte Carlo mechanics, tables.

Statistical assertions run at fixed seeds (deterministic reruns) and use
3 Monte Carlo standard errors unless the quantity is exact by design.
"""

import csv
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from oracles import two_group_losses
from strateval import simulate
from strateval.allocate import AllocationPlan, neyman, proportional
from strateval.cli import main
from strateval.dataset import Population
from strateval.errors import ParseError, PreconditionError
from strateval.estimators import design_mse, stratified_estimate, stratum_moments
from strateval.losses import LossKind
from strateval.rng import derive_seed
from strateval.sampling import draw_ssrs, worksheet_csv
from strateval.simulate import (
    MCResult,
    SuperpopSpec,
    efficiency_csv,
    efficiency_table,
    generate,
    mc_design,
    run_mc,
    run_methods,
)
from strateval.stratify import StrataPartition, kmeans_1d


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
    pool.write_text(pop.canonical_csv())
    res = run_mc(
        pop, design="srs", estimator="ht", n=40, reps=120, seed=77, keep_estimates=True
    )
    assert res.estimates is not None and res.estimates.shape == (120,)
    srs_plan = AllocationPlan(strategy="srs", n_h=np.array([40]))
    for r in (0, 57, 119):
        sub_seed = derive_seed(77, r)
        out = tmp_path / f"plan{r}"
        argv = ["plan", "--input", str(pool), "--out", str(out), "--budget", "40",
                "--strategy", "srs", "--seed-sample", str(sub_seed)]
        assert main(argv) == 0
        draw = draw_ssrs(pop, one_stratum(pop), srs_plan, sub_seed)
        assert worksheet_ids(out / "worksheet.csv") == draw.ids
        ht, _ = stratified_estimate(pop.loss[draw.indices], draw.strata, [pop.size])
        assert res.estimates[r] == pytest.approx(ht, rel=1e-12)

    part = kmeans_1d(pop.proxy, 2)
    plan = proportional(part.sizes, 40)
    res2 = run_mc(
        pop,
        design="ssrs",
        estimator="df",
        n=40,
        reps=120,
        seed=78,
        partition=part,
        keep_estimates=True,
    )
    pool_mean = float(np.mean(pop.proxy))
    for r in (0, 119):
        draw = draw_ssrs(pop, part, plan, derive_seed(78, r))
        residuals = pop.loss[draw.indices] - pop.proxy[draw.indices]
        correction, _ = stratified_estimate(residuals, draw.strata, part.sizes)
        assert res2.estimates[r] == pytest.approx(pool_mean + correction, rel=1e-12)
    # estimates are only materialized on request
    assert run_mc(pop, design="srs", estimator="ht", n=40, reps=120, seed=77).estimates is None


@pytest.mark.parametrize("design", ["srs", "ssrs"])
def test_run_mc_validates_the_se_estimate_reports(tmp_path, design):
    # replay every replication through `estimate`: run_mc's estimates and
    # mean standard error are the ones a user running the CLI would see
    pop = generate(two_point_spec(90, seed=12))
    pool = tmp_path / "pool.csv"
    pool.write_text(pop.canonical_csv())
    part = kmeans_1d(pop.proxy, 2) if design == "ssrs" else one_stratum(pop)
    plan = proportional(part.sizes, 16)
    kw = dict(design=design, n=16, reps=100, seed=91, partition=part, keep_estimates=True)
    runs = {est: run_mc(pop, estimator=est, **kw) for est in ("ht", "df")}
    reported = {"ht": ([], []), "df": ([], [])}
    for r in range(100):
        draw = draw_ssrs(pop, part, plan, derive_seed(91, r))
        rows = worksheet_csv(draw).splitlines()
        sheet = tmp_path / "annotated.csv"
        sheet.write_text(
            rows[0] + ",loss\n"
            + "".join(f"{row},{float(pop.loss[i])!r}\n" for row, i in zip(rows[1:], draw.indices))
        )
        out = tmp_path / "est"
        argv = ["estimate", "--input", str(pool), "--worksheet", str(sheet), "--out", str(out)]
        assert main(argv) == 0
        report = json.loads((out / "report.json").read_text())
        for est, (thetas, ses) in reported.items():
            thetas.append(report[est]["theta"])
            ses.append(report[est]["se"])
    for est, (thetas, ses) in reported.items():
        assert runs[est].estimates == pytest.approx(thetas, rel=1e-12)
        assert runs[est].avg_plugin_se == pytest.approx(np.mean(ses), rel=1e-12)


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
    kw = dict(n=n, reps=101, seed=seed, partition=part, keep_estimates=True)
    for method, res in zip(methods, run_methods(pop, methods, **kw)):
        alone = run_mc(pop, **method, **kw)
        assert res.to_dict() == alone.to_dict()
        assert np.array_equal(res.estimates, alone.estimates)


def test_run_methods_shares_one_draw_per_partition(monkeypatch):
    # five methods, two partitions: srs twice, and ssrs with two different
    # allocations, read from one draw of the larger n_h per batch
    pop = generate(two_point_spec(400, seed=3, p=(0.1, 0.6)))
    part = kmeans_1d(pop.proxy, 2)
    methods = [dict(design="srs", estimator="ht"), dict(design="srs", estimator="ht"),
               dict(design="ssrs", estimator="ht"),
               dict(design="ssrs", estimator="df", allocation="neyman"),
               dict(design="srs", estimator="df")]
    kw = dict(n=40, reps=300, seed=5, partition=part, keep_estimates=True)
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
            design_mse(z, part, proportional(part.sizes, 100).n_h),
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
            design_mse(z, part, neyman(part.sizes, true_sds, 100).n_h),
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


def test_efficiency_csv_layout():
    table = {"SRS+HT": 1.0, "SRS+DF": 0.5, "SSRS,p+HT": 0.625, "SSRS,o+HT": 0.375}
    text = efficiency_csv(table, row_label="two_point")
    assert text.splitlines()[0] == 'population,SRS+HT,SRS+DF,"SSRS,p+HT","SSRS,o+HT"'
    parsed = list(csv.reader(io.StringIO(text)))
    assert parsed[0] == ["population", "SRS+HT", "SRS+DF", "SSRS,p+HT", "SSRS,o+HT"]
    assert parsed[1][0] == "two_point"
    assert [float(v) for v in parsed[1][1:]] == [1.0, 0.5, 0.625, 0.375]
