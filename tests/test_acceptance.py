"""Acceptance gate: one test per release criterion.

Run ``pytest tests/test_acceptance.py -s`` for a PASS/FAIL checklist; each
test prints exactly one line and then asserts it.  The expensive Monte
Carlo runs are shared through module-scoped fixtures so the whole gate
stays within a couple of minutes.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from oracles import best_interval_partition, best_monotone_fit, within_cluster_ss
from test_estimators import pipeline_instance
from strateval import cli
from strateval.calibration import fit_isotonic
from strateval.estimators import mse_df_srs, mse_ht_neyman, mse_ht_prop, mse_ht_srs
from strateval.simulate import SuperpopSpec, generate, run_mc
from strateval.stratify import kmeans_1d

CONFIG_DIR = Path(__file__).resolve().parents[1] / "demos" / "configs"


def _report(capfd, num: int, desc: str, ok: bool) -> None:
    """Print one checklist line past pytest's capture, then assert."""
    with capfd.disabled():
        print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} — {desc}", flush=True)
    assert ok, f"criterion {num} failed: {desc}"


@pytest.fixture(scope="module")
def two_point_pool():
    spec = SuperpopSpec(
        family="two_point",
        size=10_000,
        seed=204,
        params={"p_values": [0.2, 0.8], "weights": [0.5, 0.5]},
    )
    pop = generate(spec)
    return pop, kmeans_1d(pop.proxy, 2)


@pytest.fixture(scope="module")
def headline_runs(two_point_pool):
    """Four 100,000-replication runs on the two-point pool, with timing."""
    pop, part = two_point_pool
    t0 = time.monotonic()
    runs = {
        "HT/SRS": run_mc(
            pop, design="srs", estimator="ht", n=100, reps=100_000, seed=501
        ),
        "HT/SSRS-prop": run_mc(
            pop,
            design="ssrs",
            estimator="ht",
            n=100,
            reps=100_000,
            seed=502,
            partition=part,
            allocation="prop",
        ),
        "HT/SSRS-Neyman": run_mc(
            pop,
            design="ssrs",
            estimator="ht",
            n=100,
            reps=100_000,
            seed=503,
            partition=part,
            allocation="neyman",
            sd_source="true",
        ),
        "DF/SRS": run_mc(
            pop, design="srs", estimator="df", n=100, reps=100_000, seed=504
        ),
    }
    elapsed = time.monotonic() - t0
    closed = {
        "HT/SRS": mse_ht_srs(pop.loss, 100),
        "HT/SSRS-prop": mse_ht_prop(pop.loss, part, 100),
        "HT/SSRS-Neyman": mse_ht_neyman(pop.loss, part, 100),
        "DF/SRS": mse_df_srs(pop.loss, pop.proxy, 100),
    }
    return runs, closed, elapsed


def test_criterion_1_formula_vs_simulation(headline_runs, capfd):
    runs, closed, elapsed = headline_runs
    z = {
        name: abs(r.empirical_mse - closed[name]) / r.mse_mc_se
        for name, r in runs.items()
    }
    ok = max(z.values()) <= 3.0 and elapsed < 120.0
    _report(
        capfd,
        1,
        "closed-form MSEs match 100,000-rep simulation for HT/SRS, "
        "HT/SSRS-prop, HT/SSRS-Neyman and DF/SRS at n=100 "
        f"(max |z| = {max(z.values()):.2f}, {elapsed:.0f}s)",
        ok,
    )


def test_criterion_2_design_ordering(two_point_pool, capfd):
    # exact ordering of the closed forms on randomized instances
    rng = np.random.default_rng(2028)
    exact_ok = True
    for _ in range(1000):
        z, _, part, n = pipeline_instance(rng)
        srs = mse_ht_srs(z, n)
        prop = mse_ht_prop(z, part, n)
        ney = mse_ht_neyman(z, part, n)
        exact_ok &= ney <= prop + 1e-12 <= srs + 2e-12

    # statistical ordering of empirical MSEs on five fixed pool specs
    specs = [
        ([0.2, 0.8], [0.5, 0.5], 1500, 100),
        ([0.5, 0.05], [0.5, 0.5], 1200, 80),
        ([0.1, 0.5, 0.9], [0.3, 0.4, 0.3], 1500, 120),
        ([0.3, 0.7], [0.25, 0.75], 1000, 60),
        ([0.05, 0.35, 0.65, 0.95], [0.25, 0.25, 0.25, 0.25], 1600, 160),
    ]
    stat_ok = True
    for i, (p_values, weights, size, n) in enumerate(specs):
        pop = generate(
            SuperpopSpec(
                family="two_point",
                size=size,
                seed=300 + i,
                params={"p_values": p_values, "weights": weights},
            )
        )
        part = kmeans_1d(pop.proxy, len(p_values))
        kw = dict(n=n, reps=10_000, partition=part)
        r_srs = run_mc(pop, design="srs", estimator="ht", n=n, reps=10_000, seed=600 + i)
        r_prop = run_mc(
            pop, design="ssrs", estimator="ht", seed=620 + i, allocation="prop", **kw
        )
        r_ney = run_mc(
            pop,
            design="ssrs",
            estimator="ht",
            seed=640 + i,
            allocation="neyman",
            sd_source="true",
            **kw,
        )
        slack_ps = 3.0 * float(np.hypot(r_prop.mse_mc_se, r_srs.mse_mc_se))
        slack_np = 3.0 * float(np.hypot(r_ney.mse_mc_se, r_prop.mse_mc_se))
        stat_ok &= r_prop.empirical_mse <= r_srs.empirical_mse + slack_ps
        stat_ok &= r_ney.empirical_mse <= r_prop.empirical_mse + slack_np
    _report(
        capfd,
        2,
        "Neyman ≤ proportional ≤ SRS: exact on 1,000 random instances "
        "(1e-12 slack) and within 3 MC SEs on 5 fixed pools",
        exact_ok and stat_ok,
    )


def test_criterion_3_df_efficiency_ratios(headline_runs, capfd):
    runs, _, _ = headline_runs
    two_point = runs["DF/SRS"].empirical_mse / runs["HT/SRS"].empirical_mse
    pool = generate(
        SuperpopSpec(
            family="beta_conditional",
            size=10_000,
            seed=31,
            params={"alpha": 1.0, "beta": 1.0},
        )
    )
    ht = run_mc(pool, design="srs", estimator="ht", n=100, reps=50_000, seed=611)
    df = run_mc(pool, design="srs", estimator="df", n=100, reps=50_000, seed=612)
    beta_ratio = df.empirical_mse / ht.empirical_mse
    ok = abs(two_point / 0.64 - 1.0) <= 0.05 and abs(beta_ratio / (2.0 / 3.0) - 1.0) <= 0.05
    _report(
        capfd,
        3,
        "DF/HT efficiency under SRS hits the conditional-variance share: "
        f"two-point 0.64 (got {two_point:.4f}), flat-beta 0.6667 "
        f"(got {beta_ratio:.4f}), both within 5%",
        ok,
    )


def test_criterion_4_variance_gap_identities(capfd):
    rng = np.random.default_rng(404)
    ok = True
    for _ in range(1000):
        z, _, part, n = pipeline_instance(rng)
        pop = z.size
        f = n / pop
        w = part.sizes / pop
        theta = float(np.mean(z))
        means = np.empty(part.n_strata)
        sds = np.empty(part.n_strata)
        for h in range(part.n_strata):
            v = z[part.assignment == h]
            means[h] = float(np.mean(v))
            sds[h] = float(np.std(v, ddof=1))
        tol = 2.0 / part.sizes.min()

        between = float(np.dot(w, (means - theta) ** 2))
        claim_gap = (1.0 - f) / n * between
        got_gap = mse_ht_srs(z, n) - mse_ht_prop(z, part, n)
        ok &= abs(got_gap - claim_gap) <= tol * abs(claim_gap) + 1e-15

        sd_bar = float(np.dot(w, sds))
        claim_ney = float(np.dot(w, (sds - sd_bar) ** 2)) / n
        got_ney = mse_ht_prop(z, part, n) - mse_ht_neyman(z, part, n)
        ok &= abs(got_ney - claim_ney) <= tol * abs(claim_ney) + 1e-15
    _report(
        capfd,
        4,
        "both variance-gap identities (stratification gain, Neyman gain) "
        "match the MSE differences on 1,000 random instances within "
        "2/min_h N_h relative error",
        ok,
    )


def test_criterion_5_solver_oracles(capfd):
    rng = np.random.default_rng(505)
    partition_ok = True
    for i in range(10_000):
        m = int(rng.integers(2, 13))
        v = rng.random(m) if i % 2 else np.round(rng.random(m), 1)
        h = int(rng.integers(1, min(4, np.unique(v).size) + 1))
        got = within_cluster_ss(v, kmeans_1d(v, h).assignment)
        partition_ok &= abs(got - best_interval_partition(v, h)) <= 1e-9

    monotone_ok = True
    for k in range(1, 9):
        x = np.arange(k, dtype=float)
        for bits in range(2**k):
            y = np.array([(bits >> j) & 1 for j in range(k)], dtype=float)
            want, _ = best_monotone_fit(y)
            got = fit_isotonic(x, y).apply(x)
            monotone_ok &= bool(np.allclose(got, want, atol=1e-9))
    _report(
        capfd,
        5,
        "1-D k-means matches exhaustive interval search on 10,000 instances "
        "(N ≤ 12, H ≤ 4) and the monotone fit matches exhaustive search on "
        "all 510 binary instances with ≤ 8 points",
        partition_ok and monotone_ok,
    )


def test_criterion_6_unbiasedness_and_coverage(two_point_pool, capfd):
    pop, part = two_point_pool
    cases = {
        "HT/SRS": dict(design="srs", estimator="ht"),
        "HT/SSRS-prop": dict(
            design="ssrs", estimator="ht", partition=part, allocation="prop"
        ),
        "HT/SSRS-Neyman": dict(
            design="ssrs", estimator="ht", partition=part, allocation="neyman"
        ),
        "DF/SRS": dict(design="srs", estimator="df"),
        "DF/SSRS-prop": dict(
            design="ssrs", estimator="df", partition=part, allocation="prop"
        ),
        "DF/SSRS-Neyman": dict(
            design="ssrs", estimator="df", partition=part, allocation="neyman"
        ),
    }
    worst_bias_z = 0.0
    coverages = []
    for i, kw in enumerate(cases.values()):
        r = run_mc(pop, n=200, reps=20_000, seed=760 + i, **kw)
        worst_bias_z = max(worst_bias_z, abs(r.bias) / r.bias_mc_se)
        coverages.append(r.coverage)
    ok = worst_bias_z <= 3.0 and all(0.94 <= c <= 0.96 for c in coverages)
    _report(
        capfd,
        6,
        "all six estimator/design pairs are unbiased (max |bias z| = "
        f"{worst_bias_z:.2f}) with 95% CI coverage in [0.94, 0.96] "
        f"(range {min(coverages):.4f}–{max(coverages):.4f}) at n=200",
        ok,
    )


def test_criterion_7_plugin_neyman_backfire_and_gain(tmp_path, capfd):
    backfire_dir = tmp_path / "backfire"
    code = cli.main(
        [
            "simulate",
            "--spec",
            str(CONFIG_DIR / "miscalibrated_backfire.json"),
            "--out",
            str(backfire_dir),
        ]
    )
    assert code == 0
    backfire = _efficiency(backfire_dir, "SSRS,o+HT")

    gain_dir = tmp_path / "gain"
    code = cli.main(
        [
            "simulate",
            "--spec",
            str(CONFIG_DIR / "calibrated_gain.json"),
            "--out",
            str(gain_dir),
        ]
    )
    assert code == 0
    gain = _efficiency(gain_dir, "SSRS,o+HT")

    ok = backfire > 1.0 and gain <= 0.8
    _report(
        capfd,
        7,
        "plug-in Neyman backfires under the documented miscalibrated proxy "
        f"(relative efficiency {backfire:.2f} > 1) and beats proportional by "
        f"≥ 20% under the calibrated one (relative efficiency {gain:.2f})",
        ok,
    )


def _efficiency(out_dir: Path, method: str) -> float:
    import json

    doc = json.loads((out_dir / "results.json").read_text())
    return float(doc["efficiency"][method])


def _snapshot(root: Path) -> dict:
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_criterion_8_cli_byte_reproducibility(tmp_path, capfd):
    pool = tmp_path / "pool.csv"
    lines = ["id,proxy,loss"]
    for i in range(60):
        lines.append(f"u{i:02d},{i / 59.0!r},{float((i * 7) % 13 < 5)!r}")
    pool.write_text("\n".join(lines) + "\n")

    cal_dir, plan_dir, est_dir, sim_dir = (
        tmp_path / d for d in ("cal", "plan", "est", "sim")
    )
    runs = {
        "calibrate": ["calibrate", "--input", str(pool), "--out", str(cal_dir)],
        "plan": [
            "plan",
            "--input",
            str(pool),
            "--out",
            str(plan_dir),
            "--budget",
            "12",
            "--strata",
            "3",
        ],
        "simulate": [
            "simulate",
            "--spec",
            str(CONFIG_DIR / "design_ordering.json"),
            "--out",
            str(sim_dir),
        ],
    }
    ok = True
    for argv in runs.values():
        assert cli.main(list(argv)) == 0
    # annotate the planned worksheet in full, then estimate from it
    loss_by_id = {
        line.split(",")[0]: line.split(",")[2]
        for line in pool.read_text().splitlines()[1:]
    }
    worksheet = plan_dir / "worksheet.csv"
    rows = [
        line
        for line in worksheet.read_text().splitlines()
        if not line.startswith("#")
    ]
    annotated = tmp_path / "annotated.csv"
    annotated.write_text(
        rows[0]
        + ",loss\n"
        + "".join(f"{r},{loss_by_id[r.split(',')[0]]}\n" for r in rows[1:])
    )
    est_argv = [
        "estimate",
        "--input",
        str(pool),
        "--worksheet",
        str(annotated),
        "--out",
        str(est_dir),
    ]
    assert cli.main(list(est_argv)) == 0
    runs["estimate"] = est_argv

    for name, argv in runs.items():
        out_dir = Path(argv[argv.index("--out") + 1])
        before = _snapshot(out_dir)
        assert cli.main(list(argv)) == 0
        ok &= _snapshot(out_dir) == before
    _report(
        capfd,
        8,
        "calibrate, plan, estimate and simulate are byte-reproducible "
        "across back-to-back runs with identical configs",
        ok,
    )
