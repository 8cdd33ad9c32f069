"""The benchmark's correctness checks accept the program's real outputs and
reject deliberately corrupted ones.

Run with ``python3 -m pytest perfbench/tests``.  Each test runs the CLI
in-process on a small pool made by the benchmark's own generator.
"""

import copy
import json

import numpy as np
import pytest

import checks
import inputs
import run
from checks import CheckFailed
from strateval.cli import main as cli

STRATA = 5


def plan(tmp_path, pool_file, *extra, budget=200):
    out = tmp_path / "plan"
    assert cli(["plan", "--input", str(pool_file), "--strategy", "neyman", "--strata",
                str(STRATA), "--budget", str(budget), "--out", str(out), *extra]) == 0
    part = checks.read_partition(out / "partition.csv")
    n_h = np.array(json.loads((out / "plan.json").read_text())["n_h"])
    return out, part, n_h


@pytest.fixture(scope="module")
def fine(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fine")
    pool = inputs.write_fine(3, tmp, n=3000)
    out, part, n_h = plan(tmp, tmp / "pool.csv")
    return tmp, pool, out, part, n_h


def test_kmeans_partition_accepted_and_moved_labels_rejected(fine):
    _, pool, _, part, _ = fine
    checks.check_covers(pool.ids, part)
    checks.check_kmeans(pool.proxy, part.labels, STRATA)

    inside = part.labels.copy()  # an interior unit of stratum 1 moved to stratum 2
    members = np.flatnonzero(inside == 1)
    inside[members[np.argsort(pool.proxy[members])[members.size // 2]]] = 2
    with pytest.raises(CheckFailed, match="increasing intervals"):
        checks.check_kmeans(pool.proxy, inside, STRATA)

    edge = part.labels.copy()  # the boundary moved by one value: still intervals
    members = np.flatnonzero(edge == 1)
    edge[members[np.argmax(pool.proxy[members])]] = 2
    with pytest.raises(CheckFailed, match="lowers the SSE"):
        checks.check_kmeans(pool.proxy, edge, STRATA)


def test_worksheet_rejects_wrong_pi_and_moved_stratum(fine):
    _, pool, out, part, n_h = fine
    ws = checks.read_worksheet(out / "worksheet.csv")
    checks.check_worksheet(ws, part, n_h)

    bad_pi = copy.deepcopy(ws)
    bad_pi.pi[3] *= 1.01
    with pytest.raises(CheckFailed, match="pi="):
        checks.check_worksheet(bad_pi, part, n_h)

    moved = copy.deepcopy(part)
    row = part.ids.index(ws.ids[0])
    moved.labels[row] = (moved.labels[row] + 1) % STRATA
    with pytest.raises(CheckFailed, match="partition in"):
        checks.check_worksheet(ws, moved, n_h)


def test_allocation_rejects_a_shifted_split(fine):
    _, pool, _, part, n_h = fine
    sizes = np.bincount(part.labels)
    sds = checks.plugin_sds_accuracy(pool.proxy, part.labels, STRATA)
    checks.check_allocation(n_h, sizes, sds, 200)
    shifted = n_h.copy()
    shifted[np.argmax(n_h)] -= 3
    shifted[np.argmin(n_h)] += 3
    with pytest.raises(CheckFailed, match="Neyman target"):
        checks.check_allocation(shifted, sizes, sds, 200)
    with pytest.raises(CheckFailed, match="budget"):
        checks.check_allocation(n_h + 1, sizes, sds, 200)


def test_estimate_rejects_theta_shifted_by_one_se(fine):
    tmp, pool, out, _, _ = fine
    est_pool = run.EstimationPool(pool.ids, pool.proxy, pool.loss, pool.proxy)
    index = est_pool.index
    annotated = tmp / "annotated.csv"
    run.annotate(out / "worksheet.csv", annotated, est_pool)
    est = tmp / "est"
    assert cli(["estimate", "--input", str(tmp / "pool.csv"), "--worksheet", str(annotated),
                "--out", str(est)]) == 0
    report = json.loads((est / "report.json").read_text())
    ws = checks.read_worksheet(annotated)
    checks.check_estimate(report, ws, pool.loss, pool.proxy, index)
    for name in ("ht", "df"):
        bad = copy.deepcopy(report)
        bad[name]["theta"] += bad[name]["se"]
        with pytest.raises(CheckFailed, match=f"{name}: theta"):
            checks.check_estimate(bad, ws, pool.loss, pool.proxy, index)
    far = copy.deepcopy(report)  # a consistent report, but far from the truth
    far["ht"]["se"] /= 10
    with pytest.raises(CheckFailed):
        checks.check_estimate(far, ws, pool.loss, pool.proxy, index)


def test_bins_reject_a_relabelled_unit(tmp_path):
    pool = inputs.write_sidecar(4, tmp_path, n=2000)
    _, part, n_h = plan(tmp_path, tmp_path / "pool.jsonl", "--loss-kind", "squared_error",
                        "--scores", str(tmp_path / "scores.jsonl"), "--stratify-on", "bins")
    checks.check_bins(pool.proxy, part.labels, STRATA)
    sds = checks.plugin_sds_brier(pool.scores, part.labels, int(part.labels.max()) + 1)
    checks.check_allocation(n_h, np.bincount(part.labels), sds, 200)
    bad = part.labels.copy()
    bad[10] = (bad[10] + 1) % (bad.max() + 1)
    with pytest.raises(CheckFailed, match="wrong bin"):
        checks.check_bins(pool.proxy, bad, STRATA)


def test_calibration_rejects_a_non_monotone_map(tmp_path):
    pool = inputs.write_calibrated(5, tmp_path, n=4000)
    out = tmp_path / "cal"
    assert cli(["calibrate", "--input", str(tmp_path / "pool.csv"), "--out", str(out)]) == 0
    doc = json.loads((out / "map.json").read_text())
    cal = checks.read_calibrated(out / "calibrated.csv")
    checks.check_calibration(doc, pool.ids, pool.proxy, pool.loss, cal)
    assert len(doc["values"]) > 2
    bad = copy.deepcopy(doc)
    bad["values"][0], bad["values"][-1] = bad["values"][-1], bad["values"][0]
    with pytest.raises(CheckFailed, match="not monotone"):
        checks.check_calibration(bad, pool.ids, pool.proxy, pool.loss, cal)
    shifted = copy.deepcopy(doc)  # monotone, but not the least-squares fit
    shifted["values"] = [v + 1e-3 for v in doc["values"]]
    with pytest.raises(CheckFailed):
        checks.check_calibration(shifted, pool.ids, pool.proxy, pool.loss, cal)
    wrong_cal = dict(cal, proxy_cal=cal["proxy_cal"][::-1].copy())
    with pytest.raises(CheckFailed, match="proxy_cal"):
        checks.check_calibration(doc, pool.ids, pool.proxy, pool.loss, wrong_cal)


def test_simulation_rejects_mse_off_by_ten_mc_se(tmp_path):
    spec = inputs.mc_spec(6)
    spec["reps"] = 2000
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    out = tmp_path / "sim"
    assert cli(["simulate", "--spec", str(tmp_path / "spec.json"), "--out", str(out)]) == 0
    results = json.loads((out / "results.json").read_text())["results"]
    pool = inputs.mc_pool(spec["population"]["seed"])
    checks.check_simulation(results, spec, pool.proxy, pool.loss)
    for name in results:
        for sign in (1, -1):
            bad = copy.deepcopy(results)
            bad[name]["empirical_mse"] += sign * 10 * bad[name]["mse_mc_se"]
            with pytest.raises(CheckFailed, match="MC SEs from the exact"):
                checks.check_simulation(bad, spec, pool.proxy, pool.loss)
    biased = copy.deepcopy(results)
    biased["SRS+HT"]["bias"] = 10 * biased["SRS+HT"]["bias_mc_se"]
    with pytest.raises(CheckFailed, match="bias"):
        checks.check_simulation(biased, spec, pool.proxy, pool.loss)
