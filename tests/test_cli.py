"""End-to-end CLI tests, run in process through ``main(argv)``.

Exit codes under test: 0 success, 2 parse, 3 precondition, 4 consistency
(argparse's own usage failures also exit 2, via SystemExit).
"""

import ast
import csv as csv_module
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from strateval import __version__, simulate, tables
from strateval.calibration import split_half
from strateval.cli import main
from strateval.dataset import ingest
from strateval.estimators import normal_quantile

ORDERING_SPEC = Path(__file__).resolve().parent.parent / "demos" / "configs" / "design_ordering.json"
BACKFIRE_SPEC = ORDERING_SPEC.with_name("miscalibrated_backfire.json")


def write_pool(path, ids, proxy, loss=None):
    rows = ["id,proxy,loss"]
    for i, uid in enumerate(ids):
        cell = "" if loss is None else repr(float(loss[i]))
        rows.append(f"{uid},{float(proxy[i])!r},{cell}")
    path.write_text("\n".join(rows) + "\n")


def grid_pool(path, n=20, loss="identity"):
    ids = [f"u{i:02d}" for i in range(n)]
    proxy = np.linspace(0.02, 0.98, n)
    vals = proxy if loss == "identity" else 1.0 - proxy
    write_pool(path, ids, proxy, vals)
    return ids, proxy, vals


def data_rows(path):
    """File lines minus the embedded config comment."""
    return [ln for ln in Path(path).read_text().splitlines() if not ln.startswith("#")]


def partition_of(path):
    """Each id's stratum in a ``partition.csv``, read by the csv module."""
    header, *rows = csv_module.reader(data_rows(path))
    assert header == ["id", "stratum"]
    return {uid: int(h) for uid, h in rows}


# -- calibrate -------------------------------------------------------------------


def test_calibrate_identity_like_map(tmp_path):
    src = tmp_path / "pool.csv"
    grid_pool(src, loss="identity")
    out = tmp_path / "cal"
    rc = main(
        ["calibrate", "--input", str(src), "--out", str(out), "--loss-kind", "squared_error"]
    )
    assert rc == 0
    doc = json.loads((out / "map.json").read_text())
    bp = np.array(doc["breakpoints"])
    vals = np.array(doc["values"])
    # loss == proxy and all proxies distinct: every block is its own average
    assert np.array_equal(bp, vals)
    assert doc["config"]["subcommand"] == "calibrate"
    ev = ingest(out / "calibrated.csv", "squared_error")
    assert ev.proxy_cal is not None
    idx = np.clip(np.searchsorted(bp, ev.proxy, side="right") - 1, 0, bp.size - 1)
    assert np.array_equal(ev.proxy_cal, vals[idx])


def test_calibrate_anti_monotone_collapses_to_grand_mean(tmp_path):
    src = tmp_path / "pool.csv"
    grid_pool(src, loss="anti")
    cal, _ = split_half(ingest(src, "squared_error"), 13)
    grand = float(cal.loss.mean())
    out = tmp_path / "cal"
    rc = main(
        ["calibrate", "--input", str(src), "--out", str(out), "--loss-kind", "squared_error"]
    )
    assert rc == 0
    ev = ingest(out / "calibrated.csv", "squared_error")
    assert np.allclose(ev.proxy_cal, grand, atol=1e-12)
    vals = json.loads((out / "map.json").read_text())["values"]
    assert len(set(vals)) == 1


def test_calibrate_rejects_unannotated_pool(tmp_path, capsys):
    src = tmp_path / "pool.csv"
    ids = [f"u{i}" for i in range(8)]
    write_pool(src, ids, np.linspace(0.1, 0.9, 8), loss=None)
    rc = main(["calibrate", "--input", str(src), "--out", str(tmp_path / "o")])
    assert rc == 4
    assert "without a loss" in capsys.readouterr().err


def test_calibrate_rerun_is_byte_identical(tmp_path):
    src = tmp_path / "pool.csv"
    grid_pool(src)
    out = tmp_path / "cal"
    argv = [
        "calibrate",
        "--input",
        str(src),
        "--out",
        str(out),
        "--loss-kind",
        "squared_error",
    ]
    assert main(argv) == 0
    first = {name: (out / name).read_bytes() for name in ("map.json", "calibrated.csv")}
    assert main(argv) == 0
    for name, blob in first.items():
        assert (out / name).read_bytes() == blob


# -- plan ------------------------------------------------------------------------


def test_plan_h1_prop_equals_srs(tmp_path):
    src = tmp_path / "pool.csv"
    ids = [f"p{i:02d}" for i in range(40)]
    write_pool(src, ids, np.linspace(0.0, 1.0, 40))
    srs_out, prop_out = tmp_path / "srs", tmp_path / "prop"
    assert (
        main(
            [
                "plan",
                "--input",
                str(src),
                "--out",
                str(srs_out),
                "--budget",
                "10",
                "--strategy",
                "srs",
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "plan",
                "--input",
                str(src),
                "--out",
                str(prop_out),
                "--budget",
                "10",
                "--strategy",
                "prop",
                "--strata",
                "1",
            ]
        )
        == 0
    )
    assert data_rows(srs_out / "worksheet.csv") == data_rows(prop_out / "worksheet.csv")
    assert data_rows(srs_out / "partition.csv") == data_rows(prop_out / "partition.csv")
    srs_plan = json.loads((srs_out / "plan.json").read_text())
    prop_plan = json.loads((prop_out / "plan.json").read_text())
    assert srs_plan["n_h"] == prop_plan["n_h"] == [10]
    assert (srs_plan["strategy"], prop_plan["strategy"]) == ("srs", "prop")


def test_plan_partition_round_trips_ids_with_commas_and_quotes(tmp_path):
    ids = ["a,b", 'say "hi"', "u2", "u3", "u4", "u5"]
    src = tmp_path / "pool.jsonl"
    src.write_text("".join(
        json.dumps({"id": uid, "proxy": i / 5}) + "\n" for i, uid in enumerate(ids)
    ))
    out = tmp_path / "plan"
    argv = ["plan", "--input", str(src), "--out", str(out), "--budget", "4", "--strata", "2"]
    assert main(argv) == 0
    assert partition_of(out / "partition.csv") == {uid: int(i >= 3) for i, uid in enumerate(ids)}
    # plain ids are written bare, as before
    assert data_rows(out / "partition.csv")[3:] == ["u2,0", "u3,1", "u4,1", "u5,1"]


def test_plan_defaults_to_ten_strata(tmp_path):
    src = tmp_path / "pool.csv"
    ids = [f"p{i:03d}" for i in range(200)]
    write_pool(src, ids, np.linspace(0.0, 1.0, 200))
    out = tmp_path / "plan"
    assert main(["plan", "--input", str(src), "--out", str(out), "--budget", "40"]) == 0
    strata = {int(row.split(",")[1]) for row in data_rows(out / "partition.csv")[1:]}
    assert strata == set(range(10))
    plan = json.loads((out / "plan.json").read_text())
    assert plan["config"]["strata"] == 10
    assert sum(plan["n_h"]) == 40
    ws = data_rows(out / "worksheet.csv")
    assert ws[0] == "id,stratum,pi"
    assert len(ws) == 41


def test_plan_pins_a_small_worksheet(tmp_path):
    # the worksheet of the splitmix-fy-v3 draw at the default sample seed:
    # a change to the stream fails here, and has to bump rng.SCHEME
    src = tmp_path / "pool.csv"
    src.write_text("id,proxy\n" + "".join(f"u{i},{i / 40}\n" for i in range(40)))
    out = tmp_path / "plan"
    assert main(["plan", "--input", str(src), "--budget", "8", "--strata", "2",
                 "--out", str(out)]) == 0
    ids = [row.split(",")[0] for row in data_rows(out / "worksheet.csv")[1:]]
    assert ids == ["u8", "u10", "u2", "u13", "u21", "u20", "u24", "u26"]


def test_plan_budget_out_of_range(tmp_path, capsys):
    src = tmp_path / "pool.csv"
    write_pool(src, [f"p{i}" for i in range(40)], np.linspace(0, 1, 40))
    rc = main(["plan", "--input", str(src), "--out", str(tmp_path / "o"), "--budget", "500"])
    assert rc == 3
    assert "precondition" in capsys.readouterr().err


def test_plan_budget_must_cover_strata(tmp_path):
    src = tmp_path / "pool.csv"
    write_pool(src, [f"p{i}" for i in range(40)], np.linspace(0, 1, 40))
    args = ["plan", "--input", str(src), "--out", str(tmp_path / "o"), "--strata", "4"]
    assert main(args + ["--budget", "6"]) == 3
    assert main(args + ["--budget", "8"]) == 0


def test_plan_neyman_from_accuracy_proxies(tmp_path):
    src = tmp_path / "pool.csv"
    write_pool(src, [f"p{i:02d}" for i in range(60)], np.linspace(0.05, 0.95, 60))
    out = tmp_path / "plan"
    rc = main(
        [
            "plan",
            "--input",
            str(src),
            "--out",
            str(out),
            "--budget",
            "30",
            "--strategy",
            "neyman",
            "--strata",
            "3",
        ]
    )
    assert rc == 0
    plan = json.loads((out / "plan.json").read_text())
    assert plan["strategy"] == "neyman"
    assert sum(plan["n_h"]) == 30
    assert min(plan["n_h"]) >= 2


def test_plan_neyman_with_all_zero_sds_records_every_warning_in_order(tmp_path):
    # proxies 0 and 1 only: the two middle bins are empty and merged, and a
    # 0/1 loss predicted with certainty has plug-in SD 0 in both strata left
    src = tmp_path / "pool.csv"
    write_pool(src, [f"p{i:03d}" for i in range(400)], np.arange(400) % 2)
    out = tmp_path / "plan"
    argv = ["plan", "--input", str(src), "--out", str(out), "--strategy", "neyman",
            "--stratify-on", "bins", "--strata", "4", "--budget", "40"]
    assert main(argv) == 0
    plan = json.loads((out / "plan.json").read_text())
    assert plan["warnings"] == [
        "2 empty bins merged rightward; 2 strata remain",
        "all stratum SDs are zero; fell back to proportional",
    ]
    assert plan["strategy"] == "neyman" and plan["n_h"] == [20, 20]


def test_plan_neyman_general_loss_needs_scores(tmp_path, capsys):
    src = tmp_path / "pool.csv"
    write_pool(src, [f"p{i}" for i in range(30)], np.linspace(0.05, 0.95, 30))
    rc = main(
        [
            "plan",
            "--input",
            str(src),
            "--out",
            str(tmp_path / "o"),
            "--budget",
            "10",
            "--strategy",
            "neyman",
            "--strata",
            "2",
            "--loss-kind",
            "squared_error",
        ]
    )
    assert rc == 3
    assert "--scores" in capsys.readouterr().err


def test_plan_neyman_general_loss_from_sidecar_scores(tmp_path, capsys):
    rng = np.random.default_rng(5)
    ids = [f"p{i:02d}" for i in range(30)]
    scores = rng.dirichlet(np.full(3, 0.5), size=30)
    src = tmp_path / "pool.csv"
    write_pool(src, ids, np.einsum("ik,ik->i", scores, (1.0 - scores) ** 2))
    side = tmp_path / "scores.jsonl"
    records = [json.dumps({"id": u, "scores": s.tolist()}) + "\n" for u, s in zip(ids, scores)]
    argv = ["plan", "--input", str(src), "--scores", str(side), "--out", str(tmp_path / "o"),
            "--budget", "12", "--strategy", "neyman", "--strata", "3",
            "--loss-kind", "squared_error"]
    side.write_text("".join(records))
    assert main(argv) == 0
    assert sum(json.loads((tmp_path / "o" / "plan.json").read_text())["n_h"]) == 12
    side.write_text("".join(records[:7] + records[8:]))
    assert main(argv) == 4
    assert "unit 'p07' has no class scores in the sidecar" in capsys.readouterr().err


def test_plan_stratifies_proxies_past_the_square_range(tmp_path):
    # cross-entropy proxies are only checked to be finite and >= 0
    src = tmp_path / "pool.csv"
    write_pool(src, list("abcdef"), [0.0, 0.5, 1.0, 1.5, 2.0, 1e200])
    out = tmp_path / "plan"
    argv = ["plan", "--input", str(src), "--out", str(out), "--loss-kind", "cross_entropy",
            "--strata", "2", "--budget", "4"]
    assert main(argv) == 0
    assert partition_of(out / "partition.csv") == {**dict.fromkeys("abcde", 0), "f": 1}


def test_plan_refuses_an_embedding_column(tmp_path, capsys):
    src = tmp_path / "pool.csv"
    src.write_text("id,proxy,emb_0\na,0.1,1.5\nb,0.9,-2.0\n")
    rc = main(["plan", "--input", str(src), "--out", str(tmp_path / "o"), "--budget", "2",
               "--strata", "1"])
    assert rc == 2
    assert f"{src} line 1: unknown column 'emb_0'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_plan_config_names_only_the_sampling_seed(tmp_path):
    src = tmp_path / "pool.csv"
    write_pool(src, [f"p{i:02d}" for i in range(20)], np.linspace(0.02, 0.98, 20))
    out = tmp_path / "plan"
    argv = ["plan", "--input", str(src), "--out", str(out), "--budget", "8", "--strata", "2",
            "--seed-sample", "11"]
    assert main(argv) == 0
    config = json.loads((out / "plan.json").read_text())["config"]
    assert config["seed_sample"] == 11
    assert [key for key in config if key.startswith("seed")] == ["seed_sample"]
    for name in ("partition.csv", "worksheet.csv"):
        comment = (out / name).read_text().splitlines()[0]
        assert comment.startswith("#") and "seed_sample" in comment
        assert "seed_strat" not in comment


@pytest.mark.parametrize("file,record,message", [
    ("pool", '{"id":"p05","proxy":0.1,"los":1}', "line 6: unknown field 'los'"),
    ("sidecar", '{"id":"p05","lable":1,"scores":[0.5,0.5]}', "line 6: unknown field 'lable'"),
])
def test_an_unknown_jsonl_field_exits_two(tmp_path, capsys, file, record, message):
    # before, the misspelt field was dropped and the unit read as unannotated or unlabelled
    ids = [f"p{i:02d}" for i in range(12)]
    src = tmp_path / "pool.jsonl"
    side = tmp_path / "scores.jsonl"
    pool = [json.dumps({"id": u, "proxy": 0.05 + 0.07 * i}) for i, u in enumerate(ids)]
    scores = [json.dumps({"id": u, "scores": [0.5, 0.5]}) for u in ids]
    (pool if file == "pool" else scores)[5] = record
    src.write_text("\n".join(pool) + "\n")
    side.write_text("\n".join(scores) + "\n")
    rc = main(["plan", "--input", str(src), "--scores", str(side), "--out", str(tmp_path / "o"),
               "--budget", "4", "--strata", "2"])
    assert rc == 2
    bad = src if file == "pool" else side
    assert f"{bad} {message}" in capsys.readouterr().err



# -- estimate --------------------------------------------------------------------


def fixture_pool(tmp_path):
    src = tmp_path / "pool.csv"
    ids = [f"u{i}" for i in range(10)]
    write_pool(src, ids, np.full(10, 0.5), loss=None)
    ws = tmp_path / "ws.csv"
    ws.write_text(
        "id,stratum,pi,loss\n"
        "u0,0,0.5,1\n"
        "u1,0,0.5,0\n"
        "u2,0,0.5,1\n"
        "u6,1,0.5,0\n"
        "u7,1,0.5,0\n"
    )
    return src, ws


def test_estimate_hand_fixture(tmp_path):
    src, ws = fixture_pool(tmp_path)
    out = tmp_path / "est"
    rc = main(
        ["estimate", "--input", str(src), "--worksheet", str(ws), "--out", str(out)]
    )
    assert rc == 0
    doc = json.loads((out / "report.json").read_text())
    ht = doc["ht"]
    # strata (6,4) of 10; means (2/3, 0); theta = 0.6*(2/3) = 0.4
    assert ht["theta"] == pytest.approx(0.4, abs=1e-12)
    # only stratum 0 varies: (0.6)^2 * (1-0.5) * (1/3) / 3 = 0.02
    assert ht["se"] == pytest.approx(np.sqrt(0.02), rel=1e-9)
    z = normal_quantile(0.975)
    assert ht["ci"][0] == pytest.approx(0.4 - z * np.sqrt(0.02), rel=1e-9)
    assert ht["ci"][1] == pytest.approx(0.4 + z * np.sqrt(0.02), rel=1e-9)
    assert ht["design"] == "ssrs"
    assert ht["n"] == 5 and ht["pop_size"] == 10
    # constant proxy 0.5: same point estimate and residual spread
    df = doc["df"]
    assert df["theta"] == pytest.approx(0.4, abs=1e-12)
    assert df["se"] == pytest.approx(np.sqrt(0.02), rel=1e-9)
    assert df["diagnostics"]["proxy_pool_mean"] == 0.5


def test_estimate_level_flag(tmp_path):
    src, ws = fixture_pool(tmp_path)
    out = tmp_path / "est"
    rc = main(
        [
            "estimate",
            "--input",
            str(src),
            "--worksheet",
            str(ws),
            "--out",
            str(out),
            "--level",
            "0.5",
        ]
    )
    assert rc == 0
    ht = json.loads((out / "report.json").read_text())["ht"]
    half = (ht["ci"][1] - ht["ci"][0]) / 2.0
    assert half == pytest.approx(normal_quantile(0.75) * ht["se"], rel=1e-9)


def test_estimate_census_is_exact(tmp_path):
    src = tmp_path / "pool.csv"
    ids = [f"u{i:02d}" for i in range(12)]
    loss = [1, 0, 0, 1, 1, 0, 0, 0, 1, 0, 1, 1]
    write_pool(src, ids, np.linspace(0.1, 0.9, 12), loss=None)
    ws = tmp_path / "ws.csv"
    ws.write_text(
        "id,stratum,pi,loss\n"
        + "".join(f"{uid},0,1.0,{val}\n" for uid, val in zip(ids, loss))
    )
    out = tmp_path / "est"
    assert (
        main(["estimate", "--input", str(src), "--worksheet", str(ws), "--out", str(out)])
        == 0
    )
    ht = json.loads((out / "report.json").read_text())["ht"]
    assert ht["theta"] == 0.5
    assert ht["se"] == 0.0
    assert ht["ci"] == [0.5, 0.5]
    assert ht["design"] == "srs"


def test_estimate_needs_the_proxy_column_it_names(tmp_path, capsys):
    # the difference estimate is always reported, so a pool without the
    # named proxy column is refused like `plan` refuses it
    src, ws = fixture_pool(tmp_path)
    out = tmp_path / "est"
    argv = ["estimate", "--input", str(src), "--worksheet", str(ws), "--out", str(out)]
    assert main([*argv, "--proxy-col", "proxy_cal"]) == 3
    assert "dataset has no proxy_cal column" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_estimate_partial_worksheet_lists_missing_ids(tmp_path, capsys):
    src, ws = fixture_pool(tmp_path)
    ws.write_text(ws.read_text().replace("u1,0,0.5,0", "u1,0,0.5,"))
    rc = main(
        ["estimate", "--input", str(src), "--worksheet", str(ws), "--out", str(tmp_path / "o")]
    )
    assert rc == 4
    assert "u1" in capsys.readouterr().err


def test_estimate_unknown_worksheet_id(tmp_path, capsys):
    # the error names the first unknown id in worksheet order
    src, ws = fixture_pool(tmp_path)
    ws.write_text(ws.read_text().replace("u1,0,0.5,0", "zz,0,0.5,0").replace("u7,1,0.5,0",
                                                                          "aa,1,0.5,0"))
    rc = main(
        ["estimate", "--input", str(src), "--worksheet", str(ws), "--out", str(tmp_path / "o")]
    )
    assert rc == 4
    assert "unknown unit id 'zz'" in capsys.readouterr().err


def test_estimate_design_must_cover_pool(tmp_path):
    src, ws = fixture_pool(tmp_path)
    # drop one stratum-1 row: 1/0.5 implies stratum size 2, total 8 != 10
    ws.write_text(ws.read_text().replace("u7,1,0.5,0\n", ""))
    rc = main(
        ["estimate", "--input", str(src), "--worksheet", str(ws), "--out", str(tmp_path / "o")]
    )
    assert rc == 4


@pytest.mark.parametrize("proxy,flags,allocation", [
    (np.append(np.linspace(0.0, 0.3, 299), 0.97), ["--stratify-on", "bins"], [31, 8, 1]),
    (np.append(np.linspace(0.1, 0.4, 199), 0.99), [], [13, 14, 12, 1]),
], ids=["bins", "kmeans"])
def test_an_outlier_stratum_of_one_unit_is_taken_whole(tmp_path, proxy, flags, allocation):
    # one outlying proxy gets a stratum of its own; plan takes its one unit,
    # and estimate accepts it with no variance term
    src = tmp_path / "pool.csv"
    ids = [f"u{i:03d}" for i in range(proxy.size)]
    loss = (np.random.default_rng(0).random(proxy.size) < proxy).astype(float)
    write_pool(src, ids, proxy, loss)
    plan = tmp_path / "plan"
    assert main(["plan", "--input", str(src), "--out", str(plan), "--strata", "4",
                 "--budget", "40", *flags]) == 0
    assert json.loads((plan / "plan.json").read_text())["n_h"] == allocation
    head, *rows = data_rows(plan / "worksheet.csv")
    by_id = dict(zip(ids, loss.tolist()))
    ws = tmp_path / "ws.csv"
    ws.write_text("\n".join([head + ",loss"] + [f"{r},{by_id[r.split(',')[0]]!r}" for r in rows]))
    out = tmp_path / "est"
    assert main(["estimate", "--input", str(src), "--worksheet", str(ws), "--out", str(out)]) == 0
    ht = json.loads((out / "report.json").read_text())["ht"]
    sizes = np.array(ht["diagnostics"]["stratum_sizes"])
    assert ht["diagnostics"]["stratum_n"] == allocation and sizes[-1] == 1
    strata = np.array([int(r.split(",")[1]) for r in rows])
    sampled = np.array([by_id[r.split(",")[0]] for r in rows])
    var = 0.0
    for h, (big_n, n) in enumerate(zip(sizes[:-1], allocation[:-1])):
        w = big_n / sizes.sum()
        var += w * w * (1 - n / big_n) * np.var(sampled[strata == h], ddof=1) / n
    assert ht["se"] == pytest.approx(np.sqrt(var), rel=1e-12)
    assert ht["theta"] == pytest.approx(
        sum(big_n * sampled[strata == h].mean() for h, big_n in enumerate(sizes)) / sizes.sum(),
        rel=1e-12)


def test_estimate_reads_a_worksheet_saved_with_a_bom_and_crlf(tmp_path):
    # a spreadsheet saves the annotated worksheet as UTF-8 with a byte-order
    # mark and CRLF line ends; before, its header lost column 'id' to the mark
    src = tmp_path / "pool.csv"
    ids, _, loss = grid_pool(src, n=40)
    plan = tmp_path / "plan"
    assert main(["plan", "--input", str(src), "--out", str(plan), "--budget", "12",
                 "--strata", "3", "--loss-kind", "squared_error"]) == 0
    head, *rows = data_rows(plan / "worksheet.csv")
    by_id = dict(zip(ids, loss.tolist()))
    text = "\n".join([head + ",loss"] + [f"{r},{by_id[r.split(',')[0]]!r}" for r in rows]) + "\n"
    plain, saved = tmp_path / "plain.csv", tmp_path / "saved.csv"
    plain.write_bytes(text.encode())
    saved.write_bytes(b"\xef\xbb\xbf" + text.replace("\n", "\r\n").encode())
    reports = []
    for ws in (plain, saved):
        out = tmp_path / ws.stem
        assert main(["estimate", "--input", str(src), "--worksheet", str(ws), "--out", str(out),
                     "--loss-kind", "squared_error"]) == 0
        reports.append(json.loads((out / "report.json").read_text()))
    plain_report, saved_report = reports
    for est in ("ht", "df"):
        assert saved_report[est]["theta"] == plain_report[est]["theta"]
        assert saved_report[est]["se"] == plain_report[est]["se"]


@pytest.mark.parametrize("file,text", [
    ("pool", "id,proxy,loss,proxy\na,0.1,1,0.9\nb,0.2,0,0.8\n"),
    ("worksheet", "id,stratum,pi,pi,loss\nu0,0,0.5,0.5,1\nu1,0,0.5,0.5,0\n"),
])
def test_a_repeated_column_exits_two(tmp_path, capsys, file, text):
    # before, the last of the repeated columns was read and the first ignored
    src, ws = fixture_pool(tmp_path)
    bad = src if file == "pool" else ws
    bad.write_text("# c\n" + text)
    rc = main(["estimate", "--input", str(src), "--worksheet", str(ws),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    column = "proxy" if file == "pool" else "pi"
    assert f"{bad} line 2: repeated column {column!r}" in capsys.readouterr().err


@pytest.mark.parametrize("bad_row,message", [
    (b"caf\xe9,0.5,", "line 3: not valid UTF-8 (byte 0xe9)"),
    (b"x" * 200_000 + b",0.5,", "line 3: field larger than field limit"),
], ids=["not-utf8", "long-field"])
def test_an_unreadable_pool_exits_two(tmp_path, capsys, bad_row, message):
    # before, both escaped as tracebacks with exit code 1
    src = tmp_path / "pool.csv"
    src.write_bytes(b"id,proxy,loss\na,0.1,\n" + bad_row + b"\nb,0.9,\n")
    rc = main(["plan", "--input", str(src), "--out", str(tmp_path / "o"), "--budget", "2",
               "--strata", "1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{src} {message}" in err
    assert "Traceback" not in err


# -- simulate --------------------------------------------------------------------


def test_simulate_bundled_ordering_spec(tmp_path):
    out = tmp_path / "sim"
    rc = main(["simulate", "--spec", str(ORDERING_SPEC), "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "results.json").read_text())
    assert doc["ordering_ok"] is True
    assert doc["baseline"] == "SRS+HT"
    assert doc["efficiency"]["SRS+HT"] == 1.0
    assert doc["efficiency"]["SSRS,o+HT"] <= doc["efficiency"]["SSRS,p+HT"] + 0.05
    header = [
        ln for ln in (out / "efficiency.csv").read_text().splitlines() if not ln.startswith("#")
    ][0]
    assert header == 'population,SRS+HT,SRS+DF,"SSRS,p+HT","SSRS,o+HT"'


def sim_spec(tmp_path, **overrides):
    doc = json.loads(ORDERING_SPEC.read_text())
    doc["population"]["size"] = 200
    doc["budget"] = 20
    doc["reps"] = 1000
    doc["methods"] = doc["methods"][:2]
    doc.pop("assert_ordering")
    doc["baseline"] = "SRS+HT"
    doc.update(overrides)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    return path


def test_simulate_reps_floor_and_warning(tmp_path, capsys):
    spec = sim_spec(tmp_path, reps=10)
    rc = main(["simulate", "--spec", str(spec), "--out", str(tmp_path / "a")])
    assert rc == 3
    assert "standard error" in capsys.readouterr().err
    spec = sim_spec(tmp_path, reps=200)
    rc = main(["simulate", "--spec", str(spec), "--out", str(tmp_path / "b")])
    assert rc == 0
    assert "warning" in capsys.readouterr().err
    spec = sim_spec(tmp_path, reps=1000)
    rc = main(["simulate", "--spec", str(spec), "--out", str(tmp_path / "c")])
    assert rc == 0
    assert "warning" not in capsys.readouterr().err


def test_simulate_unknown_family(tmp_path, capsys):
    spec = sim_spec(tmp_path)
    doc = json.loads(spec.read_text())
    doc["population"]["family"] = "gaussian"
    spec.write_text(json.dumps(doc))
    rc = main(["simulate", "--spec", str(spec), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "parse" in capsys.readouterr().err


def test_simulate_missing_spec_key(tmp_path):
    spec = sim_spec(tmp_path)
    doc = json.loads(spec.read_text())
    del doc["methods"]
    spec.write_text(json.dumps(doc))
    assert main(["simulate", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2


def test_simulate_spec_file_errors(tmp_path):
    assert (
        main(["simulate", "--spec", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")])
        == 2
    )
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["simulate", "--spec", str(bad), "--out", str(tmp_path / "o")]) == 2


def spec_with_latin1_byte(spec):
    text = json.dumps(json.loads(spec.read_text()), indent=2)
    spec.write_bytes(text.replace("SRS+DF", "SRS+DF \u00e9").encode("latin-1"))
    return text[: text.index("SRS+DF")].count("\n") + 1


@pytest.mark.parametrize("edit,message", [
    (spec_with_latin1_byte, "line {}: not valid UTF-8 (byte 0xe9)"),
    (lambda doc: doc.update(reps="many"), "'reps' must be a number, got \"many\""),
    (lambda doc: doc.update(budget=None), "'budget' must be a number, got null"),
    (lambda doc: doc.update(strata=[3]), "'strata' must be a number, got [3]"),
    (lambda doc: doc.update(level="high"), "'level' must be a number, got \"high\""),
    (lambda doc: doc["methods"].append("SRS+HT"),
     "each 'methods' entry must be an object, got \"SRS+HT\""),
    (lambda doc: doc.update(assert_ordering=["SRS+HT", "SSRS+HT"]),
     "'assert_ordering' names \"SSRS+HT\", not a method"),
    (lambda doc: doc["methods"].append(dict(doc["methods"][0])),
     "two methods are named 'SRS+HT'"),
    (lambda doc: doc.update(baseline="nope"), "'baseline' names \"nope\", not a method"),
    (lambda doc: doc["population"].update(params=3), "'params' must be an object, got 3"),
    (lambda doc: doc["methods"][-1].update(design="ssrs", alocation="neyman"),
     "method 'SRS+DF' has unknown key 'alocation'"),
    (lambda doc: doc.update(budget=100.9), "'budget' must be an integer, got 100.9"),
    (lambda doc: doc.update(strata=2.5), "'strata' must be an integer, got 2.5"),
    (lambda doc: doc.update(reps="300"), "'reps' must be a number, got \"300\""),
    (lambda doc: doc.update(reps=True), "'reps' must be a number, got true"),
    (lambda doc: doc.update(sim_seed=7.5), "'sim_seed' must be an integer, got 7.5"),
    (lambda doc: doc["population"].update(size=2000.7),
     "'population.size' must be an integer, got 2000.7"),
    (lambda doc: doc["population"].update(seed=False),
     "'population.seed' must be a number, got false"),
    (lambda doc: doc.update(population=[]), "'population' must be an object, got []"),
    (lambda doc: doc["population"]["params"].update(p_values=["0.5", "0.05"]),
     "'p_values' entries must be numbers, got '0.5'"),
    (lambda doc: doc["population"]["params"].update(weights=[True, False]),
     "'weights' entries must be numbers, got True"),
    # numpy's own rule, checked before numpy sees the weights: numpy's message was
    # "Probabilities do not sum to 1"
    (lambda doc: doc["population"]["params"].update(p_values=[0.03, 0.25, 0.55, 0.9],
                                                    weights=[0.4, 0.3, 0.2, 0.100001]),
     "weights must be nonnegative and sum to 1 within 1.49e-08; their sum is 1.000001"),
    (lambda doc: doc["population"].update(family="miscalibrated", params={
        **doc["population"]["params"], "slope": True, "offset": 0.0}),
     "'slope' must be a number, got True"),
    (lambda doc: doc["population"].update(family="beta_conditional",
                                          params={"alpha": True, "beta": 2.0}),
     "'alpha' must be a number, got True"),
    (lambda doc: doc["population"].update(family="beta_conditional",
                                          params={"alpha": "2", "beta": 2.0}),
     "'alpha' must be a number, got '2'"),
    (lambda doc: doc.update(sim_sede=5), "spec has unknown key 'sim_sede'"),
    (lambda doc: doc["population"].update(sede=5), "'population' has unknown key 'sede'"),
    (lambda doc: doc["population"]["params"].update(slope=2.0),
     "two_point params have unknown key 'slope'; expected p_values, weights"),
    (lambda doc: doc["population"].update(family="beta_conditional",
                                          params={"alpha": 2.0, "beta": 2.0, "offset": 0.1}),
     "beta_conditional params have unknown key 'offset'; expected alpha, beta"),
], ids=["not-utf8", "reps", "budget", "strata", "level", "method-not-object",
        "ordering-unknown-method", "duplicate-name", "baseline-unknown-method", "params",
        "misspelt-method-key", "fractional-budget", "fractional-strata", "string-reps",
        "bool-reps", "fractional-sim-seed", "fractional-population-size",
        "bool-population-seed", "population-not-object", "string-p-values", "bool-weights",
        "weights-sum", "bool-slope", "bool-alpha", "string-alpha", "misspelt-spec-key",
        "misspelt-population-key", "two-point-slope", "beta-offset"])
def test_a_bad_spec_exits_two_before_any_replication(tmp_path, capsys, monkeypatch, edit,
                                                      message):
    spec = sim_spec(tmp_path)
    if edit is spec_with_latin1_byte:
        message = message.format(edit(spec))
    else:
        doc = json.loads(spec.read_text())
        edit(doc)
        spec.write_text(json.dumps(doc))

    def no_replications(*args, **kwargs):
        raise AssertionError("a replication ran")

    monkeypatch.setattr(simulate, "stratified_indices", no_replications)
    assert main(["simulate", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"error (parse): {spec}" in err and message in err
    assert "Traceback" not in err


BAD_SETTINGS = [("design", "cluster"), ("estimator", "ratio"), ("allocation", "equal"),
                ("sd_source", "oracle")]
# a bad value is refused whether or not the method's design reads that setting
BASE_METHODS = {
    "": {"design": "ssrs", "estimator": "ht", "allocation": "neyman", "sd_source": "plugin"},
    "-on-prop": {"design": "ssrs", "estimator": "ht", "allocation": "prop"},
    "-on-srs": {"design": "srs", "estimator": "ht"},
}


@pytest.mark.parametrize("base,field,value", [
    pytest.param(base, field, value, id=f"{field}-{value}{suffix}")
    for suffix, base in BASE_METHODS.items() for field, value in BAD_SETTINGS
])
def test_a_bad_last_method_exits_three_before_any_replication(tmp_path, capsys, monkeypatch,
                                                               base, field, value):
    last = {"name": "last", **base, field: value}
    spec = sim_spec(tmp_path)
    doc = json.loads(spec.read_text())
    doc["methods"].append(last)
    spec.write_text(json.dumps(doc))

    def no_replications(*args, **kwargs):
        raise AssertionError("a replication ran")

    monkeypatch.setattr(simulate, "stratified_indices", no_replications)
    assert main(["simulate", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert f"error (precondition): unknown {field} {value!r}" in err
    assert "Traceback" not in err


def test_integral_floats_are_taken_as_integers(tmp_path):
    results = []
    for convert in (int, float):
        spec = sim_spec(tmp_path, reps=200, sim_seed=5)
        doc = json.loads(spec.read_text())
        pop = doc["population"]
        for owner, key in ((doc, "reps"), (doc, "budget"), (doc, "strata"), (doc, "sim_seed"),
                           (pop, "size"), (pop, "seed")):
            owner[key] = convert(owner[key])
        spec.write_text(json.dumps(doc))
        out = tmp_path / convert.__name__
        assert main(["simulate", "--spec", str(spec), "--out", str(out)]) == 0
        results.append(json.loads((out / "results.json").read_text())["results"])
    assert results[0] == results[1]


@pytest.mark.parametrize("level", [1.5, 0.0])
def test_a_bad_level_exits_three_before_any_replication(tmp_path, capsys, monkeypatch, level):
    def no_replications(*args, **kwargs):
        raise AssertionError("a replication ran")

    monkeypatch.setattr(simulate, "stratified_indices", no_replications)
    spec = sim_spec(tmp_path, level=level)
    assert main(["simulate", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert f"error (precondition): level must be in (0,1), got {level}\n" in err
    assert "Traceback" not in err


# -- cross-cutting ----------------------------------------------------------------


def test_missing_input_file_is_parse_error(tmp_path):
    rc = main(
        ["plan", "--input", str(tmp_path / "absent.csv"), "--out", str(tmp_path / "o"), "--budget", "5"]
    )
    assert rc == 2


def test_usage_errors_exit_two(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["plan", "--out", str(tmp_path / "o")])  # --input and --budget required
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


PLAN_ARGV = ["plan", "--input", "pool.csv", "--budget", "4"]


@pytest.mark.parametrize("argv,message", [
    ([*PLAN_ARGV, "--stratify-on", "embeddings"],
     "argument --stratify-on: invalid choice: 'embeddings'"),
    ([*PLAN_ARGV, "--seed-strat", "7"], "unrecognized arguments: --seed-strat 7"),
    (["simulate", "--spec", "spec.json", "--seed-sim", "5"],
     "unrecognized arguments: --seed-sim 5"),
], ids=["stratify-on-embeddings", "seed-strat", "seed-sim"])
def test_removed_options_exit_two(tmp_path, capsys, argv, message):
    # every stratum is an interval of one proxy column, so the embedding options are
    # gone; simulate's seed is the spec's sim_seed, so --seed-sim is gone
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["calibrate", "--input", "pool.csv", "--seed-split", "-1"],
        ["plan", "--input", "pool.csv", "--budget", "4", "--seed-sample", "-5"],
        ["plan", "--input", "pool.csv", "--budget", "4", "--seed-sample", str(-2**64)],
    ],
)
def test_negative_seed_flags_exit_two(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    flag = next(a for a in argv if a.startswith("--seed"))
    assert f"argument {flag}: seed must be a non-negative integer, got" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["population.seed", "sim_seed"])
def test_negative_spec_seeds_exit_two(tmp_path, capsys, field):
    doc = json.loads(ORDERING_SPEC.read_text())
    if field == "sim_seed":
        doc["sim_seed"] = -2
    else:
        doc["population"]["seed"] = -3
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    assert main(["simulate", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2
    assert f"{field} must be a non-negative integer, got" in capsys.readouterr().err


def child_env(**extra):
    """The environment of a ``python -m strateval`` child: this checkout's package, stdout
    buffered as it is by default (``PYTHONUNBUFFERED`` removed), plus ``extra``."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    return {**env, **extra}


# argv (files made under DIR), exit code, what stdout or stderr starts with, the output files
MODULE_RUNS = {
    "version": (["--version"], 0, "strateval ", []),
    "plan": (["plan", "--input", "DIR/pool.csv", "--loss-kind", "squared_error", "--budget", "12",
              "--strata", "3"], 0, "plan: 3 strata", ["partition.csv", "plan.json", "worksheet.csv"]),
    "parse": (["plan", "--input", "DIR/absent.csv", "--budget", "5"], 2, "error (parse): ", []),
    "precondition": (["plan", "--input", "DIR/pool.csv", "--loss-kind", "squared_error",
                      "--budget", "500"], 3, "error (precondition): budget 500 outside", []),
    "consistency": (["calibrate", "--input", "DIR/unlabeled.csv"], 4,
                    "error (consistency): calibration half has", []),
    "simulate": (["simulate", "--spec", str(ORDERING_SPEC)], 0, "simulate[SRS+HT]: ",
                 ["results.json"]),
}


@pytest.mark.parametrize("run", MODULE_RUNS)
@pytest.mark.parametrize("module", ["strateval", "strateval.cli"])
def test_runs_as_python_module(tmp_path, module, run):
    # the process leaves through os._exit: its output must be flushed and
    # its files whole, the same bytes as an in-process main() writes
    grid_pool(tmp_path / "pool.csv", n=30)
    write_pool(tmp_path / "unlabeled.csv", [f"u{i}" for i in range(8)], np.linspace(0.1, 0.9, 8))
    argv, code, head, files = MODULE_RUNS[run]
    argv = [a.replace("DIR", str(tmp_path)) for a in argv]
    if run != "version":
        argv += ["--out", str(tmp_path / "out")]
    done = subprocess.run([sys.executable, "-m", module, *argv], capture_output=True, text=True,
                          env=child_env(), cwd=tmp_path, timeout=120)
    assert done.returncode == code, done.stderr
    assert (done.stdout if code == 0 else done.stderr).startswith(head)
    assert "Traceback" not in done.stderr
    written = {f: (tmp_path / "out" / f).read_bytes() for f in files}
    if files:
        assert main(argv) == 0
        assert {f: (tmp_path / "out" / f).read_bytes() for f in files} == written


@pytest.mark.parametrize("unbuffered", [False, True])
def test_a_closed_stdout_exits_one_without_a_traceback(tmp_path, unbuffered):
    # before, a buffered stdout gave "Exception ignored ... BrokenPipeError"
    # and exit 120, an unbuffered one a BrokenPipeError traceback and exit 1
    grid_pool(tmp_path / "pool.csv", n=30)
    out = tmp_path / "out"
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "strateval", "plan", "--input", str(tmp_path / "pool.csv"),
             "--loss-kind", "squared_error", "--budget", "12", "--strata", "3", "--out", str(out)],
            stdout=write, stderr=subprocess.PIPE, text=True, cwd=tmp_path, timeout=120,
            env=child_env(**({"PYTHONUNBUFFERED": "1"} if unbuffered else {})))
    finally:
        os.close(write)
    assert done.returncode == 1
    assert done.stderr == ""
    assert sorted(p.name for p in out.iterdir()) == ["partition.csv", "plan.json", "worksheet.csv"]


# -- what each command imports ----------------------------------------------------

# runs main(argv) in a fresh interpreter and prints its exit code and the package
# modules loaded by then, and numpy.random if it was
CHILD_MAIN = """
import json, sys
from strateval import cli
code = cli.main(json.loads(sys.argv[1]))
print(json.dumps([code, sorted(m for m in sys.modules
                               if m.partition(".")[0] == "strateval" or m == "numpy.random")]))
"""
INGEST_MODULES = {"strateval", "strateval.cli", "strateval.errors", "strateval.losses",
                  "strateval.dataset", "strateval.tables", "strateval.idcolumn"}
# each command's argv (files made under DIR) and the package modules it loads: its step's only.
# Only a Beta pool loads numpy.random, for numpy's Beta sampler: every other bit the
# commands draw, two-point pools included, comes from strateval.rng's own PCG64
SIM_MODULES = INGEST_MODULES | {"strateval.stratify", "strateval.allocate", "strateval.estimators",
                                "strateval.sampling", "strateval.rng", "strateval.simulate"}
COMMAND_MODULES = {
    "calibrate": (["calibrate", "--input", "DIR/pool.csv"],
                  INGEST_MODULES | {"strateval.calibration", "strateval.rng"}),
    "plan": (["plan", "--input", "DIR/pool.csv", "--budget", "12", "--strata", "3", "--strategy",
              "neyman", "--seed-sample", "5"],
             INGEST_MODULES | {"strateval.stratify", "strateval.allocate", "strateval.estimators",
                               "strateval.sampling", "strateval.rng"}),
    "estimate": (["estimate", "--input", "DIR/fixture/pool.csv", "--worksheet", "DIR/fixture/ws.csv"],
                 INGEST_MODULES | {"strateval.sampling", "strateval.estimators"}),
    "simulate": (["simulate", "--spec", str(ORDERING_SPEC)], SIM_MODULES),
    "simulate-miscalibrated": (["simulate", "--spec", str(BACKFIRE_SPEC)], SIM_MODULES),
    "simulate-beta": (["simulate", "--spec", "DIR/beta.json"], SIM_MODULES | {"numpy.random"}),
}


def child_main(tmp_path, code, argv):
    """Run ``code`` in a fresh interpreter with ``argv`` (files under DIR) as its one argument."""
    write_pool(tmp_path / "pool.csv", [f"u{i}" for i in range(30)], np.linspace(0.02, 0.98, 30),
               np.arange(30) % 3 == 0)
    (tmp_path / "fixture").mkdir()
    fixture_pool(tmp_path / "fixture")
    beta = {**json.loads(ORDERING_SPEC.read_text()), "reps": 200}
    del beta["assert_ordering"]
    beta["population"] = {"family": "beta_conditional", "size": 500, "seed": 3,
                          "params": {"alpha": 2.0, "beta": 5.0}}
    (tmp_path / "beta.json").write_text(json.dumps(beta))
    argv = [a.replace("DIR", str(tmp_path)) for a in argv] + ["--out", str(tmp_path / "out")]
    done = subprocess.run([sys.executable, "-c", code, json.dumps(argv)], capture_output=True,
                          text=True, env=child_env(), cwd=tmp_path, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("command", COMMAND_MODULES)
def test_each_command_loads_only_its_steps_modules(tmp_path, command):
    # a command is a process of its own: a module its step does not run
    # costs it the module's compile and import on every run
    argv, modules = COMMAND_MODULES[command]
    code, loaded = child_main(tmp_path, CHILD_MAIN, argv)
    assert code == 0
    assert set(loaded) == modules


def test_rejected_draws_and_the_split_load_no_numpy_random(tmp_path):
    # spans just above 2**31 reject about half of all 32-bit words, as a
    # draw from a large pool now and then does: those streams, like the
    # split, are drawn from rng's own words
    code = """
import sys
import numpy as np
from strateval.calibration import split_half
from strateval.dataset import Population
from strateval.losses import LossKind
from strateval.rng import derive_seeds, fisher_yates
fisher_yates(derive_seeds(3, range(60)), [2**31 + 5, 3 * 2**30], [9, 6])
split_half(Population(ids=tuple(map(str, range(1000))), proxy=np.zeros(1000),
                      loss=np.zeros(1000), loss_kind=LossKind.ACCURACY), 13)
print("numpy.random" in sys.modules)
"""
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env(), cwd=tmp_path, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_a_name_set_on_the_cli_before_main_is_the_one_called(tmp_path):
    # perfbench's tracer reads names off strateval.cli, sets timing wrappers
    # in their place, then runs main(): the command must call the wrappers
    code = """
import json, sys
from strateval import cli, stratify
calls = []
def spy(name, fn):
    def wrapper(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)
    return wrapper
for name in ("cmd_plan", "ingest", "proportional", "draw_ssrs"):
    setattr(cli, name, spy(name, getattr(cli, name)))
cli.kmeans_1d = spy("kmeans_1d", stratify.kmeans_1d)  # set before it was ever read
print(json.dumps([cli.main(json.loads(sys.argv[1])), calls]))
"""
    argv = ["plan", "--input", "DIR/pool.csv", "--budget", "12", "--strata", "3"]
    assert child_main(tmp_path, code, argv) == [
        0, ["cmd_plan", "ingest", "kmeans_1d", "proportional", "draw_ssrs"]]


def test_each_command_binds_every_name_it_reads_on_first_use():
    # a name read only on an error path and left out of the command's _bind
    # call would fail with NameError there, in no other run
    from strateval import cli

    funcs = {n.name: n for n in ast.parse(Path(cli.__file__).read_text(encoding="utf-8")).body
             if isinstance(n, ast.FunctionDef)}

    def reads(name, seen):
        found = set()
        for node in ast.walk(funcs[name]):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                found.add(node.id)
                if node.id in funcs and node.id not in seen:
                    found |= reads(node.id, seen | {node.id})
        return found

    for name in [*(f for f in funcs if f.startswith("cmd_")), "_seed_flag"]:
        bound = {arg.value for node in ast.walk(funcs[name]) if isinstance(node, ast.Call)
                 and getattr(node.func, "id", None) == "_bind" for arg in node.args}
        assert reads(name, {name}) & set(cli._MODULE_OF) == bound, name


def test_an_unknown_cli_attribute_raises_attribute_error():
    from strateval import cli

    with pytest.raises(AttributeError, match="no_such_name"):
        cli.no_such_name  # noqa: B018


def test_every_subcommand_is_byte_reproducible(tmp_path):
    src = tmp_path / "pool.csv"
    ids, proxy, vals = grid_pool(src, n=30)
    ws = tmp_path / "ws.csv"
    plan_first = tmp_path / "plan0"
    assert (
        main(
            [
                "plan",
                "--input",
                str(src),
                "--out",
                str(plan_first),
                "--budget",
                "12",
                "--strata",
                "3",
                "--loss-kind",
                "squared_error",
            ]
        )
        == 0
    )
    # annotate the drawn worksheet from the known losses
    lookup = dict(zip(ids, vals))
    rows = data_rows(plan_first / "worksheet.csv")
    ws.write_text(
        rows[0]
        + ",loss\n"
        + "".join(f"{r},{float(lookup[r.split(',')[0]])!r}\n" for r in rows[1:])
    )
    spec = sim_spec(tmp_path)

    outputs = {
        "calibrate": (
            ["calibrate", "--input", str(src), "--loss-kind", "squared_error"],
            ["map.json", "calibrated.csv"],
        ),
        "plan": (
            [
                "plan",
                "--input",
                str(src),
                "--budget",
                "12",
                "--strata",
                "3",
                "--loss-kind",
                "squared_error",
            ],
            ["partition.csv", "plan.json", "worksheet.csv"],
        ),
        "estimate": (
            [
                "estimate",
                "--input",
                str(src),
                "--worksheet",
                str(ws),
                "--loss-kind",
                "squared_error",
            ],
            ["report.json"],
        ),
        "simulate": (["simulate", "--spec", str(spec)], ["results.json", "efficiency.csv"]),
    }
    for name, (argv, files) in outputs.items():
        out = tmp_path / f"{name}_out"
        full = argv + ["--out", str(out)]
        assert main(full) == 0, name
        first = {f: (out / f).read_bytes() for f in files}
        assert main(full) == 0, name
        for f in files:
            assert (out / f).read_bytes() == first[f], (name, f)


def _calibrate_plan_estimate(tmp_path, src):
    """Run calibrate, plan on its calibrated.csv and estimate, annotating the
    worksheet from the pool; every output file's bytes, by name."""
    cal, plan, est = tmp_path / "cal", tmp_path / "plan", tmp_path / "est"
    assert main(["calibrate", "--input", str(src), "--out", str(cal)]) == 0
    calibrated = cal / "calibrated.csv"
    assert main(["plan", "--input", str(calibrated), "--proxy-col", "proxy_cal", "--strata", "4",
                 "--budget", "40", "--strategy", "neyman", "--out", str(plan)]) == 0
    pool = ingest(calibrated, "accuracy")
    loss = dict(zip(pool.ids, pool.loss.tolist()))
    rows = data_rows(plan / "worksheet.csv")
    ws = tmp_path / "ws.csv"
    ws.write_text(rows[0] + ",loss\r\n" + "".join(
        f"{r},{loss[_worksheet_id(r)]!r}\r\n" for r in rows[1:]))
    assert main(["estimate", "--input", str(calibrated), "--proxy-col", "proxy_cal",
                 "--worksheet", str(ws), "--out", str(est)]) == 0
    return {f"{d.name}/{p.name}": p.read_bytes() for d in (cal, plan, est) for p in d.iterdir()}


def _worksheet_id(row):
    """The id cell of a worksheet row, which plan quotes when it holds a comma or a quote."""
    return next(iter(csv_module.reader([row])))[0]


def test_outputs_do_not_depend_on_the_csv_batches(tmp_path, monkeypatch):
    # a pool with quoted ids, comments and blank lines, read and written
    # whole (one batch) and in batches of a few lines and rows
    rng = np.random.default_rng(3)
    lines = ["\ufeff# pool", "id,proxy,loss"]
    for i in range(400):
        uid = f'"u,{i}"' if i % 37 == 0 else f'"say ""{i}"""' if i % 53 == 0 else f"u{i}"
        p = float(rng.random())
        lines += [f"{uid},{p!r},{float(rng.random() < p)!r}"] + ["# c", ""] * (i % 41 == 0)
    src = tmp_path / "pool.csv"
    src.write_text("\n".join(lines) + "\n", encoding="utf-8")
    whole = _calibrate_plan_estimate(tmp_path, src)
    assert len(whole) == 6
    monkeypatch.setattr(tables, "_CSV_BATCH_BYTES", 97)
    monkeypatch.setattr(tables, "_CSV_WRITE_ROWS", 3)
    assert _calibrate_plan_estimate(tmp_path, src) == whole


def test_every_csv_a_command_writes_is_its_config_line_then_what_csv_writer_writes(tmp_path):
    # every id holds a comma and every other method name too, so each file quotes cells
    src = tmp_path / "pool.csv"
    src.write_text("id,proxy,loss\n"
                   + "".join(f'"u,{i}",{i % 10 / 10},{i % 2}\n' for i in range(60)))
    methods = json.loads(ORDERING_SPEC.read_text())["methods"]
    spec = sim_spec(tmp_path, methods=methods, reps=100)
    runs = {
        "calibrate": (["calibrate", "--input", str(src)], "map.json", ["calibrated.csv"]),
        "plan": (["plan", "--input", str(src), "--budget", "12", "--strata", "3"], "plan.json",
                 ["partition.csv", "worksheet.csv"]),
        "simulate": (["simulate", "--spec", str(spec)], "results.json", ["efficiency.csv"]),
    }
    for name, (argv, json_file, csv_files) in runs.items():
        out = tmp_path / name
        assert main([*argv, "--out", str(out)]) == 0, name
        config = json.loads((out / json_file).read_text())["config"]
        for csv_file in csv_files:
            text = (out / csv_file).read_bytes().decode("utf-8")
            first, rest = text.split("\n", 1)
            prefix = f"# strateval {__version__} config="
            assert first.startswith(prefix), csv_file
            assert json.loads(first[len(prefix):]) == config, csv_file
            rows = list(csv_module.reader(io.StringIO(rest, newline="")))
            assert len(rows) > 1 and '"' in rest, csv_file
            assert not any(row[0].startswith("#") for row in rows), csv_file
            buf = io.StringIO()
            csv_module.writer(buf, lineterminator="\n").writerows(rows)
            assert rest == buf.getvalue(), csv_file
    # efficiency.csv holds the efficiencies of results.json under the population's family
    header, row = csv_module.reader(data_rows(tmp_path / "simulate" / "efficiency.csv"))
    assert header == ["population", *(m["name"] for m in methods)]
    assert row[0] == "two_point"
    doc = json.loads((tmp_path / "simulate" / "results.json").read_text())
    assert dict(zip(header[1:], map(float, row[1:]))) == doc["efficiency"]
