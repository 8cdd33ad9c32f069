"""End-to-end CLI tests, run in process through ``main(argv)``.

Exit codes under test: 0 success, 2 parse, 3 precondition, 4 consistency
(argparse's own usage failures also exit 2, via SystemExit).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from strateval import simulate
from strateval.calibration import split_half
from strateval.cli import main
from strateval.dataset import ingest
from strateval.estimators import normal_quantile
from strateval.stratify import load_partition_csv

ORDERING_SPEC = Path(__file__).resolve().parent.parent / "demos" / "configs" / "design_ordering.json"


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


def test_plan_partition_round_trips_ids_with_commas_and_quotes(tmp_path):
    ids = ["a,b", 'say "hi"', "u2", "u3", "u4", "u5"]
    src = tmp_path / "pool.jsonl"
    src.write_text("".join(
        json.dumps({"id": uid, "proxy": i / 5}) + "\n" for i, uid in enumerate(ids)
    ))
    out = tmp_path / "plan"
    argv = ["plan", "--input", str(src), "--out", str(out), "--budget", "4", "--strata", "2"]
    assert main(argv) == 0
    assert load_partition_csv(out / "partition.csv") == {
        uid: int(i >= 3) for i, uid in enumerate(ids)
    }
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
    assert load_partition_csv(out / "partition.csv") == {**dict.fromkeys("abcde", 0), "f": 1}


def test_plan_embeddings_require_columns(tmp_path):
    src = tmp_path / "pool.csv"
    write_pool(src, [f"p{i}" for i in range(30)], np.linspace(0, 1, 30))
    rc = main(
        [
            "plan",
            "--input",
            str(src),
            "--out",
            str(tmp_path / "o"),
            "--budget",
            "10",
            "--strata",
            "2",
            "--stratify-on",
            "embeddings",
        ]
    )
    assert rc == 3


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


def test_estimate_unknown_worksheet_id(tmp_path):
    src, ws = fixture_pool(tmp_path)
    ws.write_text(ws.read_text().replace("u7,1,0.5,0", "zz,1,0.5,0"))
    rc = main(
        ["estimate", "--input", str(src), "--worksheet", str(ws), "--out", str(tmp_path / "o")]
    )
    assert rc == 4


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
], ids=["not-utf8", "reps", "budget", "strata", "level", "method-not-object",
        "ordering-unknown-method", "duplicate-name", "baseline-unknown-method", "params"])
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


@pytest.mark.parametrize("field,value", [
    ("design", "cluster"), ("estimator", "ratio"), ("allocation", "equal"), ("sd_source", "oracle"),
])
def test_a_bad_last_method_exits_three_before_any_replication(tmp_path, capsys, monkeypatch,
                                                               field, value):
    last = {"name": "last", "design": "ssrs", "estimator": "ht", "allocation": "neyman",
            "sd_source": "plugin", field: value}
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


@pytest.mark.parametrize(
    "argv",
    [
        ["calibrate", "--input", "pool.csv", "--seed-split", "-1"],
        ["plan", "--input", "pool.csv", "--budget", "4", "--seed-sample", "-5"],
        ["plan", "--input", "pool.csv", "--budget", "4", "--seed-strat", "-2"],
        ["simulate", "--spec", "spec.json", "--seed-sim", "-1"],
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


def test_runs_as_python_module(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-m", "strateval", "--version"],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60,
    )
    assert done.returncode == 0
    assert done.stdout.startswith("strateval ")


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
