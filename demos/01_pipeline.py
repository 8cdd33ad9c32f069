"""End-to-end walkthrough: calibrate, plan, annotate, estimate.

Builds a synthetic pool whose proxy scores are systematically distorted,
then drives the four CLI stages the way a real evaluation would:

1. ``calibrate``  fit an isotonic remapping on a held-out split
2. ``plan``       stratify on the calibrated proxy and draw a worksheet
3. (annotate)     fill in the worksheet losses -- here we just look them
                  up, standing in for the labeling vendor
4. ``estimate``   turn the completed worksheet into a point estimate + CI

Run:  python3 demos/01_pipeline.py --out demo_out/pipeline
"""

import argparse
import json
from pathlib import Path

import numpy as np

from strateval.cli import main as strateval
from strateval.simulate import SuperpopSpec, generate
from strateval.tables import write_csv


def build_pool(path: Path) -> float:
    """Write a fully labeled pool CSV; returns its true mean loss."""
    spec = SuperpopSpec(
        family="miscalibrated",
        size=1200,
        seed=2024,
        params={
            "p_values": [0.05, 0.2, 0.5, 0.8, 0.95],
            "weights": [0.3, 0.25, 0.2, 0.15, 0.1],
            "slope": 0.5,
            "offset": 0.45,
        },
    )
    pop = generate(spec)
    write_csv(path, "", *pop.canonical_table())
    return float(np.mean(pop.loss))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="demo_out/pipeline", help="output directory")
    args = ap.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    pool_csv = out / "pool.csv"
    truth = build_pool(pool_csv)
    print(f"[0] synthetic pool: {pool_csv}  (true mean loss {truth:.4f})")

    print("[1] calibrate: isotonic fit on a random half of the pool")
    strateval(
        ["calibrate", "--input", str(pool_csv), "--out", str(out / "cal")]
    )

    print("[2] plan: 4 strata on the calibrated proxy, Neyman allocation, 120 labels")
    strateval(
        [
            "plan",
            "--input",
            str(out / "cal" / "calibrated.csv"),
            "--proxy-col",
            "proxy_cal",
            "--strata",
            "4",
            "--strategy",
            "neyman",
            "--budget",
            "120",
            "--out",
            str(out / "plan"),
        ]
    )

    print("[3] annotate: fill the worksheet from the pool (vendor stand-in)")
    loss_by_id = {}
    for line in pool_csv.read_text().splitlines()[1:]:
        cells = line.split(",")
        loss_by_id[cells[0]] = cells[-1]
    worksheet = out / "plan" / "worksheet.csv"
    annotated = out / "annotated.csv"
    rows = [r for r in worksheet.read_text().splitlines() if not r.startswith("#")]
    annotated.write_text(
        rows[0] + ",loss\n"
        + "".join(f"{r},{loss_by_id[r.split(',')[0]]}\n" for r in rows[1:])
    )

    print("[4] estimate: stratified estimate from the 120 annotated rows")
    strateval(
        [
            "estimate",
            "--input",
            str(out / "cal" / "calibrated.csv"),
            "--proxy-col",
            "proxy_cal",
            "--worksheet",
            str(annotated),
            "--out",
            str(out / "est"),
        ]
    )

    report = json.loads((out / "est" / "report.json").read_text())
    ht = report["ht"]
    lo, hi = ht["ci"]
    print(
        f"\nresult: theta = {ht['theta']:.4f}  "
        f"(95% CI {lo:.4f}..{hi:.4f}, n={ht['n']})  vs truth {truth:.4f}"
    )
    covered = lo <= truth <= hi
    print(f"the interval {'covers' if covered else 'misses'} the true pool mean")


if __name__ == "__main__":
    main()
