"""Benchmark of the ``strateval`` CLI on four seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload, one after another

Run from anywhere; the program under test is ``src/strateval`` of the
checkout that holds this file.  Each workload generates its inputs from
``--seed`` with the benchmark's own numpy code, then runs the CLI the way
a user would: one subprocess per subcommand, one at a time.  Whole rounds
of the workload's subcommands repeat until their summed wall time reaches
``--seconds``; times are scaled by a fixed reference job run between
rounds, to take out the host's changing speed.  The first round's outputs
are checked against the benchmark's own computations; later rounds must
reproduce them byte for byte.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  An operation is one subcommand
invocation; it fails if it exits non-zero or its outputs fail a check.
With ``--trace 0`` the metrics are the end-to-end ones (``setup_s``,
``pipeline_s``, ``peak_rss_mb``); with ``--trace 1`` a separate traced
run reports the per-layer ones (see README.md).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import inputs
import tracer
from checks import CheckFailed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench-runs"
COMMAND_TIMEOUT_S = 170.0
SETUP_MIN_REPEATS = 3
REFERENCE_PROBE_S = 0.25  # probe.py's wall time at the reference host speed
STARTUP_REPEATS = 3

FINE_BUDGET = 500
SIDECAR_BUDGET = 500
STRATA = 10


@dataclass
class Step:
    """One subcommand invocation of a round."""

    command: str
    argv: list[str]
    out: Path
    check: Callable[[], None]
    prepare: Callable[[], None] | None = None  # untimed benchmark work before the command


@dataclass
class Workload:
    name: str
    why: str
    setup: Callable[[int, Path], object]
    steps: Callable[[int, Path, object], list[Step]]


# -- shared plan -> annotate -> estimate flow -------------------------------------------


@dataclass
class EstimationPool:
    """The pool ``plan`` and ``estimate`` see, as the benchmark knows it."""

    ids: list[str]
    strat_values: np.ndarray  # the column the partition is built on
    loss: np.ndarray
    proxy: np.ndarray  # the column the DF estimate uses
    scores: np.ndarray | None = None
    index: dict = field(init=False)  # id -> row

    def __post_init__(self):
        self.index = {u: i for i, u in enumerate(self.ids)}


def annotate(worksheet: Path, target: Path, pool: EstimationPool) -> None:
    """The annotation vendor: append each sampled id's loss from the pool."""
    lines = worksheet.read_text().splitlines()
    out = []
    header_seen = False
    for line in lines:
        if line.startswith("#"):
            out.append(line)
        elif not header_seen:
            out.append(line + ",loss")
            header_seen = True
        else:
            uid = line.split(",", 1)[0]
            out.append(f"{line},{float(pool.loss[pool.index[uid]])!r}")
    target.write_text("\n".join(out) + "\n")


def plan_estimate_steps(d: Path, get_pool: Callable[[], EstimationPool], *, input_file: Path,
                        plan_args: list[str], est_args: list[str], budget: int,
                        stratify: str, sds: Callable[[EstimationPool, np.ndarray, int], np.ndarray],
                        ) -> list[Step]:
    plan_out, est_out = d / "plan", d / "estimate"
    annotated = d / "annotated.csv"

    def check_plan() -> None:
        pool = get_pool()
        part = checks.read_partition(plan_out / "partition.csv")
        checks.check_covers(pool.ids, part)
        n_strata = int(part.labels.max()) + 1
        if stratify == "kmeans":
            checks.check_kmeans(pool.strat_values, part.labels, STRATA)
        else:
            checks.check_bins(pool.strat_values, part.labels, STRATA)
        n_h = np.asarray(checks.load_json(plan_out / "plan.json")["n_h"], dtype=np.int64)
        sizes = np.bincount(part.labels, minlength=n_strata)
        checks.check_allocation(n_h, sizes, sds(pool, part.labels, n_strata), budget)
        checks.check_worksheet(checks.read_worksheet(plan_out / "worksheet.csv"), part, n_h)

    def check_estimate() -> None:
        pool = get_pool()
        report = checks.load_json(est_out / "report.json")
        ws = checks.read_worksheet(annotated)
        checks.check_estimate(report, ws, pool.loss, pool.proxy, pool.index)

    return [
        Step("plan", ["plan", "--input", str(input_file), *plan_args, "--strategy", "neyman",
                      "--strata", str(STRATA), "--budget", str(budget), "--out", str(plan_out)],
             plan_out, check_plan),
        Step("estimate", ["estimate", "--input", str(input_file), *est_args,
                          "--worksheet", str(annotated), "--out", str(est_out)],
             est_out, check_estimate,
             prepare=lambda: annotate(plan_out / "worksheet.csv", annotated, get_pool())),
    ]


def _accuracy_sds(pool: EstimationPool, labels: np.ndarray, n_strata: int) -> np.ndarray:
    return checks.plugin_sds_accuracy(pool.strat_values, labels, n_strata)


def _brier_sds(pool: EstimationPool, labels: np.ndarray, n_strata: int) -> np.ndarray:
    return checks.plugin_sds_brier(pool.scores, labels, n_strata)


# -- the four workloads ---------------------------------------------------------------


def fine_steps(seed: int, d: Path, pool: inputs.Pool) -> list[Step]:
    est = EstimationPool(pool.ids, pool.proxy, pool.loss, pool.proxy)
    sample = ["--seed-sample", str(inputs.program_seed(seed, 1))]
    return plan_estimate_steps(
        d, lambda: est, input_file=d / "inputs" / "pool.csv", plan_args=sample, est_args=[],
        budget=FINE_BUDGET, stratify="kmeans", sds=_accuracy_sds)


def calibrated_steps(seed: int, d: Path, pool: inputs.Pool) -> list[Step]:
    cal_out = d / "calibrate"
    calibrated = cal_out / "calibrated.csv"
    state: dict = {}

    def check_calibrate() -> None:
        cal = checks.read_calibrated(calibrated)
        checks.check_calibration(checks.load_json(cal_out / "map.json"), pool.ids,
                                 pool.proxy, pool.loss, cal)
        state["pool"] = EstimationPool(cal["ids"], cal["proxy_cal"], cal["loss"], cal["proxy_cal"])

    budget = (inputs.CALIBRATED_ROWS // 2) // 50  # 2% of the evaluation half
    calibrate = Step("calibrate", ["calibrate", "--input", str(d / "inputs" / "pool.csv"), "--seed-split",
                                   str(inputs.program_seed(seed, 2)), "--out", str(cal_out)],
                     cal_out, check_calibrate)
    return [calibrate, *plan_estimate_steps(
        d, lambda: state["pool"], input_file=calibrated,
        plan_args=["--proxy-col", "proxy_cal", "--seed-sample", str(inputs.program_seed(seed, 1))],
        est_args=["--proxy-col", "proxy_cal"], budget=budget, stratify="kmeans",
        sds=_accuracy_sds)]


def sidecar_steps(seed: int, d: Path, pool: inputs.Pool) -> list[Step]:
    est = EstimationPool(pool.ids, pool.proxy, pool.loss, pool.proxy, scores=pool.scores)
    kind = ["--loss-kind", "squared_error"]
    return plan_estimate_steps(
        d, lambda: est, input_file=d / "inputs" / "pool.jsonl",
        plan_args=[*kind, "--scores", str(d / "inputs" / "scores.jsonl"), "--stratify-on", "bins",
                   "--seed-sample", str(inputs.program_seed(seed, 1))],
        est_args=kind, budget=SIDECAR_BUDGET, stratify="bins", sds=_brier_sds)


def mc_steps(seed: int, d: Path, pool: inputs.Pool) -> list[Step]:
    out = d / "simulate"

    def check_simulate() -> None:
        spec = checks.load_json(d / "inputs" / "spec.json")
        results = checks.load_json(out / "results.json")["results"]
        checks.check_simulation(results, spec, pool.proxy, pool.loss)

    return [Step("simulate", ["simulate", "--spec", str(d / "inputs" / "spec.json"), "--out", str(out)],
                 out, check_simulate)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fine-proxy-plan",
                 "10^4 distinct proxy values: exact 1-D k-means dominates plan",
                 inputs.write_fine, fine_steps),
        Workload("calibrated-pool-pipeline",
                 "calibrate, plan, estimate on a 10^5-row CSV: ingest, PAVA, serialize, draw",
                 inputs.write_calibrated, calibrated_steps),
        Workload("score-sidecar-plan",
                 "JSONL pool with a 10-class score sidecar, equal-width bins, per-unit moments",
                 inputs.write_sidecar, sidecar_steps),
        Workload("mc-designs",
                 "simulate five designs at 2000 reps each: the per-replication Monte Carlo loop",
                 inputs.write_mc, mc_steps),
    )
}


# -- running commands --------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class Outcome:
    wall_s: float
    rss_mb: float
    code: int


class Launcher:
    """Handle on ``launcher.py``, which forks every child process of a run.

    Started before the benchmark loads any pool, so the children's peak
    resident set is their own (see launcher.py).
    """

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, env=child_env(), text=True)

    def run(self, argv: list[str], log: Path) -> Outcome:
        req = {"argv": argv, "log": str(log), "timeout": COMMAND_TIMEOUT_S}
        self._proc.stdin.write(json.dumps(req) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError("launcher process ended unexpectedly")
        return Outcome(**json.loads(reply))

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait()
        self._proc.stdout.close()


def cli_argv(step: Step) -> list[str]:
    return [sys.executable, "-m", "strateval.cli", *step.argv]


def digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.rglob("*")):
        if path.is_file():
            h.update(path.name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    check_failures: int = 0
    verdicts: dict = field(default_factory=dict)  # command -> (digest, error or None)

    def fail(self, step: Step, why: str) -> None:
        self.failed += 1
        print(f"FAILED {step.command}: {why}", file=sys.stderr)


def run_round(launcher: Launcher, steps: list[Step], tally: Tally,
              wrap: Callable[[Step], list[str]] | None = None) -> list[Outcome | None]:
    """One pass over the workload's steps.

    A step's outputs are checked the first time it runs; afterwards they
    must hash to the same bytes, and repeat the first verdict.  A step
    after a failed one is counted as attempted and failed without running.
    """
    outcomes: list[Outcome | None] = []
    broken = False
    for step in steps:
        tally.attempted += 1
        if broken:
            tally.fail(step, "an earlier step of the round failed")
            outcomes.append(None)
            continue
        if step.prepare:
            step.prepare()
        shutil.rmtree(step.out, ignore_errors=True)
        argv = wrap(step) if wrap else cli_argv(step)
        result = launcher.run(argv, step.out.parent / f"{step.command}.stderr")
        outcomes.append(result)
        if result.code != 0:
            tally.fail(step, f"exit code {result.code}, see {step.out.parent / (step.command + '.stderr')}")
            broken = True
            continue
        seen = digest(step.out)
        if step.command not in tally.verdicts:
            try:
                step.check()
                error = None
            except CheckFailed as e:
                error = str(e)
            except (OSError, ValueError, KeyError, IndexError, TypeError) as e:
                error = f"malformed output ({type(e).__name__}: {e})"
            if error:
                tally.check_failures += 1
            tally.verdicts[step.command] = (seen, error)
        first, error = tally.verdicts[step.command]
        if seen != first:
            error = "outputs differ from the first run of this step"
            tally.check_failures += 1
        if error:
            tally.fail(step, error)
            broken = True
    return outcomes


# -- one benchmark run ----------------------------------------------------------------------


class InputSetup:
    """Generates a workload's inputs and times each generation.

    Every generation must write the same bytes.
    """

    def __init__(self, workload: Workload, seed: int, d: Path) -> None:
        self.workload, self.seed, self.dir = workload, seed, d / "inputs"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.times: list[float] = []
        self._digest = None

    def run(self):
        start = time.perf_counter()
        pool = self.workload.setup(self.seed, self.dir)
        self.times.append(time.perf_counter() - start)
        seen = digest(self.dir)
        if self._digest is None:
            self._digest = seen
        elif seen != self._digest:
            raise RuntimeError("input generation is not deterministic")
        return pool


def prepare_dir(workload: Workload) -> Path:
    d = RUNS / workload.name
    shutil.rmtree(d, ignore_errors=True)
    d.mkdir(parents=True)
    return d


def measure(launcher: Launcher, workload: Workload, seed: int, seconds: float) -> dict:
    """Rounds until ``seconds`` of command wall time; end-to-end metrics.

    ``probe.py`` runs before the first round and after every round.  Each
    command's wall time is divided by the mean of the two probe times
    around its round, each set-up time by the probe time next to it, and
    both are scaled to ``REFERENCE_PROBE_S``: times at a fixed host speed
    (README.md, "Host speed").  The inputs are generated again before
    every round, so that ``setup_s`` samples the whole run.
    """
    d = prepare_dir(workload)

    def probe() -> float:
        outcome = launcher.run([sys.executable, str(HERE / "probe.py")], d / "probe.stderr")
        if outcome.code != 0:
            raise RuntimeError(f"probe.py failed, see {d / 'probe.stderr'}")
        return outcome.wall_s

    setup = InputSetup(workload, seed, d)
    pool = setup.run()
    probes = [probe()]
    setup_probes = [probes[0]]
    steps = workload.steps(seed, d, pool)
    tally = Tally()
    rounds, measured = [], 0.0
    while not rounds or measured < seconds:
        if rounds:
            setup.run()
            setup_probes.append(probes[-1])
        outcomes = run_round(launcher, steps, tally)
        rounds.append(outcomes)
        measured += sum(o.wall_s for o in outcomes if o is not None)
        probes.append(probe())
    while len(setup.times) < SETUP_MIN_REPEATS:
        setup.run()
        setup_probes.append(probes[-1])
    speed = [2 * REFERENCE_PROBE_S / (a + b) for a, b in zip(probes, probes[1:])]
    peak = max((o.rss_mb for r in rounds for o in r if o is not None), default=0.0)
    print(f"{workload.name} seed={seed}: {len(rounds)} round(s), "
          f"{tally.attempted} operations, {tally.failed} failed; "
          f"probe.py {min(probes):.3f}-{max(probes):.3f} s")
    pipeline = 0.0
    for i, step in enumerate(steps):
        walls = [(r[i].wall_s, f) for r, f in zip(rounds, speed) if r[i] is not None]
        if not walls:
            continue
        scaled = statistics.median(w * f for w, f in walls)
        pipeline += scaled
        line = (f"  {step.command}_s {scaled:.3f} s at reference speed; "
                f"wall fastest {min(w for w, _ in walls):.3f} s, median "
                f"{statistics.median(w for w, _ in walls):.3f} s")
        if step.command == "simulate":
            line += f"  (mc_reps_per_s {inputs.MC_REPS * len(inputs.MC_METHODS) / scaled:.1f} reps/s)"
        print(line)
    setup_s = statistics.median(
        t * REFERENCE_PROBE_S / p for t, p in zip(setup.times, setup_probes))
    return {
        "correct": tally.check_failures == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            "setup_s": {"value": setup_s, "unit": "s"},
            "pipeline_s": {"value": pipeline, "unit": "s"},
            "peak_rss_mb": {"value": peak, "unit": "MB"},
        },
    }


def trace(launcher: Launcher, workload: Workload, seed: int) -> dict:
    """Per-layer metrics: each step untraced and traced, then an allocation pass."""
    d = prepare_dir(workload)
    pool = InputSetup(workload, seed, d).run()
    steps = workload.steps(seed, d, pool)
    tally = Tally()
    startup = [launcher.run([sys.executable, "-c", "import strateval.cli"], d / "startup.stderr")
               for _ in range(STARTUP_REPEATS)]
    if any(o.code != 0 for o in startup):
        raise SystemExit(f"cannot import strateval.cli from {SRC}")
    # each step runs untraced, then traced right after, so that drift in
    # machine speed between the two stays small
    plain, traced, spans = [], [], []
    for step in steps:
        spans.append(d / f"spans_{step.command}.npz")
        plain += run_round(launcher, [step], tally)
        traced += run_round(launcher, [step], tally, lambda s: [
            sys.executable, str(HERE / "tracer.py"), "--spans", str(spans[-1]), "--", *s.argv])
    output_bytes = sum(p.stat().st_size for s in steps for p in s.out.rglob("*") if p.is_file())
    allocating = [s for s in steps if s.command != "simulate"]
    allocs = [d / f"alloc_{s.command}.json" for s in allocating]
    run_round(launcher, allocating, tally, lambda s: [
        sys.executable, str(HERE / "tracer.py"), "--alloc", str(allocs[allocating.index(s)]), "--", *s.argv])
    metrics = {"cli.startup_s": statistics.median(o.wall_s for o in startup),
               "cli.output_bytes": float(output_bytes)}
    if tally.failed == 0:
        metrics.update(tracer.layer_metrics(spans, allocs))
        metrics["trace.overhead_s"] = sum(o.wall_s for o in traced) - sum(o.wall_s for o in plain)
        names, rows, commands = tracer.load_spans(spans)
        for label, ranked in tracer.top_self_times(names, rows, commands):
            print(f"  largest self times in {label}: "
                  + ", ".join(f"{n} {t:.3f} s" for n, t in ranked))
    else:  # a failed step leaves no spans to read; the failure is what counts
        metrics = {name: metrics.get(name, 0.0) for name in tracer.PER_LAYER}
    print(f"{workload.name} seed={seed}: traced, {tally.attempted} operations, {tally.failed} failed")
    return {
        "correct": tally.check_failures == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": tracer.PER_LAYER[k][0]} for k, v in sorted(metrics.items())},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if not (SRC / "strateval" / "cli.py").is_file():
        print(f"error: no program to benchmark at {SRC / 'strateval'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    launcher = Launcher()
    try:
        for name in names:
            w = WORKLOADS[name]
            results[name] = (trace(launcher, w, args.seed) if args.trace
                             else measure(launcher, w, args.seed, args.seconds))
            if len(names) > 1:
                print(json.dumps({name: results[name]}))
    finally:
        launcher.close()
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
