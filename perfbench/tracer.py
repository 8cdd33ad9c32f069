"""Span tracing of one ``strateval`` subcommand, from outside the program.

Run as a script, this module imports ``strateval.cli``, replaces the
module-level names through which the package's modules call one another
with timing wrappers, runs ``cli.main(argv)`` in-process and writes what
it recorded::

    python3 perfbench/tracer.py --spans OUT.npz -- plan --input pool.csv ...
    python3 perfbench/tracer.py --alloc OUT.json -- plan --input pool.csv ...

``--spans`` records one span per wrapped call: name, start, end, parent
span and up to two counts taken at the same boundary.  Spans stay in
memory until the command ends.  ``--alloc`` is a separate pass that
records, for ``ingest`` and ``kmeans_1d`` only, how far the resident set
grew during the call; it samples ``/proc/self/statm`` from a thread and
takes no spans, so it does not distort the timed pass.

Imported as a module (by ``run.py``), it offers :func:`layer_metrics`,
which turns span and allocation files into the per-layer metrics.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import threading
import time
from pathlib import Path

import numpy as np



def _n_sample(args, kwargs, result):
    return args[2], 0  # srs_indices(rng, n_population, n_sample)


# (module or module:class, attribute, span name, counts taken from (args, kwargs, result))
TARGETS = [
    ("strateval.cli", "cmd_calibrate", "cli.calibrate", None),
    ("strateval.cli", "cmd_plan", "cli.plan", None),
    ("strateval.cli", "cmd_estimate", "cli.estimate", None),
    ("strateval.cli", "cmd_simulate", "cli.simulate", None),
    ("strateval.cli", "ingest", "dataset.ingest", lambda a, k, r: (r.size, 0)),
    ("strateval.dataset", "attach_scores", "dataset.attach_scores", None),
    ("strateval.dataset:Population", "canonical_csv", "dataset.canonical_csv",
     lambda a, k, r: (len(r.encode()), 0)),
    ("strateval.cli", "split_half", "calibration.split_half", None),
    ("strateval.cli", "fit_isotonic", "calibration.fit_isotonic",
     lambda a, k, r: (r.breakpoints.size, 0)),
    ("strateval.cli", "kmeans_1d", "stratify.kmeans_1d",
     lambda a, k, r: (np.unique(a[0]).size, a[1])),
    ("strateval.cli", "equal_width_bins", "stratify.equal_width_bins", None),
    ("strateval.stratify:StrataPartition", "members", "stratify.members", None),
    ("strateval.cli", "proportional", "allocate", None),
    ("strateval.cli", "neyman", "allocate", None),
    ("strateval.cli", "plugin_sd_accuracy", "allocate", None),
    ("strateval.cli", "plugin_sd_general", "allocate", None),
    ("strateval.allocate", "proportional", "allocate", None),
    ("strateval.simulate", "proportional", "allocate", None),
    ("strateval.simulate", "neyman", "allocate", None),
    ("strateval.simulate", "plugin_sd_accuracy", "allocate", None),
    ("strateval.cli", "conditional_moments", "losses.conditional_moments", None),
    ("strateval.sampling", "derive_seed", "rng.derive_seed", None),
    ("strateval.simulate", "derive_seed", "rng.derive_seed", None),
    ("strateval.calibration", "generator", "rng.generator", None),
    ("strateval.sampling", "generator", "rng.generator", None),
    ("strateval.simulate", "generator", "rng.generator", None),
    ("strateval.sampling", "srs_indices", "rng.srs_indices", _n_sample),
    ("strateval.simulate", "srs_indices", "rng.srs_indices", _n_sample),
    ("strateval.cli", "draw_ssrs", "sampling.draw_ssrs", None),
    ("strateval.cli", "worksheet_csv", "sampling.worksheet_csv", lambda a, k, r: (a[0].size, 0)),
    ("strateval.cli", "load_worksheet", "sampling.load_worksheet", None),
    ("strateval.cli", "horvitz_thompson", "estimators", None),
    ("strateval.cli", "difference_estimate", "estimators", None),
    ("strateval.cli", "plugin_se_ssrs", "estimators", None),
    ("strateval.cli", "confidence_interval", "estimators", None),
    ("strateval.simulate", "normal_quantile", "estimators", None),
    ("strateval.cli", "generate", "simulate.generate", None),
    ("strateval.cli", "run_mc", "simulate.run_mc.{design}", lambda a, k, r: (k["reps"], 0)),
]
ALLOC_TARGETS = [
    ("strateval.cli", "ingest", "dataset.ingest"),
    ("strateval.cli", "kmeans_1d", "stratify.kmeans_1d"),
]
# every per-layer metric: (unit, better direction)
PER_LAYER = {
    "cli.startup_s": ("s", "lower"),
    "cli.calibrate_self_s": ("s", "lower"),
    "cli.plan_self_s": ("s", "lower"),
    "cli.estimate_self_s": ("s", "lower"),
    "cli.simulate_self_s": ("s", "lower"),
    "cli.output_bytes": ("bytes", "lower"),
    "dataset.ingest_s": ("s", "lower"),
    "dataset.ingest_rows": ("count", "lower"),
    "dataset.ingest_us_per_row": ("us", "lower"),
    "dataset.attach_scores_s": ("s", "lower"),
    "dataset.canonical_csv_s": ("s", "lower"),
    "dataset.canonical_csv_bytes": ("bytes", "lower"),
    "dataset.ingest_peak_mb": ("MB", "lower"),
    "calibration.split_half_s": ("s", "lower"),
    "calibration.fit_isotonic_s": ("s", "lower"),
    "calibration.isotonic_steps": ("count", "lower"),
    "stratify.kmeans_1d_s": ("s", "lower"),
    "stratify.distinct_values": ("count", "lower"),
    "stratify.kmeans_1d_ns_per_value_stratum": ("ns", "lower"),
    "stratify.kmeans_1d_peak_mb": ("MB", "lower"),
    "stratify.equal_width_bins_s": ("s", "lower"),
    "stratify.members_s": ("s", "lower"),
    "allocate.s": ("s", "lower"),
    "losses.conditional_moments_s": ("s", "lower"),
    "losses.conditional_moments_calls": ("count", "lower"),
    "rng.derive_seed_s": ("s", "lower"),
    "rng.derive_seed_calls": ("count", "lower"),
    "rng.generator_s": ("s", "lower"),
    "rng.generator_calls": ("count", "lower"),
    "rng.srs_indices_s": ("s", "lower"),
    "rng.units_drawn": ("count", "lower"),
    "sampling.draw_ssrs_s": ("s", "lower"),
    "sampling.worksheet_csv_s": ("s", "lower"),
    "sampling.worksheet_rows": ("count", "lower"),
    "sampling.load_worksheet_s": ("s", "lower"),
    "estimators.s": ("s", "lower"),
    "simulate.generate_s": ("s", "lower"),
    "simulate.run_mc_self_s": ("s", "lower"),
    "simulate.reps": ("count", "higher"),
    "simulate.us_per_rep_srs": ("us", "lower"),
    "simulate.us_per_rep_ssrs": ("us", "lower"),
    "trace.overhead_s": ("s", "lower"),
}
COUNT_SPAN = "trace.count"  # time spent taking counts, excluded from every layer
IMPORT_SPAN = "cli.import"


class SpanRecorder:
    """In-memory span table; one row per wrapped call."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.rows: list[tuple] = []  # (name id, start, end, parent row, count1, count2)
        self._stack = [-1]

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def record(self, name: str, start: float, end: float) -> None:
        self.rows.append((self.name_id(name), start, end, self._stack[-1], 0, 0))

    def _tagged_id(self, name: str, kwargs: dict) -> int:
        try:
            return self.name_id(name.format(**kwargs))
        except KeyError:  # the call no longer passes the tag by keyword
            return self.name_id(name.partition(".{")[0])

    def wrap(self, fn, name: str, count=None):
        rows, stack, clock = self.rows, self._stack, time.perf_counter
        fixed = None if "{" in name else self.name_id(name)
        count_id = self.name_id(COUNT_SPAN)

        def traced(*args, **kwargs):
            nid = fixed if fixed is not None else self._tagged_id(name, kwargs)
            me = len(rows)
            rows.append(None)
            parent = stack[-1]
            stack.append(me)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                rows[me] = (nid, start, end, parent, 0, 0)
            if count is not None:
                c_start = clock()
                try:
                    c1, c2 = count(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    c1 = c2 = 0  # the call's signature changed; its count reads 0
                rows[me] = (nid, start, end, parent, c1, c2)
                rows.append((count_id, c_start, clock(), parent, 0, 0))
            return result

        return traced

    def save(self, path: Path) -> None:
        table = np.array(self.rows, dtype=float).reshape(-1, 6)
        np.savez(path, rows=table, names=np.array(self.names))


def _install(target: str, attr: str, wrapper) -> None:
    """Replace ``target.attr`` by ``wrapper(original)``.

    A name the program no longer has is skipped, and its layer reads 0, so
    that a refactor of the program does not break the benchmark.
    """
    module, _, cls = target.partition(":")
    try:
        owner = importlib.import_module(module)
        if cls:
            owner = getattr(owner, cls)
        original = getattr(owner, attr)
    except (ImportError, AttributeError):
        return
    setattr(owner, attr, wrapper(original))


def _rss_bytes() -> int:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def _rss_growth(fn, peaks: dict, name: str):
    """Wrap ``fn`` to record the largest resident-set growth seen during a call."""

    def measured(*args, **kwargs):
        base = _rss_bytes()
        top = [base]
        done = threading.Event()

        def sample():
            while not done.wait(0.002):
                top[0] = max(top[0], _rss_bytes())

        sampler = threading.Thread(target=sample, daemon=True)
        sampler.start()
        try:
            return fn(*args, **kwargs)
        finally:
            done.set()
            sampler.join()
            growth = max(top[0], _rss_bytes()) - base
            peaks[name] = max(peaks.get(name, 0), growth)

    return measured


def main(argv: list[str]) -> int:
    if "--" not in argv or len(argv) < 3 or argv[0] not in ("--spans", "--alloc"):
        print("usage: tracer.py (--spans OUT.npz | --alloc OUT.json) -- SUBCOMMAND ARGS...",
              file=sys.stderr)
        return 2
    mode, out = argv[0], Path(argv[1])
    cli_argv = argv[argv.index("--") + 1:]
    rec = SpanRecorder()
    start = time.perf_counter()
    import strateval.cli as cli

    rec.record(IMPORT_SPAN, start, time.perf_counter())
    if mode == "--spans":
        for target, attr, name, count in TARGETS:
            _install(target, attr, lambda fn: rec.wrap(fn, name, count))
        try:
            return cli.main(cli_argv)
        finally:
            rec.save(out)
    peaks: dict[str, int] = {}
    for target, attr, name in ALLOC_TARGETS:
        _install(target, attr, lambda fn: _rss_growth(fn, peaks, name))
    try:
        return cli.main(cli_argv)
    finally:
        out.write_text(json.dumps(peaks))


# -- per-layer metrics from the recorded files ---------------------------------------


def load_spans(files: list[Path]) -> tuple[list[str], np.ndarray, np.ndarray]:
    """All spans of a round: a shared name list, the rows, and a command id per row."""
    names: list[str] = []
    tables, commands = [], []
    for cmd, path in enumerate(files):
        with np.load(path) as data:
            local = [str(n) for n in data["names"]]
            rows = data["rows"].copy()
        for n in local:
            if n not in names:
                names.append(n)
        remap = np.array([names.index(n) for n in local], dtype=float)
        if rows.size:
            rows[:, 0] = remap[rows[:, 0].astype(np.int64)]
            # parents index rows of this command; shift into the combined table
            offset = sum(t.shape[0] for t in tables)
            rows[:, 3] = np.where(rows[:, 3] >= 0, rows[:, 3] + offset, -1)
        tables.append(rows)
        commands.append(np.full(rows.shape[0], cmd))
    return names, np.concatenate(tables), np.concatenate(commands)


def self_times(rows: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its child spans."""
    dur = rows[:, 2] - rows[:, 1]
    parent = rows[:, 3].astype(np.int64)
    has = parent >= 0
    child = np.bincount(parent[has], weights=dur[has], minlength=rows.shape[0])
    return dur - child


def top_self_times(names: list[str], rows: np.ndarray, commands: np.ndarray, k: int = 3):
    """Per command: its name and the ``k`` span names with the largest self time."""
    selft = self_times(rows)
    out = []
    for cmd in np.unique(commands):
        mask = commands == cmd
        ids = rows[mask, 0].astype(np.int64)
        totals = np.bincount(ids, weights=selft[mask], minlength=len(names))
        label = next((names[i] for i in ids if names[i].startswith("cli.") and names[i] != IMPORT_SPAN), "?")
        ranked = [(names[i], float(totals[i])) for i in np.argsort(-totals)[:k] if totals[i] > 0]
        out.append((label, ranked))
    return out


def layer_metrics(span_files: list[Path], alloc_files: list[Path]) -> dict[str, float]:
    names, rows, _ = load_spans(span_files)
    selft = self_times(rows)
    dur = rows[:, 2] - rows[:, 1]
    ids = rows[:, 0].astype(np.int64)

    def pick(name: str):
        return ids == names.index(name) if name in names else np.zeros(ids.size, dtype=bool)

    def self_s(*span_names: str) -> float:
        return float(sum(selft[pick(n)].sum() for n in span_names))

    def count(name: str, col: int = 4) -> float:
        return float(rows[pick(name), col].sum())

    def calls(name: str) -> float:
        return float(pick(name).sum())

    def ratio(num: float, den: float, scale: float) -> float:
        return num / den * scale if den else 0.0

    kmeans = pick("stratify.kmeans_1d")
    value_strata = float(np.sum(rows[kmeans, 4] * rows[kmeans, 5]))
    run_srs, run_ssrs = pick("simulate.run_mc.srs"), pick("simulate.run_mc.ssrs")
    peaks: dict[str, int] = {}
    for path in alloc_files:
        for name, grown in json.loads(Path(path).read_text()).items():
            peaks[name] = max(peaks.get(name, 0), grown)
    m = {
        "cli.calibrate_self_s": self_s("cli.calibrate"),
        "cli.plan_self_s": self_s("cli.plan"),
        "cli.estimate_self_s": self_s("cli.estimate"),
        "cli.simulate_self_s": self_s("cli.simulate"),
        "dataset.ingest_s": self_s("dataset.ingest"),
        "dataset.ingest_rows": count("dataset.ingest"),
        "dataset.attach_scores_s": self_s("dataset.attach_scores"),
        "dataset.canonical_csv_s": self_s("dataset.canonical_csv"),
        "dataset.canonical_csv_bytes": count("dataset.canonical_csv"),
        "dataset.ingest_peak_mb": peaks.get("dataset.ingest", 0) / 2**20,
        "calibration.split_half_s": self_s("calibration.split_half"),
        "calibration.fit_isotonic_s": self_s("calibration.fit_isotonic"),
        "calibration.isotonic_steps": count("calibration.fit_isotonic"),
        "stratify.kmeans_1d_s": self_s("stratify.kmeans_1d"),
        "stratify.distinct_values": count("stratify.kmeans_1d"),
        "stratify.kmeans_1d_peak_mb": peaks.get("stratify.kmeans_1d", 0) / 2**20,
        "stratify.equal_width_bins_s": self_s("stratify.equal_width_bins"),
        "stratify.members_s": self_s("stratify.members"),
        "allocate.s": self_s("allocate"),
        "losses.conditional_moments_s": self_s("losses.conditional_moments"),
        "losses.conditional_moments_calls": calls("losses.conditional_moments"),
        "rng.derive_seed_s": self_s("rng.derive_seed"),
        "rng.derive_seed_calls": calls("rng.derive_seed"),
        "rng.generator_s": self_s("rng.generator"),
        "rng.generator_calls": calls("rng.generator"),
        "rng.srs_indices_s": self_s("rng.srs_indices"),
        "rng.units_drawn": count("rng.srs_indices"),
        "sampling.draw_ssrs_s": self_s("sampling.draw_ssrs"),
        "sampling.worksheet_csv_s": self_s("sampling.worksheet_csv"),
        "sampling.worksheet_rows": count("sampling.worksheet_csv"),
        "sampling.load_worksheet_s": self_s("sampling.load_worksheet"),
        "estimators.s": self_s("estimators"),
        "simulate.generate_s": self_s("simulate.generate"),
        "simulate.run_mc_self_s": self_s("simulate.run_mc.srs", "simulate.run_mc.ssrs"),
        "simulate.reps": count("simulate.run_mc.srs") + count("simulate.run_mc.ssrs"),
        "simulate.us_per_rep_srs": ratio(float(dur[run_srs].sum()), count("simulate.run_mc.srs"), 1e6),
        "simulate.us_per_rep_ssrs": ratio(float(dur[run_ssrs].sum()), count("simulate.run_mc.ssrs"), 1e6),
    }
    m["dataset.ingest_us_per_row"] = ratio(m["dataset.ingest_s"], m["dataset.ingest_rows"], 1e6)
    m["stratify.kmeans_1d_ns_per_value_stratum"] = ratio(m["stratify.kmeans_1d_s"], value_strata, 1e9)
    return m


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
