"""Command-line front end: calibrate -> plan -> annotate -> estimate, plus simulate.

Every subcommand writes into ``--out DIR`` with fixed file names, embeds
its full run config in each output (a ``config`` key in JSON files, a
leading ``#`` comment line in CSV files), and never writes timestamps —
rerunning a subcommand with identical arguments reproduces identical
bytes.

Exit codes: 0 success; 2 parse error (unreadable or malformed file or
config); 3 precondition error (valid inputs, invalid operation
parameters); 4 consistency error (inputs disagree with each other, or a
requested result assertion failed).

Run as a program (the ``strateval`` script, ``python -m strateval`` or
``python -m strateval.cli``), a command flushes stdout and stderr and
leaves through ``os._exit``, without interpreter teardown: every output
file is closed by then.  Library callers use :func:`main`, which still
returns the exit code.

Each command is its own short process, so what it imports is paid on
every run: the module loads only the standard library, numpy, ``errors``
and ``losses`` (whose kinds are ``--loss-kind``'s choices).  Every other
name resolves through :data:`_LAZY` on first use: a command binds the
names it calls when it starts, so ``estimate`` never imports the
simulator, nor ``plan`` the calibration.  A name already set on the
module, by a test or a tracer, is kept and is the one the command calls.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from importlib import import_module
from itertools import repeat
from pathlib import Path
from typing import TYPE_CHECKING, NoReturn

import numpy as np

from . import __version__
from .errors import ConsistencyError, ParseError, PreconditionError
from .losses import LossKind

if TYPE_CHECKING:
    from .dataset import Population
    from .stratify import StrataPartition

# every other name a command calls, by the module it comes from
_LAZY = {
    "allocate": ("neyman", "plugin_sds", "proportional"),
    "calibration": ("fit_isotonic", "split_half"),
    "dataset": ("check_losses", "ingest"),
    "estimators": ("confidence_interval", "stratified_estimate", "stratum_moments"),
    "rng": ("check_seed",),
    "sampling": ("draw_ssrs", "load_worksheet", "worksheet_table"),
    "simulate": ("METHOD_FIELDS", "MIN_REPS", "SuperpopSpec", "efficiency_table", "generate",
                 "run_methods"),
    "stratify": ("StrataPartition", "equal_width_bins", "kmeans_1d", "partition_table"),
    "tables": ("_not_utf8", "write_csv"),
}
_MODULE_OF = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_MODULE_OF[name]}", __package__), name)
    return value


def _bind(*names: str) -> None:
    """Bind each of ``names`` in this module unless it is bound already.

    A name set on the module before the command runs, such as a test's
    stand-in or a tracer's timing wrapper, is kept, so it is the one the
    command calls.
    """
    bound = globals()
    for name in names:
        if name not in bound:
            __getattr__(name)


EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_CONSISTENCY = 4

DEFAULT_SEED_SPLIT = 13
DEFAULT_SEED_SAMPLE = 37
DEFAULT_SEED_SIM = 101
DEFAULT_STRATA = 10


def _config_dict(args: argparse.Namespace) -> dict:
    cfg = {"version": __version__}
    for key, value in sorted(vars(args).items()):
        if key == "func":
            continue
        cfg[key] = str(value) if isinstance(value, Path) else value
    return cfg


def _config_comment(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return f"# strateval {__version__} config={blob}\n"


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# -- calibrate ---------------------------------------------------------------


def cmd_calibrate(args) -> int:
    _bind("ingest", "split_half", "fit_isotonic", "write_csv")
    cfg = _config_dict(args)
    # the whole pool is held by no name, so its memory goes once it is split
    cal, ev = split_half(ingest(args.input, args.loss_kind), args.seed_split)
    if not cal.has_all_losses:
        missing = int(np.isnan(cal.loss).sum())
        raise ConsistencyError(
            f"calibration half has {missing} unit(s) without a loss; "
            "annotate them before calibrating"
        )
    iso = fit_isotonic(cal.proxy, cal.loss)
    out = _out_dir(args)
    _write_json(out / "map.json", {**iso.to_dict(), "config": cfg})
    ev = ev.with_proxy_cal(iso.apply(ev.proxy))
    write_csv(out / "calibrated.csv", _config_comment(cfg), *ev.canonical_table())
    print(f"calibrate: fitted {iso.breakpoints.size} steps on {cal.size} units; "
          f"wrote {out / 'map.json'} and {out / 'calibrated.csv'}")
    return 0


# -- plan --------------------------------------------------------------------


def _build_partition(pop: Population, args) -> StrataPartition:
    stratify = kmeans_1d if args.stratify_on == "proxy" else equal_width_bins
    return stratify(pop.get_proxy(args.proxy_col), args.strata)


def cmd_plan(args) -> int:
    _bind("ingest", "StrataPartition", "kmeans_1d", "equal_width_bins", "partition_table",
          "plugin_sds", "neyman", "proportional", "draw_ssrs", "worksheet_table", "write_csv")
    cfg = _config_dict(args)
    pop = ingest(args.input, args.loss_kind, scores_path=args.scores)
    n = args.budget
    if not 1 <= n <= pop.size:
        raise PreconditionError(f"budget {n} outside [1, {pop.size}]")
    if args.strategy == "srs":
        # plain SRS is the one-stratum design: a proportional split of one stratum
        partition = StrataPartition(np.zeros(pop.size, dtype=np.int64), 1)
    else:
        partition = _build_partition(pop, args)
    warnings = list(partition.warnings)
    if args.strategy == "neyman":
        sds = plugin_sds(pop, args.proxy_col, partition, warnings=warnings)
        n_h = neyman(partition.sizes, sds, n, warnings=warnings)
    else:
        n_h = proportional(partition.sizes, n)
    draw = draw_ssrs(pop, partition, n_h, args.seed_sample)
    out = _out_dir(args)
    write_csv(out / "partition.csv", _config_comment(cfg), *partition_table(partition, pop.ids))
    _write_json(out / "plan.json",
                {"strategy": args.strategy, "n_h": n_h.tolist(), "warnings": warnings, "config": cfg})
    write_csv(out / "worksheet.csv", _config_comment(cfg), *worksheet_table(draw))
    print(
        f"plan: {partition.n_strata} strata, allocation "
        f"{n_h.tolist()} (total {int(n_h.sum())}); wrote partition.csv, "
        f"plan.json, worksheet.csv under {out}"
    )
    return 0


# -- estimate ------------------------------------------------------------------


def _design_from_worksheet(ws) -> tuple[np.ndarray, np.ndarray]:
    """Per-stratum sample sizes ``n_h`` and the stratum sizes ``N_h`` they imply."""
    labels, first = np.unique(ws.strata, return_index=True)
    if labels[0] != 0 or labels[-1] != labels.size - 1:
        raise ParseError("worksheet strata must be labeled 0..H-1")
    n_h, _, pi_spread = stratum_moments(ws.pi, ws.strata, labels.size)
    pis = ws.pi[first]
    implied = n_h / pis
    sizes = np.round(implied)
    bad = (pi_spread > 0.0) | (np.abs(implied - sizes) > 1e-6)
    if bad.any():
        h = int(bad.argmax())
        if pi_spread[h] > 0.0:
            raise ConsistencyError(f"stratum {h} has inconsistent pi values")
        raise ConsistencyError(
            f"stratum {h}: pi={pis[h]} and n_h={int(n_h[h])} imply "
            f"non-integer stratum size {implied[h]}"
        )
    return n_h, sizes.astype(np.int64)


def _worksheet_rows(pop, ws) -> np.ndarray:
    """Canonical positions of the worksheet's units, in worksheet order: one
    scan of the pool's ids against the worksheet's."""
    at = dict(zip(ws.ids, range(len(ws.ids))))
    found = np.fromiter(map(at.get, pop.ids, repeat(-1)), dtype=np.int64, count=pop.size)
    rows = np.flatnonzero(found >= 0)
    out = np.full(len(ws.ids), -1, dtype=np.int64)
    out[found[rows]] = rows
    if rows.size < out.size:  # argmin: the first -1, in worksheet order
        raise ConsistencyError(f"unknown unit id {ws.ids[int(out.argmin())]!r}")
    return out


def cmd_estimate(args) -> int:
    _bind("ingest", "load_worksheet", "check_losses", "stratum_moments", "stratified_estimate",
          "confidence_interval")
    cfg = _config_dict(args)
    pop = ingest(args.input, args.loss_kind)
    ws = load_worksheet(args.worksheet)
    sample_idx = _worksheet_rows(pop, ws)
    if np.any(np.isnan(ws.loss)):
        missing = [ws.ids[i] for i in np.flatnonzero(np.isnan(ws.loss))]
        raise ConsistencyError(
            f"sampled unit(s) missing a loss: {', '.join(missing[:5])}"
            + ("..." if len(missing) > 5 else "")
        )
    check_losses(pop.loss_kind, ws.loss, lambda i: f"{Path(args.worksheet)} line {ws.lines[i]}")
    n_h, sizes = _design_from_worksheet(ws)
    if int(sizes.sum()) != pop.size:
        raise ConsistencyError(
            f"worksheet design covers {int(sizes.sum())} units but the "
            f"dataset has {pop.size}"
        )
    proxies = pop.get_proxy(args.proxy_col)
    proxy_mean = float(np.mean(proxies))
    theta, se = stratified_estimate(ws.loss, ws.strata, sizes)
    correction, se_df = stratified_estimate(ws.loss - proxies[sample_idx], ws.strata, sizes)
    theta_df = proxy_mean + correction
    payload = {"config": cfg}
    for name, est, est_se, diagnostics in (
        ("ht", theta, se, {
            "stratum_sizes": sizes.tolist(),
            "stratum_n": n_h.tolist(),
            "stratum_loss_mean": stratum_moments(ws.loss, ws.strata, sizes.size)[1].tolist(),
        }),
        ("df", theta_df, se_df, {
            "proxy_pool_mean": proxy_mean,
            "residual_correction": theta_df - proxy_mean,
            "proxy_col": args.proxy_col,
        }),
    ):
        payload[name] = {
            "estimator": name,
            "design": "srs" if sizes.size == 1 else "ssrs",
            "theta": est,
            "se": est_se,
            "level": args.level,
            "ci": list(confidence_interval(est, est_se, args.level)),
            "n": ws.loss.size,
            "pop_size": pop.size,
            "diagnostics": diagnostics,
        }
    out = _out_dir(args)
    _write_json(out / "report.json", payload)
    print(f"estimate: ht theta={theta:.6g} se={se:.6g}, df theta={theta_df:.6g}; "
          f"wrote {out / 'report.json'}")
    return 0


# -- simulate ------------------------------------------------------------------

# every key a simulation spec may hold
_SPEC_KEYS = ("population", "budget", "reps", "methods", "strata", "level", "sim_seed",
              "baseline", "assert_ordering")


def _load_sim_spec(path: Path) -> dict:
    """The spec document, its methods, ordering and baseline checked before any replication."""
    if not path.exists():
        raise ParseError(f"{path}: no such file")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}: invalid JSON ({e.msg})") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: spec must be a JSON object")
    for req in ("population", "budget", "reps", "methods"):
        if req not in doc:
            raise ParseError(f"{path}: spec missing {req!r}")
    _refuse_unknown_keys(path, doc, _SPEC_KEYS, "spec")
    methods = doc["methods"]
    if not isinstance(methods, list) or not methods:
        raise ParseError(f"{path}: 'methods' must be a nonempty array")
    names = []
    for m in methods:
        if not isinstance(m, dict):
            raise ParseError(f"{path}: each 'methods' entry must be an object, got {json.dumps(m)}")
        if not isinstance(m.get("name"), str):
            raise ParseError(f"{path}: each method needs a string 'name'")
        if m["name"] in names:
            raise ParseError(f"{path}: two methods are named {m['name']!r}")
        _refuse_unknown_keys(path, m, ("name", *METHOD_FIELDS), f"method {m['name']!r}")
        names.append(m["name"])
    chain = doc.get("assert_ordering", [])
    if not isinstance(chain, list):
        raise ParseError(f"{path}: 'assert_ordering' must be an array of method names")
    refs = [("assert_ordering", name) for name in chain]
    if "baseline" in doc:
        refs.append(("baseline", doc["baseline"]))
    for key, name in refs:
        if name not in names:
            raise ParseError(f"{path}: {key!r} names {json.dumps(name)}, not a method")
    return doc


def _refuse_unknown_keys(path: Path, obj: dict, known, where: str) -> None:
    """A misspelt key would otherwise fall back to its default: refuse any key not in ``known``."""
    for key in obj:
        if key not in known:
            raise ParseError(f"{path}: {where} has unknown key {key!r}")


def _spec_number(path: Path, doc: dict, key: str, default=None, *, integer: bool = False,
                 field: str | None = None):
    """Field ``key`` of a spec: a JSON number, and an integral one when ``integer``.

    A float with an integral value counts as an integer.  A failure names
    the file and the field (``field``, default ``key``).
    """
    value = doc.get(key, default)
    field = field or key
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{path}: {field!r} must be a number, got {json.dumps(value)}")
    if not integer:
        return float(value)
    if isinstance(value, float) and not value.is_integer():
        raise ParseError(f"{path}: {field!r} must be an integer, got {json.dumps(value)}")
    return int(value)


def cmd_simulate(args) -> int:
    _bind("_not_utf8", "METHOD_FIELDS", "check_seed", "SuperpopSpec", "generate", "MIN_REPS",
          "kmeans_1d", "run_methods", "efficiency_table", "write_csv")
    cfg = _config_dict(args)
    path = Path(args.spec)
    doc = _load_sim_spec(path)
    reps = _spec_number(path, doc, "reps", integer=True)
    n = _spec_number(path, doc, "budget", integer=True)
    strata = _spec_number(path, doc, "strata", 2, integer=True)
    level = _spec_number(path, doc, "level", 0.95)
    sim_seed = check_seed(_spec_number(path, doc, "sim_seed", DEFAULT_SEED_SIM, integer=True),
                          "sim_seed")
    pop_doc = doc["population"]
    if not isinstance(pop_doc, dict):
        raise ParseError(f"{path}: 'population' must be an object, got {json.dumps(pop_doc)}")
    _refuse_unknown_keys(path, pop_doc, ("family", "size", "seed", "params"), "'population'")
    size = _spec_number(path, pop_doc, "size", integer=True, field="population.size")
    pop_seed = _spec_number(path, pop_doc, "seed", 0, integer=True, field="population.seed")
    try:
        spec = SuperpopSpec(
            family=pop_doc["family"],
            size=size,
            seed=check_seed(pop_seed, "population.seed"),
            params=pop_doc.get("params", {}),
        )
        pop = generate(spec)
    except ParseError as e:
        raise ParseError(f"{path}: {e}") from None
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"{path}: bad population spec: {e}") from None
    if MIN_REPS <= reps < 1000:
        print(
            f"warning: reps={reps} gives a Monte Carlo standard error too "
            "large for ordering assertions; use >= 1000",
            file=sys.stderr,
        )
    methods = doc["methods"]
    needs_partition = any(m.get("design") == "ssrs" for m in methods)
    partition = kmeans_1d(pop.proxy, strata) if needs_partition else None
    settings = [{key: m.get(key, values[0]) for key, values in METHOD_FIELDS.items()}
                for m in methods]
    runs = run_methods(pop, settings, n=n, reps=reps, seed=sim_seed, partition=partition,
                       level=level)
    results = {m["name"]: r for m, r in zip(methods, runs)}
    baseline = doc.get("baseline", next(iter(results)))
    table = efficiency_table(results, baseline)
    ordering_ok = None
    if "assert_ordering" in doc:
        chain = doc["assert_ordering"]
        ordering_ok = True
        for left, right in zip(chain, chain[1:]):
            a, b = results[left], results[right]
            slack = 3.0 * float(np.hypot(a.mse_mc_se, b.mse_mc_se))
            if a.empirical_mse > b.empirical_mse + slack:
                ordering_ok = False
                break
    out = _out_dir(args)
    payload = {
        "config": cfg,
        "spec": doc,
        "results": {name: r.to_dict() for name, r in results.items()},
        "efficiency": table,
        "baseline": baseline,
        "ordering_ok": ordering_ok,
    }
    _write_json(out / "results.json", payload)
    write_csv(out / "efficiency.csv", _config_comment(cfg), ["population", *table],
              [[spec.family], *([v] for v in table.values())])
    for name, r in results.items():
        print(
            f"simulate[{name}]: mse={r.empirical_mse:.4e} (mc se {r.mse_mc_se:.1e}) "
            f"bias={r.bias:+.2e} coverage={r.coverage:.3f}"
        )
    if ordering_ok is False:
        raise ConsistencyError("requested MSE ordering violated beyond 3 mc_se")
    print(f"simulate: wrote {out / 'results.json'} and {out / 'efficiency.csv'}")
    return 0


# -- parser ---------------------------------------------------------------------


def _seed_flag(text: str) -> int:
    """Value of a ``--seed-*`` flag: a non-negative integer."""
    _bind("check_seed")
    try:
        return check_seed(int(text))
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="strateval",
        description=(
            "Stratify, sample, and estimate a model's mean loss on a "
            "labeling budget."
        ),
        epilog="Exit codes: 0 ok, 2 parse error, 3 precondition error, 4 consistency error.",
    )
    p.add_argument("--version", action="version", version=f"strateval {__version__}")
    sub = p.add_subparsers(dest="subcommand", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", required=True, help="output directory")
    common.add_argument(
        "--loss-kind",
        default="accuracy",
        choices=[k.value for k in LossKind],
        help="loss the proxy/loss columns refer to",
    )

    pc = sub.add_parser(
        "calibrate",
        parents=[common],
        help="fit an isotonic proxy->loss map on a random half of the pool",
    )
    pc.add_argument("--input", required=True, help="dataset CSV/JSONL with losses")
    pc.add_argument("--seed-split", type=_seed_flag, default=DEFAULT_SEED_SPLIT)
    pc.set_defaults(func=cmd_calibrate)

    pp = sub.add_parser(
        "plan",
        parents=[common],
        help="stratify the pool, split the budget, and draw the sample",
    )
    pp.add_argument("--input", required=True, help="dataset CSV/JSONL")
    pp.add_argument("--scores", default=None, help="class-score sidecar JSONL")
    pp.add_argument("--proxy-col", default="proxy", choices=["proxy", "proxy_cal"])
    pp.add_argument("--strata", type=int, default=DEFAULT_STRATA, metavar="H")
    pp.add_argument("--budget", type=int, required=True, metavar="N_LABELS")
    pp.add_argument("--strategy", default="prop", choices=["srs", "prop", "neyman"])
    pp.add_argument("--stratify-on", default="proxy", choices=["proxy", "bins"])
    pp.add_argument("--seed-sample", type=_seed_flag, default=DEFAULT_SEED_SAMPLE)
    pp.set_defaults(func=cmd_plan)

    pe = sub.add_parser(
        "estimate",
        parents=[common],
        help="turn an annotated worksheet into point estimates with CIs",
    )
    pe.add_argument("--input", required=True, help="dataset CSV/JSONL")
    pe.add_argument("--worksheet", required=True, help="worksheet CSV with losses filled")
    pe.add_argument("--proxy-col", default="proxy", choices=["proxy", "proxy_cal"])
    pe.add_argument("--level", type=float, default=0.95)
    pe.set_defaults(func=cmd_estimate)

    ps = sub.add_parser(
        "simulate",
        parents=[common],
        help="Monte Carlo comparison of designs/estimators on a synthetic pool",
    )
    ps.add_argument("--spec", required=True, help="simulation spec JSON")
    ps.set_defaults(func=cmd_simulate)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as e:
        print(f"error (parse): {e}", file=sys.stderr)
        return EXIT_PARSE
    except PreconditionError as e:
        print(f"error (precondition): {e}", file=sys.stderr)
        return EXIT_PRECONDITION
    except ConsistencyError as e:
        print(f"error (consistency): {e}", file=sys.stderr)
        return EXIT_CONSISTENCY


def run() -> NoReturn:
    """Process entry point: :func:`main` on the command line, then ``os._exit``.

    Interpreter teardown buys a finished command nothing and costs tens
    of milliseconds, so the process ends as soon as stdout and stderr are
    flushed.  A stdout with no reader left ends it with exit code 1 and
    no traceback, fd 1 pointed at ``os.devnull`` as the Python docs'
    note on SIGPIPE recommends.  ``SystemExit`` from argparse (``--help``,
    ``--version``, a bad flag) and any other exception take the normal
    interpreter exit.
    """
    try:
        code = main(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
