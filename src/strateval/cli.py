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
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .allocate import AllocationPlan, neyman, plugin_sds, proportional
from .calibration import fit_isotonic, split_half
from .dataset import Population, check_losses, ingest
from .errors import ConsistencyError, ParseError, PreconditionError
from .estimators import confidence_interval, stratified_estimate, stratum_moments
from .losses import LossKind
from .rng import check_seed
from .sampling import draw_ssrs, load_worksheet, worksheet_csv
from .simulate import (
    MIN_REPS,
    SuperpopSpec,
    efficiency_csv,
    efficiency_table,
    generate,
    run_methods,
)
from .stratify import (
    StrataPartition,
    equal_width_bins,
    kmeans_1d,
    kmeans_embeddings,
    partition_csv,
)
from .tables import _not_utf8

EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_CONSISTENCY = 4

DEFAULT_SEED_SPLIT = 13
DEFAULT_SEED_SAMPLE = 37
DEFAULT_SEED_SIM = 101
DEFAULT_SEED_STRAT = 7
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
    cfg = _config_dict(args)
    pop = ingest(args.input, args.loss_kind)
    cal, ev = split_half(pop, args.seed_split)
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
    (out / "calibrated.csv").write_text(_config_comment(cfg) + ev.canonical_csv(), encoding="utf-8")
    print(f"calibrate: fitted {iso.breakpoints.size} steps on {cal.size} units; "
          f"wrote {out / 'map.json'} and {out / 'calibrated.csv'}")
    return 0


# -- plan --------------------------------------------------------------------


def _build_partition(pop: Population, args) -> StrataPartition:
    if args.stratify_on == "proxy":
        return kmeans_1d(pop.get_proxy(args.proxy_col), args.strata)
    if args.stratify_on == "bins":
        return equal_width_bins(pop.get_proxy(args.proxy_col), args.strata)
    if pop.embeddings is None:
        raise PreconditionError(
            "--stratify-on embeddings needs emb_* columns in the dataset"
        )
    return kmeans_embeddings(pop.embeddings, args.strata, args.seed_strat)


def cmd_plan(args) -> int:
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
        split = neyman(partition.sizes, sds, n)
    else:
        split = proportional(partition.sizes, n)
    plan = AllocationPlan(strategy=args.strategy, n_h=split.n_h, warnings=warnings + split.warnings)
    draw = draw_ssrs(pop, partition, plan, args.seed_sample)
    out = _out_dir(args)
    (out / "partition.csv").write_text(_config_comment(cfg) + partition_csv(partition, pop.ids),
                                       encoding="utf-8")
    _write_json(out / "plan.json", {**plan.to_dict(), "config": cfg})
    (out / "worksheet.csv").write_text(_config_comment(cfg) + worksheet_csv(draw), encoding="utf-8")
    print(
        f"plan: {partition.n_strata} strata, allocation "
        f"{plan.n_h.tolist()} (total {plan.total}); wrote partition.csv, "
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


def cmd_estimate(args) -> int:
    cfg = _config_dict(args)
    pop = ingest(args.input, args.loss_kind)
    ws = load_worksheet(args.worksheet)
    sample_idx = np.array([pop.index_of(uid) for uid in ws.ids], dtype=np.int64)
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


def _spec_number(path: Path, doc: dict, key: str, convert, default=None):
    """Field ``key`` of a spec, converted by ``convert``; a failure names the file and field."""
    value = doc.get(key, default)
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError):
        raise ParseError(f"{path}: {key!r} must be a number, got {json.dumps(value)}") from None


def cmd_simulate(args) -> int:
    cfg = _config_dict(args)
    path = Path(args.spec)
    doc = _load_sim_spec(path)
    reps = _spec_number(path, doc, "reps", int)
    n = _spec_number(path, doc, "budget", int)
    strata = _spec_number(path, doc, "strata", int, 2)
    level = _spec_number(path, doc, "level", float, 0.95)
    sim_seed = check_seed(_spec_number(path, doc, "sim_seed", int, args.seed_sim), "sim_seed")
    pop_doc = doc["population"]
    try:
        spec = SuperpopSpec(
            family=pop_doc["family"],
            size=int(pop_doc["size"]),
            seed=check_seed(pop_doc.get("seed", 0), "population.seed"),
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
    defaults = {"design": "srs", "estimator": "ht", "allocation": "prop", "sd_source": "true"}
    settings = [{key: m.get(key, value) for key, value in defaults.items()} for m in methods]
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
    (out / "efficiency.csv").write_text(
        _config_comment(cfg) + efficiency_csv(table, row_label=spec.family), encoding="utf-8"
    )
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
    pp.add_argument(
        "--stratify-on", default="proxy", choices=["proxy", "embeddings", "bins"]
    )
    pp.add_argument("--seed-sample", type=_seed_flag, default=DEFAULT_SEED_SAMPLE)
    pp.add_argument("--seed-strat", type=_seed_flag, default=DEFAULT_SEED_STRAT)
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
    ps.add_argument("--seed-sim", type=_seed_flag, default=DEFAULT_SEED_SIM)
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


if __name__ == "__main__":
    sys.exit(main())
