"""Correctness checks on the program's outputs.

Each check compares an output against a value the benchmark computes
itself, or against a property the method must have.  None of them
compares against a stored copy of an earlier output.  A failed check
raises :class:`CheckFailed` with a message naming what differs.

The checks import nothing from ``strateval``: the reference computations
here (plug-in SDs, PAVA, stratified SEs, exact design variances) are
written independently of the program.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

Z_975 = 1.959963984540054  # standard normal quantile at 0.975
THETA_SE_LIMIT = 5.0  # |theta - true mean| must stay within this many SEs
MC_SE_LIMIT = 5.0  # simulated MSE and bias within this many Monte Carlo SEs
COVERAGE_BAND = (0.91, 0.98)  # nominal 95% intervals, n=100 over 4 strata
REL_TOL = 1e-9


class CheckFailed(Exception):
    """An output of the program disagrees with the benchmark's reference."""


def _close(a: float, b: float, rel: float = REL_TOL, abs_tol: float = 1e-12) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_tol)


# -- reading outputs -----------------------------------------------------------


def read_csv_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    """Header and rows of a CSV file, skipping ``#`` comment lines."""
    with open(path, newline="") as f:
        lines = (ln for ln in f if not ln.startswith("#") and ln.strip())
        rows = list(csv.reader(lines))
    if not rows:
        raise CheckFailed(f"{path}: no header")
    return rows[0], rows[1:]


@dataclass
class Partition:
    ids: list[str]
    labels: np.ndarray  # stratum per id, in file order


def read_partition(path: Path) -> Partition:
    header, rows = read_csv_rows(path)
    if header != ["id", "stratum"]:
        raise CheckFailed(f"{path}: header {header}")
    return Partition([r[0] for r in rows], np.array([int(r[1]) for r in rows], dtype=np.int64))


@dataclass
class Worksheet:
    ids: list[str]
    strata: np.ndarray
    pi: np.ndarray


def read_worksheet(path: Path) -> Worksheet:
    header, rows = read_csv_rows(path)
    if header[:3] != ["id", "stratum", "pi"]:
        raise CheckFailed(f"{path}: header {header}")
    return Worksheet(
        [r[0] for r in rows],
        np.array([int(r[1]) for r in rows], dtype=np.int64),
        np.array([float(r[2]) for r in rows]),
    )


def read_calibrated(path: Path) -> dict:
    header, rows = read_csv_rows(path)
    if header[:4] != ["id", "proxy", "proxy_cal", "loss"]:
        raise CheckFailed(f"{path}: header {header}")
    cols = list(zip(*rows))
    return {
        "ids": list(cols[0]),
        "proxy": np.array(cols[1], dtype=float),
        "proxy_cal": np.array(cols[2], dtype=float),
        "loss": np.array(cols[3], dtype=float),
    }


# -- partition -------------------------------------------------------------------


def check_covers(pool_ids: list[str], part: Partition) -> None:
    """The partition lists every pool id exactly once, in pool order."""
    if part.ids != list(pool_ids):
        extra = set(part.ids) - set(pool_ids)
        raise CheckFailed(
            f"partition ids differ from the pool ({len(part.ids)} vs {len(pool_ids)} "
            f"rows, {len(extra)} unknown)"
        )
    present = np.unique(part.labels)
    if present[0] != 0 or present[-1] != present.size - 1:
        raise CheckFailed("stratum labels are not 0..H-1")


def _sse(values: np.ndarray, labels: np.ndarray, n_strata: int) -> float:
    counts = np.bincount(labels, minlength=n_strata)
    means = np.bincount(labels, weights=values, minlength=n_strata) / np.maximum(counts, 1)
    return float(np.sum((values - means[labels]) ** 2))


def _segment_sse(u: np.ndarray, w: np.ndarray) -> float:
    if u.size == 0:
        return 0.0
    mean = float(np.dot(w, u) / w.sum())
    return float(np.dot(w, (u - mean) ** 2))


def _equal_width_labels(values: np.ndarray, n_bins: int) -> np.ndarray:
    lo, hi = float(values.min()), float(values.max())
    width = (hi - lo) / n_bins
    raw = np.clip(np.floor((values - lo) / width).astype(np.int64), 0, n_bins - 1)
    used, labels = np.unique(raw, return_inverse=True)
    return labels.astype(np.int64)


def check_kmeans(values: np.ndarray, labels: np.ndarray, n_strata: int) -> None:
    """Exact 1-D k-means: contiguous increasing intervals, locally and
    globally no worse than simple alternatives.

    * stratum ``h`` lies wholly below stratum ``h + 1``;
    * moving one distinct value across any boundary does not lower the
      within-stratum SSE;
    * the SSE is at most that of equal-width and equal-count partitions.
    """
    if int(labels.max()) + 1 != n_strata or np.unique(labels).size != n_strata:
        raise CheckFailed(f"expected {n_strata} nonempty strata")
    lo = np.full(n_strata, np.inf)
    hi = np.full(n_strata, -np.inf)
    np.minimum.at(lo, labels, values)
    np.maximum.at(hi, labels, values)
    for h in range(n_strata - 1):
        if not hi[h] < lo[h + 1]:
            raise CheckFailed(
                f"strata {h} and {h + 1} are not increasing intervals "
                f"(max {hi[h]!r} >= min {lo[h + 1]!r})"
            )
    u, inv, w = np.unique(values, return_inverse=True, return_counts=True)
    w = w.astype(float)
    lab_u = np.empty(u.size, dtype=np.int64)
    lab_u[inv] = labels
    starts = np.searchsorted(lab_u, np.arange(n_strata + 1))
    total = _sse(values, labels, n_strata)
    tol = 1e-9 * max(total, 1e-300)
    for h in range(1, n_strata):
        a, b, c = starts[h - 1], starts[h], starts[h + 1]
        here = _segment_sse(u[a:b], w[a:b]) + _segment_sse(u[b:c], w[b:c])
        for moved in (b - 1, b + 1):
            if not (a < moved < c):
                continue  # the move would empty a stratum
            alt = _segment_sse(u[a:moved], w[a:moved]) + _segment_sse(u[moved:c], w[moved:c])
            if alt < here - tol:
                raise CheckFailed(
                    f"moving boundary {h} to distinct value {moved} lowers the SSE "
                    f"by {here - alt:.3e}"
                )
    order = np.argsort(values, kind="stable")
    equal_count = np.empty(values.size, dtype=np.int64)
    equal_count[order] = np.arange(values.size) * n_strata // values.size
    for name, alt_labels in (
        ("equal-width", _equal_width_labels(values, n_strata)),
        ("equal-count", equal_count),
    ):
        alt = _sse(values, alt_labels, int(alt_labels.max()) + 1)
        if total > alt + tol:
            raise CheckFailed(f"k-means SSE {total:.6e} exceeds the {name} SSE {alt:.6e}")


def check_bins(values: np.ndarray, labels: np.ndarray, n_bins: int) -> None:
    """Equal-width bins: ``floor((v - min) / width)``, empty bins merged."""
    expected = _equal_width_labels(values, n_bins)
    bad = np.flatnonzero(expected != labels)
    if bad.size:
        i = int(bad[0])
        raise CheckFailed(
            f"{bad.size} unit(s) in the wrong bin; first at row {i}: "
            f"value {values[i]!r} labelled {labels[i]}, expected {expected[i]}"
        )


# -- allocation and worksheet ------------------------------------------------------


def plugin_sds_accuracy(proxy: np.ndarray, labels: np.ndarray, n_strata: int) -> np.ndarray:
    """Plug-in SD of a 0/1 loss per stratum: sqrt(zbar (1 - zbar))."""
    zbar = np.bincount(labels, weights=proxy, minlength=n_strata) / np.bincount(labels, minlength=n_strata)
    return np.sqrt(zbar * (1.0 - zbar))


def plugin_sds_brier(scores: np.ndarray, labels: np.ndarray, n_strata: int) -> np.ndarray:
    """Plug-in SD of ``(1 - s_label)^2`` per stratum from the K-class scores."""
    per_class = (1.0 - scores) ** 2
    z1 = np.einsum("ik,ik->i", scores, per_class)
    z2 = np.einsum("ik,ik->i", scores, per_class**2)
    counts = np.bincount(labels, minlength=n_strata)
    m1 = np.bincount(labels, weights=z1, minlength=n_strata) / counts
    m2 = np.bincount(labels, weights=z2, minlength=n_strata) / counts
    return np.sqrt(np.maximum(m2 - m1 * m1, 0.0))


def check_allocation(n_h: np.ndarray, sizes: np.ndarray, sds: np.ndarray, budget: int) -> None:
    """Neyman allocation: sums to the budget, ``2 <= n_h <= N_h``, and
    within 1 of ``budget * N_h S_h / sum(N S)`` where no floor or cap binds."""
    n_h = np.asarray(n_h, dtype=np.int64)
    if n_h.shape != sizes.shape:
        raise CheckFailed(f"{n_h.size} allocations for {sizes.size} strata")
    if int(n_h.sum()) != budget:
        raise CheckFailed(f"allocation sums to {int(n_h.sum())}, budget is {budget}")
    floors = np.minimum(2, sizes)
    if np.any(n_h < floors) or np.any(n_h > sizes):
        raise CheckFailed(f"allocation {n_h.tolist()} outside [2, N_h] for sizes {sizes.tolist()}")
    weight = sizes * sds
    target = budget * weight / weight.sum()
    if np.all((target >= floors) & (target <= sizes)):
        off = np.abs(n_h - target)
        if np.any(off > 1.0 + 1e-9):
            h = int(np.argmax(off))
            raise CheckFailed(
                f"stratum {h}: n_h={n_h[h]} is {off[h]:.3f} from the Neyman target {target[h]:.3f}"
            )


def check_worksheet(ws: Worksheet, part: Partition, n_h: np.ndarray) -> None:
    """Each sampled id's stratum and pi agree with ``partition.csv`` and the plan."""
    stratum_of = dict(zip(part.ids, part.labels.tolist()))
    sizes = np.bincount(part.labels)
    if len(set(ws.ids)) != len(ws.ids):
        raise CheckFailed("worksheet lists an id twice")
    for uid, h, pi in zip(ws.ids, ws.strata.tolist(), ws.pi.tolist()):
        if uid not in stratum_of:
            raise CheckFailed(f"worksheet id {uid!r} is not in the pool")
        if stratum_of[uid] != h:
            raise CheckFailed(f"worksheet puts {uid!r} in stratum {h}, partition in {stratum_of[uid]}")
        if not _close(pi, n_h[h] / sizes[h], rel=1e-12):
            raise CheckFailed(f"{uid!r}: pi={pi!r}, expected {n_h[h]}/{sizes[h]}")
    drawn = np.bincount(ws.strata, minlength=sizes.size)
    if not np.array_equal(drawn, n_h):
        raise CheckFailed(f"worksheet draws {drawn.tolist()} per stratum, plan says {list(n_h)}")


# -- estimates -------------------------------------------------------------------------


def stratified_theta_se(values: np.ndarray, strata: np.ndarray, pi: np.ndarray, pop_size: int):
    """HT mean ``sum(v / pi) / N`` and the stratified SE with FPC, via ``math.fsum``."""
    theta = math.fsum((values / pi).tolist()) / pop_size
    var = []
    for h in np.unique(strata):
        v = values[strata == h].tolist()
        n_h = len(v)
        size_h = n_h / float(pi[strata == h][0])
        mean = math.fsum(v) / n_h
        s2 = math.fsum((x - mean) ** 2 for x in v) / (n_h - 1)
        var.append((size_h / pop_size) ** 2 * (1.0 - n_h / size_h) * s2 / n_h)
    return theta, math.sqrt(math.fsum(var))


def _check_report(name: str, rep: dict, theta: float, se: float, truth: float, n: int, pop: int) -> None:
    if rep is None:
        raise CheckFailed(f"report has no {name} estimate")
    if rep["n"] != n or rep["pop_size"] != pop:
        raise CheckFailed(f"{name}: n/pop_size {rep['n']}/{rep['pop_size']}, expected {n}/{pop}")
    if not _close(rep["theta"], theta):
        raise CheckFailed(f"{name}: theta {rep['theta']!r}, recomputed {theta!r}")
    if not _close(rep["se"], se):
        raise CheckFailed(f"{name}: se {rep['se']!r}, recomputed {se!r}")
    lo, hi = rep["ci"]
    if not (_close(lo, theta - Z_975 * se) and _close(hi, theta + Z_975 * se)):
        raise CheckFailed(f"{name}: ci {rep['ci']} is not theta -/+ 1.96 se")
    if abs(theta - truth) > THETA_SE_LIMIT * se:
        raise CheckFailed(
            f"{name}: true pool mean {truth:.6f} is {abs(theta - truth) / se:.1f} SE from theta"
        )


def check_estimate(report: dict, ws: Worksheet, loss: np.ndarray, proxy: np.ndarray, index: dict) -> None:
    """HT and DF theta and SE against ``fsum`` recomputations; the true pool
    mean within 5 SE.  ``loss``/``proxy`` are the pool's columns, ``index``
    maps id to row."""
    rows = np.array([index[u] for u in ws.ids], dtype=np.int64)
    pop = loss.size
    truth = math.fsum(loss.tolist()) / pop
    theta, se = stratified_theta_se(loss[rows], ws.strata, ws.pi, pop)
    _check_report("ht", report.get("ht"), theta, se, truth, rows.size, pop)
    resid = loss[rows] - proxy[rows]
    r_theta, r_se = stratified_theta_se(resid, ws.strata, ws.pi, pop)
    theta_df = math.fsum(proxy.tolist()) / pop + r_theta
    _check_report("df", report.get("df"), theta_df, r_se, truth, rows.size, pop)


# -- calibration -------------------------------------------------------------------------


def pava(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares nondecreasing step fit of ``y`` on ``x``: (breakpoints, values)."""
    order = np.argsort(x, kind="stable")
    xs, ys = x[order], y[order]
    ux, start, counts = np.unique(xs, return_index=True, return_counts=True)
    sums = np.add.reduceat(ys, start)
    block_sum: list[float] = []
    block_weight: list[float] = []
    lengths: list[int] = []
    for s, c in zip(sums.tolist(), counts.tolist()):
        wgt, length = float(c), 1
        # merge while the previous block's mean is >= this block's mean
        while block_sum and block_sum[-1] * wgt >= s * block_weight[-1]:
            s += block_sum.pop()
            wgt += block_weight.pop()
            length += lengths.pop()
        block_sum.append(s)
        block_weight.append(wgt)
        lengths.append(length)
    fitted = np.repeat(np.array(block_sum) / np.array(block_weight), lengths)
    return ux, fitted


def step_apply(breakpoints: np.ndarray, values: np.ndarray, x: np.ndarray) -> np.ndarray:
    pos = np.searchsorted(breakpoints, x, side="right") - 1
    return values[np.clip(pos, 0, values.size - 1)]


def check_calibration(map_doc: dict, pool_ids: list[str], pool_proxy: np.ndarray,
                      pool_loss: np.ndarray, cal: dict) -> None:
    """The isotonic map is monotone and matches the benchmark's own PAVA on
    the calibration half; ``calibrated.csv`` is the other half, with
    ``proxy_cal`` equal to the map applied to the proxy."""
    bp = np.asarray(map_doc["breakpoints"], dtype=float)
    vals = np.asarray(map_doc["values"], dtype=float)
    if bp.size == 0 or bp.shape != vals.shape:
        raise CheckFailed("map.json breakpoints and values misaligned")
    if np.any(np.diff(bp) <= 0) or np.any(np.diff(vals) < 0):
        raise CheckFailed("isotonic map is not monotone")
    n = len(pool_ids)
    index = {u: i for i, u in enumerate(pool_ids)}
    try:
        ev = np.array([index[u] for u in cal["ids"]], dtype=np.int64)
    except KeyError as e:
        raise CheckFailed(f"calibrated.csv has unknown id {e}") from None
    if ev.size != n // 2 or np.any(np.diff(ev) <= 0):
        raise CheckFailed(f"calibrated.csv is not an ordered half of the pool ({ev.size} rows)")
    if not (np.array_equal(cal["proxy"], pool_proxy[ev]) and np.array_equal(cal["loss"], pool_loss[ev])):
        raise CheckFailed("calibrated.csv proxy/loss differ from the pool")
    if not np.array_equal(cal["proxy_cal"], step_apply(bp, vals, cal["proxy"])):
        raise CheckFailed("proxy_cal is not the map applied to the proxy")
    held = np.ones(n, dtype=bool)
    held[ev] = False
    ref_x, ref_y = pava(pool_proxy[held], pool_loss[held])
    grid = np.union1d(ref_x, bp)
    gap = np.abs(step_apply(bp, vals, grid) - step_apply(ref_x, ref_y, grid))
    if gap.max() > 1e-9:
        raise CheckFailed(f"isotonic map differs from the reference PAVA fit by {gap.max():.3e}")


# -- simulation ------------------------------------------------------------------------------


def largest_remainder(targets: np.ndarray, budget: int) -> np.ndarray:
    base = np.floor(targets).astype(np.int64)
    order = np.lexsort((np.arange(targets.size), -(targets - base)))
    base[order[: budget - int(base.sum())]] += 1
    return base


def design_variances(spec: dict, proxy: np.ndarray, loss: np.ndarray) -> dict[str, float]:
    """Exact design variance of each simulated method on the spec's pool.

    The pool's proxy takes one value per level and ``strata`` equals the
    number of levels, so each level is its own stratum.  Both estimators
    are design-unbiased, so the variance is the MSE the simulation should
    reproduce.
    """
    n = int(spec["budget"])
    levels, strata = np.unique(proxy, return_inverse=True)
    if levels.size != int(spec["strata"]):
        raise ValueError("reference needs one stratum per proxy level")
    pop = loss.size
    sizes = np.bincount(strata)
    out = {}
    for m in spec["methods"]:
        est = m.get("estimator", "ht")
        vals = loss - proxy if est == "df" else loss
        if m.get("design", "srs") == "srs":
            out[m["name"]] = (1.0 - n / pop) / n * float(np.var(vals, ddof=1))
            continue
        s_h = np.array([np.std(vals[strata == h], ddof=1) for h in range(levels.size)])
        if m.get("allocation", "prop") == "prop":
            weight = sizes.astype(float)
        elif m.get("sd_source", "true") == "true":
            weight = sizes * np.array([np.std(loss[strata == h], ddof=1) for h in range(levels.size)])
        else:
            weight = sizes * np.sqrt(levels * (1.0 - levels))
        target = n * weight / weight.sum()
        if np.any(target < 2) or np.any(target > sizes):
            raise ValueError("reference allocation assumes no floor or cap binds")
        n_h = largest_remainder(target, n)
        w = sizes / pop
        out[m["name"]] = float(np.sum(w**2 * (1.0 - n_h / sizes) * s_h**2 / n_h))
    return out


def check_simulation(results: dict, spec: dict, proxy: np.ndarray, loss: np.ndarray) -> None:
    """Per method: MSE within 5 MC SEs of the exact design variance, bias
    within 5 MC SEs of 0, coverage in ``COVERAGE_BAND``."""
    truth = math.fsum(loss.tolist()) / loss.size
    variances = design_variances(spec, proxy, loss)
    for name, var in variances.items():
        r = results.get(name)
        if r is None:
            raise CheckFailed(f"no result for method {name!r}")
        if r["reps"] != spec["reps"]:
            raise CheckFailed(f"{name}: {r['reps']} reps, spec asks {spec['reps']}")
        if not _close(r["target"], truth):
            raise CheckFailed(f"{name}: target {r['target']!r}, pool mean {truth!r}")
        if abs(r["empirical_mse"] - var) > MC_SE_LIMIT * r["mse_mc_se"]:
            raise CheckFailed(
                f"{name}: MSE {r['empirical_mse']:.4e} is "
                f"{abs(r['empirical_mse'] - var) / r['mse_mc_se']:.1f} MC SEs from the exact {var:.4e}"
            )
        if abs(r["bias"]) > MC_SE_LIMIT * r["bias_mc_se"]:
            raise CheckFailed(f"{name}: bias {r['bias']:.3e} beyond {MC_SE_LIMIT} MC SEs")
        if not COVERAGE_BAND[0] <= r["coverage"] <= COVERAGE_BAND[1]:
            raise CheckFailed(f"{name}: coverage {r['coverage']} outside {COVERAGE_BAND}")


def load_json(path: Path) -> dict:
    return json.loads(Path(path).read_text())
