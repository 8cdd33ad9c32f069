"""Slow reference implementations the tests check the package against.

Everything in here is deliberately naive: exhaustive enumeration, direct
transcription of textbook sums, or brute-force search.  None of it shares
code with the package, so agreement is meaningful evidence -- except the
CSV reference, which calls the package's cell and column checks (see
there).
"""

import csv
import io
import itertools
import json
import math
from dataclasses import dataclass
from itertools import compress, islice, repeat
from pathlib import Path

import numpy as np

from strateval import tables
from strateval.dataset import Population, _proxy_column, check_losses
from strateval.errors import ParseError
from strateval.losses import LossKind


# Seeds of one to five 32-bit words, at and around the word boundaries
EDGE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**96 + 11, 2**130 + 7)


# -- clustering ---------------------------------------------------------------


def best_interval_partition(values, n_blocks):
    """Exhaustively minimize within-block sum of squares over every way of
    cutting the sorted values into ``n_blocks`` contiguous nonempty runs.

    Cuts are placed between *positions*, so duplicate values may be split
    across blocks — a strictly larger search space than the package's
    pooled DP explores, which makes the equality check sharper.
    """
    v = np.sort(np.asarray(values, dtype=float))
    n = v.size
    pre = np.concatenate([[0.0], np.cumsum(v)])
    pre2 = np.concatenate([[0.0], np.cumsum(v * v)])

    def seg(a, b):  # within-SS of v[a:b]
        s = pre[b] - pre[a]
        return (pre2[b] - pre2[a]) - s * s / (b - a)

    best = math.inf
    for cuts in itertools.combinations(range(1, n), n_blocks - 1):
        edges = (0, *cuts, n)
        cost = sum(seg(edges[k], edges[k + 1]) for k in range(n_blocks))
        if cost < best:
            best = cost
    return best


def quadratic_dp_partition_cost(values, n_blocks):
    """O(H * M^2) dynamic program over pooled distinct values.

    Same recurrence as the package's solver but with plain full-range
    minimization instead of divide-and-conquer, so it cross-checks the
    monotone-argmin optimization on sizes exhaustion can't reach.
    """
    v = np.sort(np.asarray(values, dtype=float))
    u, counts = np.unique(v, return_counts=True)
    w = counts.astype(float)
    m = u.size
    cw = np.concatenate([[0.0], np.cumsum(w)])
    cs = np.concatenate([[0.0], np.cumsum(w * u)])
    cq = np.concatenate([[0.0], np.cumsum(w * u * u)])

    def seg(a, b):  # pooled within-SS of distinct values u[a:b]
        s = cs[b] - cs[a]
        return (cq[b] - cq[a]) - s * s / (cw[b] - cw[a])

    dp = np.array([seg(0, k + 1) for k in range(m)])
    for h in range(2, n_blocks + 1):
        nxt = np.full(m, math.inf)
        for k in range(h - 1, m):
            nxt[k] = min(dp[j - 1] + seg(j, k + 1) for j in range(h - 1, k + 1))
        dp = nxt
    return float(dp[m - 1])


def within_cluster_ss(values, labels):
    """Plain within-cluster sum of squares, sum_h sum_i (v_i - vbar_h)^2."""
    v = np.asarray(values, dtype=float)
    labels = np.asarray(labels)
    return sum(
        float(np.sum((v[labels == h] - v[labels == h].mean()) ** 2))
        for h in np.unique(labels)
    )


# -- isotonic regression ------------------------------------------------------


def best_monotone_fit(y, weights=None):
    """Exhaustive least-squares nondecreasing fit.

    Tries every composition of the points into contiguous blocks, keeps the
    compositions whose block means are nondecreasing (each is a feasible
    step fit and block means are optimal for fixed blocks), and returns the
    (fitted vector, cost) of the cheapest.  The optimum's own level sets
    are one such composition, so the minimum is the true isotonic fit.
    """
    y = np.asarray(y, dtype=float)
    w = np.ones_like(y) if weights is None else np.asarray(weights, dtype=float)
    k = y.size
    best_cost = math.inf
    best_fit = None
    for mask in range(1 << max(k - 1, 0)):
        edges = [0] + [j + 1 for j in range(k - 1) if mask >> j & 1] + [k]
        means = [np.average(y[a:b], weights=w[a:b]) for a, b in zip(edges, edges[1:])]
        if any(b < a - 1e-12 for a, b in zip(means, means[1:])):
            continue
        cost = sum(
            float(np.sum(w[a:b] * (y[a:b] - m) ** 2))
            for (a, b), m in zip(zip(edges, edges[1:]), means)
        )
        if cost < best_cost - 1e-12:
            best_cost = cost
            best_fit = np.concatenate(
                [np.full(b - a, m) for (a, b), m in zip(zip(edges, edges[1:]), means)]
            )
    return best_fit, best_cost


# -- design MSEs by complete enumeration --------------------------------------


def enumerate_srs_mse(losses, n, proxies=None):
    """Exact design MSE of the estimator under SRS by averaging over every
    one of the C(N, n) equally likely samples.

    With ``proxies`` the estimator is the difference estimator (pool proxy
    mean plus expanded residual mean); without, the plain expansion
    estimator, which under SRS is the sample mean.
    """
    z = np.asarray(losses, dtype=float)
    target = z.mean()
    inds = range(z.size)
    if proxies is None:
        ests = [z[list(s)].mean() for s in itertools.combinations(inds, n)]
    else:
        zh = np.asarray(proxies, dtype=float)
        base = zh.mean()
        ests = [
            base + (z[list(s)] - zh[list(s)]).mean()
            for s in itertools.combinations(inds, n)
        ]
    return float(np.mean([(e - target) ** 2 for e in ests]))


def enumerate_ssrs_mse(losses, assignment, n_h, proxies=None):
    """Exact design MSE under stratified SRS: average over the cartesian
    product of all within-stratum subsets."""
    z = np.asarray(losses, dtype=float)
    a = np.asarray(assignment)
    n_strata = int(a.max()) + 1
    target = z.mean()
    weights = [np.sum(a == h) / z.size for h in range(n_strata)]
    per_stratum = []
    for h in range(n_strata):
        members = np.flatnonzero(a == h)
        per_stratum.append(
            [np.asarray(s) for s in itertools.combinations(members, int(n_h[h]))]
        )
    if proxies is not None:
        zh = np.asarray(proxies, dtype=float)
        base = zh.mean()
        vals = z - zh
    else:
        base = 0.0
        vals = z
    sq = []
    for combo in itertools.product(*per_stratum):
        est = base + sum(
            w * vals[s].mean() for w, s in zip(weights, combo)
        )
        sq.append((est - target) ** 2)
    return float(np.mean(sq))


def textbook_stratified_estimate(values, strata, sizes):
    """Stratified mean and plug-in SE, summed stratum by stratum:
    ``sum_h (N_h/N) ybar_h`` and
    ``sqrt(sum_h (N_h/N)^2 (1 - n_h/N_h) s_h^2 / n_h)``."""
    v = np.asarray(values, dtype=float)
    strata = np.asarray(strata)
    pop = float(sum(sizes))
    mean = var = 0.0
    for h, size in enumerate(sizes):
        y = v[strata == h]
        mean += size / pop * y.mean()
        var += (size / pop) ** 2 * (1 - y.size / size) * np.var(y, ddof=1) / y.size
    return mean, math.sqrt(var)


def enumerate_srs_estimates(losses, n, proxies=None):
    """All equally likely estimator values under SRS (for unbiasedness)."""
    z = np.asarray(losses, dtype=float)
    if proxies is None:
        return [z[list(s)].mean() for s in itertools.combinations(range(z.size), n)]
    zh = np.asarray(proxies, dtype=float)
    return [
        zh.mean() + (z[list(s)] - zh[list(s)]).mean()
        for s in itertools.combinations(range(z.size), n)
    ]


def two_group_losses(sizes, means, sds):
    """Losses with exact per-stratum mean and SD (divisor N_h - 1)."""
    out = []
    for n_h, mu, sd in zip(sizes, means, sds):
        base = np.tile([1.0, -1.0], n_h // 2)
        base *= sd * np.sqrt((n_h - 1) / np.sum(base**2)) if sd else 0.0
        out.append(mu + base)
    return np.concatenate(out)


# -- sampling -------------------------------------------------------------------


def srs_indices(rng, n_population, n_sample):
    """Partial Fisher-Yates over ``0..n_population-1``, one step at a time.

    Step ``j`` swaps position ``j`` with position ``j + o_j``, the offsets
    being one ``rng.integers`` call on the spans ``N, N-1, ...``; only the
    touched entries of the virtual permutation are kept, in a dict.  This
    is the selection rule of the reproducibility contract, written the
    plain way, for the batched draw to be checked against.
    """
    if not 0 <= n_sample <= n_population:
        raise ValueError(f"sample size {n_sample} outside [0, {n_population}]")
    if n_sample == 0:
        return np.empty(0, dtype=np.int64)
    spans = np.arange(n_population, n_population - n_sample, -1, dtype=np.int64)
    offsets = rng.integers(spans)  # offsets[j] uniform in [0, N - j)
    out = np.empty(n_sample, dtype=np.int64)
    swapped: dict[int, int] = {}
    for j in range(n_sample):
        k = j + int(offsets[j])
        out[j] = swapped.get(k, k)
        swapped[k] = swapped.get(j, j)
    return out


def split_eval(seed, n):
    """Positions of ``calibrate``'s evaluation half of ``n`` units, straight
    from numpy: the first ``n // 2`` of a stable argsort of
    ``Generator(PCG64(seed)).random(n)``, in ascending order."""
    u = np.random.Generator(np.random.PCG64(seed)).random(n)
    return np.sort(np.argsort(u, kind="stable")[: n // 2])


# The draw's counter-based stream, one Python int at a time
GAMMA = 0x9E3779B97F4A7C15
MASK64 = 2**64 - 1


def mix64(z):
    """SplitMix64's finalizer."""
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & MASK64
    z = (z ^ z >> 27) * 0x94D049BB133111EB & MASK64
    return z ^ z >> 31


def fold_key(seed, *keys):
    """``derive_seed(seed, *keys)``: the seed's little-endian 64-bit limbs (0
    is one limb), then the keys, folded by ``h <- mix64((h ^ x) + GAMMA)``
    into a state that starts at the limb count."""
    limbs = [seed & MASK64]
    while seed >> 64 * len(limbs):
        limbs.append(seed >> 64 * len(limbs) & MASK64)
    h = len(limbs)
    for x in limbs + [int(k) for k in keys]:
        h = mix64((h ^ x) + GAMMA & MASK64)
    return h


def stream_word(key, counter):
    """Word ``counter`` of the stream keyed ``key``: SplitMix64's output ``counter``."""
    return mix64(key + counter * GAMMA & MASK64)


def bounded(key, step, span):
    """Step ``step``'s offset below ``span`` and the lane it came from:
    Lemire's 32-bit draw on the high half of word ``lane * 2**32 + step + 1``,
    at the first lane that does not reject."""
    lane = 0
    while True:
        m = (stream_word(key, (lane << 32) + step + 1) >> 32) * span
        if m & 0xFFFFFFFF >= (1 << 32) % span:
            return m >> 32, lane
        lane += 1


class CounterStream:
    """Stands in for a generator whose ``integers(spans)`` gives the offsets
    of steps 0, 1, ... of the stream keyed ``key``."""

    def __init__(self, key):
        self.key = key

    def integers(self, spans):
        return np.array([bounded(self.key, j, int(s))[0] for j, s in enumerate(spans)],
                        dtype=np.int64)


def stratified_slots(seed, sizes, n_h):
    """One stratified draw as slots ``sum(sizes[:h]) + position``: stratum
    ``h`` runs :func:`srs_indices` on the stream keyed ``fold_key(seed, h)``."""
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]]).astype(np.int64)
    parts = []
    for h, (size, k) in enumerate(zip(sizes, n_h)):
        stream = CounterStream(fold_key(int(seed), h))
        parts.append(starts[h] + srs_indices(stream, int(size), int(k)))
    return np.concatenate(parts)


# -- JSONL ingest -------------------------------------------------------------------


def _jsonl_records(path):
    """Physical line number and ``json.loads`` value of each line that is not
    a comment (``#``) or blank, one line at a time."""
    with open(path, encoding="utf-8-sig", newline="") as f:
        for lineno, line in enumerate(f, start=1):
            if line.strip() and not line.startswith("#"):
                yield lineno, json.loads(line)


def _known_fields_only(lineno, rec, known):
    """Refuse a record with a field outside ``known`` with a ValueError."""
    unknown = set(rec) - known
    if unknown:
        raise ValueError(f"line {lineno}: unknown field {min(unknown)!r}")


def ingest_jsonl(path):
    """The columns of a valid JSONL pool, read record by record as the
    package once did: each number through ``str()`` and back.

    Returns ids, proxy, loss (NaN where null or absent) and proxy_cal
    (None when the records carry none).  A field other than those is
    refused with a ValueError.
    """
    ids, proxy, loss, proxy_cal = [], [], [], []
    for lineno, rec in _jsonl_records(path):
        _known_fields_only(lineno, rec, {"id", "proxy", "proxy_cal", "loss"})
        ids.append(str(rec["id"]).strip())
        proxy.append(float(str(rec["proxy"])))
        loss.append(math.nan if rec.get("loss") is None else float(str(rec["loss"])))
        if "proxy_cal" in rec:
            proxy_cal.append(float(str(rec["proxy_cal"])))
    return {
        "ids": tuple(ids),
        "proxy": np.array(proxy),
        "loss": np.array(loss),
        "proxy_cal": np.array(proxy_cal) if proxy_cal else None,
    }


def attach_scores(ids, path):
    """Labels (-1 where unknown) and the ``(N, K)`` score matrix (NaN rows
    for units without a record) of a valid class-score sidecar, record by
    record; a field other than id, label and scores is refused with a
    ValueError."""
    row = {uid: i for i, uid in enumerate(ids)}
    labels = np.full(len(ids), -1, dtype=np.int64)
    scores = None
    for lineno, rec in _jsonl_records(path):
        _known_fields_only(lineno, rec, {"id", "label", "scores"})
        i = row[str(rec["id"]).strip()]
        if scores is None:
            scores = np.full((len(ids), len(rec["scores"])), math.nan)
        scores[i] = [float(str(v)) for v in rec["scores"]]
        if rec.get("label") is not None:
            labels[i] = rec["label"]
    return labels, scores


# -- CSV ingest -----------------------------------------------------------------------
#
# The whole-file CSV reader the package had before it read a batch of lines
# at a time, kept as the reference for the batched one.  It decides how the
# file splits into rows and which error wins; the checks of single cells and
# columns (the id rule, number parsing, range checks) are the package's,
# which the batched read calls unchanged.


def _content(line):
    """Whether a line is read at all: comment and blank lines are skipped."""
    return not line.startswith("#") and not line.isspace() and line != ""


def _records(lines):
    """Physical line number and text (line ending kept) of each line not skipped."""
    for lineno, raw in enumerate(lines, start=1):
        if _content(raw):
            yield lineno, raw


@dataclass
class CsvTable:
    """``header`` holds the stripped column names, ``lines[i]`` the physical
    line of data row ``i`` and ``columns[name]`` the raw text cells of a
    column, in row order."""

    path: Path
    header: list
    header_line: int
    lines: list
    columns: dict

    def where(self, i):
        return f"{self.path} line {self.lines[i]}"

    def require(self, *names):
        for name in names:
            if name not in self.columns:
                raise ParseError(f"{self.path} line {self.header_line}: missing column {name!r}")


def read_csv(path):
    """Read a valid-UTF-8 CSV table whole: header, then rows of exactly the header's width."""
    path = Path(path)
    with open(path, encoding="utf-8-sig", newline="") as f:
        text = f.read()
    if "\r" in text or "\0" in text:
        return _csv_table(path, text)
    lines = text.split("\n")
    keep = [line != "" and line[0] != "#" and not line.isspace() for line in lines]
    rows = list(compress(lines, keep))
    if not rows:
        raise ParseError(f"{path}: no header row")
    body = ",".join(islice(rows, 1, None))
    if '"' in rows[0] or '"' in body or max(map(len, rows)) > csv.field_size_limit():
        return _csv_table(path, "\n".join(lines))
    linenos = list(compress(itertools.count(1), keep))
    header_line = linenos.pop(0)
    header = _header(path, rows.pop(0).split(","), header_line)
    if not rows:
        raise ParseError(f"{path}: no data rows")
    width = len(header)
    if set(map(str.count, rows, repeat(","))) != {width - 1}:
        for i, row in enumerate(rows):
            if row.count(",") != width - 1:
                raise _ragged(path, linenos[i], width, row.count(",") + 1)
    cells = ",".join(rows).split(",")
    return CsvTable(path, header, header_line, linenos,
                    {name: cells[j::width] for j, name in enumerate(header)})


def _csv_table(path, text):
    """:func:`read_csv` by the csv module, one physical line at a time."""
    linenos = []

    def records():
        for lineno, raw in _records(io.StringIO(text, newline="")):
            linenos.append(lineno)
            yield raw

    reader = csv.reader(records())
    rows, lines, used = [], [], 0
    try:
        for row in reader:
            rows.append(row)
            lines.append(linenos[used])
            used = reader.line_num
    except csv.Error as e:
        raise ParseError(f"{path} line {linenos[reader.line_num - 1]}: {e}") from None
    if not rows:
        raise ParseError(f"{path}: no header row")
    header_line = lines.pop(0)
    header = _header(path, rows.pop(0), header_line)
    if not rows:
        raise ParseError(f"{path}: no data rows")
    width = len(header)
    for i, row in enumerate(rows):
        if len(row) != width:
            raise _ragged(path, lines[i], width, len(row))
    return CsvTable(path, header, header_line, lines, dict(zip(header, map(list, zip(*rows)))))


def _header(path, cells, line):
    header = [h.strip() for h in cells]
    if len(set(header)) < len(header):
        name = next(h for i, h in enumerate(header) if h in header[:i])
        raise ParseError(f"{path} line {line}: repeated column {name!r}")
    return header


def _ragged(path, line, width, got):
    return ParseError(f"{path} line {line}: expected {width} fields, got {got}")


def ingest_csv(path, kind):
    """The Population of a CSV pool, read whole and checked column by column:
    ids, proxy, proxy_cal, then loss, each parsed and then range-checked."""
    kind = LossKind(kind)
    t = read_csv(path)
    for h in t.header:
        if h not in ("id", "proxy", "proxy_cal", "loss"):
            raise ParseError(f"{path} line {t.header_line}: unknown column {h!r}")
    t.require("id", "proxy")
    c, where = t.columns, t.where
    uids = tables.ids(c["id"], where)
    proxy = _proxy_column(kind, tables.numbers(c["proxy"], "proxy", where), "proxy", where)
    proxy_cal = c.get("proxy_cal")
    if proxy_cal is not None:
        proxy_cal = _proxy_column(kind, tables.numbers(proxy_cal, "proxy_cal", where),
                                  "proxy_cal", where)
    losses, present = tables.optional_numbers(c.get("loss", [""] * len(t.lines)), "loss", where)
    at = np.flatnonzero(present)
    check_losses(kind, losses[at], lambda j: where(int(at[j])))
    return Population(ids=uids, proxy=proxy, loss=losses, loss_kind=kind, proxy_cal=proxy_cal)
