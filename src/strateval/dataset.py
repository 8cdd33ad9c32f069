"""Evaluation-pool data model and file ingest.

A *population* is the full pool of N unlabeled (or partially labeled)
examples the model will be judged on.  Canonical unit order is file
order; every downstream component (stratification, sampling, estimation)
indexes units by that order, so two ingests of the same file are
interchangeable.

Dataset files are CSV with header ``id,proxy[,proxy_cal][,loss]`` or
JSONL with the same field names.  A class-score sidecar (JSONL records
``{"id":…, "label":…, "scores":[…]}``) can be attached to supply per-unit
predictive distributions.  An unknown column or field is a parse error in
all three.  They are read through the one table reader in
:mod:`strateval.tables`, which owns the rules for ``#`` comment lines,
physical line numbers in errors, and ids.  A population's ids are one
:class:`strateval.tables.Ids` column, UTF-8 bytes and their offsets,
built a batch of records at a time: the pool never holds a ``str`` per
unit.
"""

from __future__ import annotations

import codecs
from dataclasses import InitVar, dataclass, replace
from itertools import chain, repeat
from operator import contains, itemgetter
from pathlib import Path

import numpy as np

from . import tables
from .errors import ConsistencyError, ParseError, PreconditionError
from .losses import LossKind, valid_score_rows


def _proxy_bounds(kind: LossKind) -> tuple[float, float]:
    # accuracy and squared error live in [0,1]; cross-entropy is an
    # unbounded nonnegative loss.
    if kind is LossKind.CROSS_ENTROPY:
        return 0.0, np.inf
    return 0.0, 1.0


def _proxy_column(kind: LossKind, v: np.ndarray, col: str, where: tables.Where) -> np.ndarray:
    lo, hi = _proxy_bounds(kind)
    span = "[0,1]" if hi == 1.0 else ">= 0"
    tables.check(np.isfinite(v) & (v >= lo) & (v <= hi), where,
                 lambda i: f"{col} {float(v[i])!r} outside {span}")
    return v


def check_losses(kind: LossKind, values, where: tables.Where) -> None:
    """Reject the first loss that is not finite or outside ``kind``'s range.

    ``where(i)`` names the place of ``values[i]`` in the error message.
    Every loss that enters the program -- from a pool file or a
    worksheet -- passes through this check.
    """
    v = np.asarray(values, dtype=float)
    finite = np.isfinite(v)
    if kind is LossKind.ACCURACY:
        ok, rule = (v == 0.0) | (v == 1.0), "accuracy loss must be 0 or 1"
    elif kind is LossKind.SQUARED_ERROR:
        ok, rule = (v >= 0.0) & (v <= 1.0), "squared-error loss must be in [0,1]"
    else:
        ok, rule = v >= 0.0, "cross-entropy loss must be >= 0"
    tables.check(finite & ok, where, lambda i: (
        f"{rule}, got {float(v[i])!r}" if finite[i] else f"loss {float(v[i])!r} is not finite"
    ))


@dataclass(eq=False)
class Population:
    """Immutable, canonically ordered pool of evaluation units.

    Attributes
    ----------
    ids : tables.Ids
        Unit identifiers in canonical (file) order: a read-only sequence of
        ``str`` held as one UTF-8 byte array and its offsets, not a ``str``
        per unit.  Any sequence of ``str`` given here is encoded into one.
    proxy : ndarray
        Designated per-unit proxy value (predicted loss scale).
    loss : ndarray
        Observed per-unit loss; NaN where not yet annotated.
    proxy_cal : ndarray or None
        Calibrated proxy column, when present in the file.
    labels, scores
        Optional class-score sidecar data: ``labels[i]`` is the true
        class (-1 if unknown) and row ``scores[i]`` of the read-only
        ``(N, K)`` matrix the predictive distribution (all NaN if the
        sidecar has no record for unit ``i``).
    """

    ids: tables.Ids
    proxy: np.ndarray
    loss: np.ndarray
    loss_kind: LossKind
    proxy_cal: np.ndarray | None = None
    labels: np.ndarray | None = None
    scores: np.ndarray | None = None
    # set where the ids are known distinct (ingest, which checked them,
    # and copies that keep them), so the ids are tested for a repeat only
    # where they can have one: construction, and ``take`` with a repeated index
    _ids_unique: InitVar[bool] = False

    def __post_init__(self, _ids_unique):
        self.ids = tables.Ids.of(self.ids)
        self.proxy = np.asarray(self.proxy, dtype=float)
        self.loss = np.asarray(self.loss, dtype=float)
        n = len(self.ids)
        if self.proxy.shape != (n,) or self.loss.shape != (n,):
            raise PreconditionError("ids, proxy, and loss lengths disagree")
        for arr in (self.proxy, self.loss, self.proxy_cal, self.labels, self.scores):
            if arr is not None:
                arr.setflags(write=False)
        if not _ids_unique and tables.may_repeat(self.ids):
            last = dict(zip(self.ids, range(n)))
            dup = next((u for i, u in enumerate(self.ids) if last[u] != i), None)
            if dup is not None:
                raise ParseError(f"duplicate id {dup!r}")

    @property
    def size(self) -> int:
        return len(self.ids)

    def get_proxy(self, column: str = "proxy") -> np.ndarray:
        """Proxy values from the designated column (``proxy`` or ``proxy_cal``)."""
        if column == "proxy":
            return self.proxy
        if column == "proxy_cal":
            if self.proxy_cal is None:
                raise PreconditionError("dataset has no proxy_cal column")
            return self.proxy_cal
        raise PreconditionError(f"unknown proxy column {column!r}")

    @property
    def has_all_losses(self) -> bool:
        return not np.any(np.isnan(self.loss))

    def finite_mean(self) -> float:
        """Mean loss over the whole pool; defined only once fully annotated."""
        if not self.has_all_losses:
            missing = int(np.isnan(self.loss).sum())
            raise PreconditionError(
                f"finite population mean undefined: {missing} units lack a loss"
            )
        return float(np.mean(self.loss))

    def take(self, indices) -> "Population":
        """Sub-population at ``indices``: positions (order preserved as given), or
        a boolean mask of the pool's length, which holds less than its positions."""
        idx = np.asarray(indices)
        if idx.dtype != bool:
            idx = idx.astype(np.int64, copy=False)
        # a mask, or nonnegative and strictly increasing positions, is distinct
        # without a pool-length count
        distinct = (idx.dtype == bool or ((idx[:1] >= 0).all() and (idx[1:] > idx[:-1]).all())
                    or (np.bincount(idx % max(self.size, 1)) <= 1).all())

        def pick(arr):
            return None if arr is None else arr[idx]

        return replace(
            self,
            ids=self.ids.take(idx),
            proxy=self.proxy[idx],
            loss=self.loss[idx],
            proxy_cal=pick(self.proxy_cal),
            labels=pick(self.labels),
            scores=pick(self.scores),
            _ids_unique=distinct,
        )

    def with_proxy_cal(self, values) -> "Population":
        values = np.array(values, dtype=float)
        if values.shape != (self.size,):
            raise PreconditionError("proxy_cal length must match population size")
        return replace(self, proxy_cal=values, _ids_unique=True)

    # -- canonical serialization ------------------------------------------

    def canonical_table(self) -> tuple[list[str], list]:
        """Header and columns of the canonical CSV, ``id,proxy[,proxy_cal],loss``,
        for :func:`strateval.tables.write_csv`; equal populations write equal bytes."""
        header = ["id", "proxy"]
        cols = [tables.writable_ids(self.ids), self.proxy]
        if self.proxy_cal is not None:
            header.append("proxy_cal")
            cols.append(self.proxy_cal)
        header.append("loss")
        cols.append(self.loss)  # NaN, a blank cell: not annotated
        return header, cols


# -- file ingest -----------------------------------------------------------

_POOL_FIELDS = ("id", "proxy", "proxy_cal", "loss")
_SIDECAR_FIELDS = ("id", "label", "scores")


def _population(kind: LossKind, where: tables.Where, uids: tables.Ids, number, optional,
                has_cal: bool) -> Population:
    """Range-check the converted columns of a pool file, column by column,
    after its ids passed the id rule and the repeat test.

    ``number(col)`` gives a converted column and ``optional(col)`` the
    values and the present-mask of the ``loss`` column, where "not
    annotated yet" is a blank CSV cell or a JSON ``None``; either raises
    the error of the column's first bad cell.
    """
    proxy = _proxy_column(kind, number("proxy"), "proxy", where)
    proxy_cal = _proxy_column(kind, number("proxy_cal"), "proxy_cal", where) if has_cal else None
    losses, present = optional("loss")
    if present.all():
        check_losses(kind, losses, where)
    else:
        at = np.flatnonzero(present)
        check_losses(kind, losses[at], lambda j: where(int(at[j])))
    return Population(ids=uids, proxy=proxy, loss=losses, loss_kind=kind, proxy_cal=proxy_cal,
                      _ids_unique=True)  # the id column refused a repeat, naming its line


def _ingest_csv(path: Path, kind: LossKind) -> Population:
    """Read a CSV pool; its numeric columns are converted a batch of lines at a time."""
    t = tables.read_csv(path, ids="id", floats=("proxy", "proxy_cal"), optional=("loss",))
    for h in t.header:
        if h not in _POOL_FIELDS:
            raise ParseError(f"{path} line {t.header_line}: unknown column {h!r}")
    t.require("id", "proxy")
    return _population(kind, t.where, t.ids(), t.numbers, t.optional_numbers,
                       "proxy_cal" in t.header)


def _bad_json_id(where: str, value: object) -> ParseError:
    """The error of a JSONL record whose id is not a JSON string (a number, null, a bool, ...)."""
    return ParseError(f"{where}: bad id {value!r} (a JSONL id must be a JSON string)")


def _check_fields(where: str, rec: dict, known: tuple[str, ...]) -> None:
    """Refuse a JSONL record with a field outside ``known``, naming the first."""
    for fld in rec:
        if fld not in known:
            raise ParseError(f"{where}: unknown field {fld!r}")


def _layout_ok(recs: list, has_cal: bool) -> bool:
    """Whether every record of a batch passes :func:`_name_bad_pool_record`'s checks, tested at once.

    A record has no unknown field when its length is the count of the
    known fields it holds, so the batch has none when the sums agree.
    """
    if set(map(type, recs)) != {dict}:
        return False
    counts = [sum(map(contains, recs, repeat(fld))) for fld in _POOL_FIELDS]
    n = len(recs)
    if counts[:3] != [n, n, n if has_cal else 0] or sum(map(len, recs)) != sum(counts):
        return False
    return set(map(type, map(itemgetter("id"), recs))) == {str}


def _name_bad_pool_record(path: Path, linenos: list[int], recs: list,
                          has_cal: bool | None) -> None:
    """Raise the error of the first record of a batch that fails a check, record by record.

    ``has_cal`` (whether the file's first record has ``proxy_cal``) is
    None only when that record is not an object, which is refused before
    it is needed.
    """
    for lineno, rec in zip(linenos, recs):
        here = f"{path} line {lineno}"
        if not isinstance(rec, dict) or "id" not in rec or "proxy" not in rec:
            raise ParseError(f"{here}: record needs 'id' and 'proxy' fields")
        if type(rec["id"]) is not str:
            raise _bad_json_id(here, rec["id"])
        if ("proxy_cal" in rec) != has_cal:
            raise ParseError(f"{here}: proxy_cal present in some records but not all")
        _check_fields(here, rec, _POOL_FIELDS)
    raise AssertionError("a batch failed its test, but none of its records did")


def _ingest_jsonl(path: Path, kind: LossKind) -> Population:
    """Read a JSONL pool a batch of records at a time, each field taken in as one column.

    A batch is tested as a whole; only when that fails are its records
    checked one by one, to name the first bad one.  Its ids and numeric
    fields are then taken in, a column at a time, as for CSV: the first
    error of each column is kept, and raised after the last record, in
    the order the columns are checked.
    """
    linenos: list[np.ndarray] = []
    uids = tables.IdColumn()
    columns = {"proxy": tables.Converted("proxy", tables.json_numbers),
               "proxy_cal": tables.Converted("proxy_cal", tables.json_numbers),
               "loss": tables.Converted("loss", tables.optional_json_numbers)}
    has_cal = None  # set from the file's first record; every record must match it
    for lines, recs in tables.read_jsonl(path):
        if not recs:
            continue
        if has_cal is None and type(recs[0]) is dict:
            has_cal = "proxy_cal" in recs[0]
        if has_cal is None or not _layout_ok(recs, has_cal):
            _name_bad_pool_record(path, lines, recs, has_cal)

        def at(i: int, lines=lines) -> str:
            return f"{path} line {lines[i]}"

        linenos.append(np.array(lines, dtype=np.int64))
        uids.add(list(map(itemgetter("id"), recs)), at)
        columns["proxy"].add(list(map(itemgetter("proxy"), recs)), at)
        columns["loss"].add(list(map(dict.get, recs, repeat("loss"))), at)
        if has_cal:
            columns["proxy_cal"].add(list(map(itemgetter("proxy_cal"), recs)), at)
    if not linenos:
        raise ParseError(f"{path}: no data rows")
    lines, linenos = np.concatenate(linenos), []

    def where(i: int) -> str:
        return f"{path} line {lines[i]}"

    def converted(col: str):
        return columns[col].values()

    return _population(kind, where, uids.ids(where), converted, converted, bool(has_cal))


def ingest(path, kind: LossKind | str, scores_path=None) -> Population:
    """Read a dataset file (CSV or JSONL) into a :class:`Population`.

    Parameters
    ----------
    path : path-like
        Dataset file.  ``.jsonl`` (or a leading ``{``) selects JSONL,
        anything else is parsed as CSV.
    kind : LossKind or str
        Loss the ``proxy``/``loss`` columns refer to; sets their valid
        ranges.
    scores_path : path-like, optional
        Class-score sidecar (JSONL) attaching ``label``/``scores`` per id.

    Raises
    ------
    ParseError
        Malformed file; messages name the offending line number.
    ConsistencyError
        Sidecar id not present in the dataset.
    """
    kind = LossKind(kind)
    path = Path(path)
    if not path.exists():
        raise ParseError(f"{path}: no such file")
    if path.suffix == ".jsonl":
        pop = _ingest_jsonl(path, kind)
    elif path.suffix == ".csv":
        pop = _ingest_csv(path, kind)
    else:
        with open(path, "rb") as f:
            head = f.read(4)
        # the first character, past a byte-order mark; the reader decodes the rest
        jsonl = head.removeprefix(codecs.BOM_UTF8)[:1] == b"{"
        pop = (_ingest_jsonl if jsonl else _ingest_csv)(path, kind)
    if scores_path is not None:
        pop = attach_scores(pop, scores_path)
    return pop


def attach_scores(pop: Population, scores_path) -> Population:
    """Attach a class-score sidecar (JSONL ``{"id","label","scores"}``).

    The records are read a batch at a time into one ``(N, K)`` score
    matrix, checked once at the end; units without a record get a NaN row
    and label -1.  A batch is tested and written as a whole; only when
    that fails are its records checked one by one, to name the first bad one.
    """
    scores_path = Path(scores_path)
    index = dict(zip(pop.ids, range(pop.size)))
    labels = np.full(pop.size, -1, dtype=np.int64)
    lines = np.zeros(pop.size, dtype=np.int64)  # 0: no record
    scores = None
    for linenos, recs in tables.read_jsonl(scores_path):
        if not recs:
            continue
        k = None if scores is None else scores.shape[1]
        batch = _score_batch(index, lines, k, linenos, recs)
        if batch is None:
            _name_bad_score_record(scores_path, index, lines, k, linenos, recs)
        rows, values, labs = batch
        if scores is None:
            scores = np.full((pop.size, values.shape[1]), np.nan)
        lines[rows] = linenos
        scores[rows] = values
        labels[rows] = labs
    if scores is None:
        raise ParseError(f"{scores_path}: no data rows")
    bad = (lines > 0) & ~valid_score_rows(scores)
    if bad.any():  # name the first bad record in file order
        raise ParseError(f"{scores_path} line {lines[bad].min()}: bad scores "
                         "(scores must be nonnegative and sum to 1)")
    return replace(pop, labels=labels, scores=scores, _ids_unique=True)


def _score_batch(index: dict, lines: np.ndarray, k: int | None,
                 linenos: list[int], recs: list):
    """The rows, score matrix and labels of a batch of sidecar records, or None.

    None means some record fails one of :func:`_name_bad_score_record`'s checks;
    they are all tested here at once, for the whole batch.
    """
    if set(map(type, recs)) != {dict}:
        return None
    # the error messages go unused here: a failing batch is checked again, record by record
    try:
        uids = list(map(itemgetter("id"), recs))
        vecs = list(map(itemgetter("scores"), recs))
        if set(map(type, uids)) != {str}:
            return None
        uids = tables.ids(uids, str)
    except (KeyError, ParseError):  # a missing field; a bad or repeated id
        return None
    if sum(map(len, recs)) != 2 * len(recs) + sum(map(contains, recs, repeat("label"))):
        return None  # an unknown field, as in _layout_ok
    rows = list(map(index.get, uids))
    if None in rows or lines[rows].any() or set(map(type, vecs)) != {list}:
        return None
    k = len(vecs[0]) if k is None else k
    if k == 0 or set(map(len, vecs)) != {k}:
        return None
    try:
        values = tables.json_numbers(list(chain.from_iterable(vecs)), "scores", str)
    except ParseError:
        return None
    labs = list(map(dict.get, recs, repeat("label")))
    if not all(label is None or (type(label) is int and 0 <= label < k) for label in labs):
        return None
    return rows, values.reshape(-1, k), [-1 if label is None else label for label in labs]


def _name_bad_score_record(path: Path, index: dict, lines: np.ndarray, k: int | None,
                           linenos: list[int], recs: list) -> None:
    """Raise the error of the first record of a batch that fails a check, record by record.

    ``lines`` holds the line of each unit's record in the earlier batches
    (0: none), and ``k`` the class count of the file's first record, None
    when this batch holds it.
    """
    seen = set()  # the units of this batch's records so far
    for lineno, rec in zip(linenos, recs):
        where = f"{path} line {lineno}"
        if not isinstance(rec, dict):
            raise ParseError(f"{where}: record must be a JSON object")
        for fld in ("id", "scores"):
            if fld not in rec:
                raise ParseError(f"{where}: record needs {fld!r}")
        if type(rec["id"]) is not str:
            raise _bad_json_id(where, rec["id"])
        (uid,) = tables.ids([rec["id"]], lambda _: where)
        i = index.get(uid)
        if i is None:
            raise ConsistencyError(f"{where}: id {uid!r} not present in the dataset")
        if lines[i] or i in seen:
            raise ParseError(f"{where}: duplicate id {uid!r}")
        seen.add(i)
        vec = rec["scores"]
        if not isinstance(vec, list) or not vec:
            raise ParseError(f"{where}: scores must be a nonempty array")
        k = len(vec) if k is None else k
        if len(vec) != k:
            raise ParseError(f"{where}: {len(vec)} class scores, but the first record has {k}")
        tables.json_numbers(vec, "scores", lambda _: where)
        label = rec.get("label")
        # a bool is not an int here
        if label is not None and (type(label) is not int or not 0 <= label < k):
            raise ParseError(f"{where}: label {label!r} is not an integer in [0, {k})")
        _check_fields(where, rec, _SIDECAR_FIELDS)
    raise AssertionError("a batch failed its test, but none of its records did")
