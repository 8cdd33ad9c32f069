"""Evaluation-pool data model and file ingest.

A *population* is the full pool of N unlabeled (or partially labeled)
examples the model will be judged on.  Canonical unit order is file
order; every downstream component (stratification, sampling, estimation)
indexes units by that order, so two ingests of the same file are
interchangeable.

Dataset files are CSV with header ``id,proxy[,proxy_cal][,loss][,emb_0..
emb_{d-1}]`` or JSONL with the same field names (``embedding`` as an
array).  A class-score sidecar (JSONL records ``{"id":…, "label":…,
"scores":[…]}``) can be attached to supply per-unit predictive
distributions.  All three are read through the one table reader in
:mod:`strateval.tables`, which owns the rules for ``#`` comment lines,
physical line numbers in errors, and ids.
"""

from __future__ import annotations

import codecs
from dataclasses import InitVar, dataclass, field, replace
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


def _proxy_column(kind: LossKind, cells, col: str, where: tables.Where) -> np.ndarray | None:
    if cells is None:
        return None
    v = tables.numbers(cells, col, where)
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
    ids : tuple of str
        Unit identifiers in canonical (file) order.
    proxy : ndarray
        Designated per-unit proxy value (predicted loss scale).
    loss : ndarray
        Observed per-unit loss; NaN where not yet annotated.
    proxy_cal : ndarray or None
        Calibrated proxy column, when present in the file.
    embeddings : ndarray or None
        Shape (N, d) feature matrix, when present.
    labels, scores
        Optional class-score sidecar data: ``labels[i]`` is the true
        class (-1 if unknown) and row ``scores[i]`` of the read-only
        ``(N, K)`` matrix the predictive distribution (all NaN if the
        sidecar has no record for unit ``i``).
    """

    ids: tuple[str, ...]
    proxy: np.ndarray
    loss: np.ndarray
    loss_kind: LossKind
    proxy_cal: np.ndarray | None = None
    embeddings: np.ndarray | None = None
    labels: np.ndarray | None = None
    scores: np.ndarray | None = None
    _index: dict = field(init=False, repr=False, default=None)
    # set where the ids are known distinct (ingest, which checked them,
    # and copies that keep them), so the id set is built only where they
    # can repeat: construction, and ``take`` with a repeated index
    _ids_unique: InitVar[bool] = False

    def __post_init__(self, _ids_unique):
        self.proxy = np.asarray(self.proxy, dtype=float)
        self.loss = np.asarray(self.loss, dtype=float)
        n = len(self.ids)
        if self.proxy.shape != (n,) or self.loss.shape != (n,):
            raise PreconditionError("ids, proxy, and loss lengths disagree")
        for arr in (self.proxy, self.loss, self.proxy_cal, self.embeddings, self.labels,
                    self.scores):
            if arr is not None:
                arr.setflags(write=False)
        if not _ids_unique and len(set(self.ids)) != n:
            last = dict(zip(self.ids, range(n)))
            dup = next(u for i, u in enumerate(self.ids) if last[u] != i)
            raise ParseError(f"duplicate id {dup!r}")

    @property
    def size(self) -> int:
        return len(self.ids)

    def index_of(self, unit_id: str) -> int:
        if self._index is None:  # built on first use: only a few steps look ids up
            self._index = dict(zip(self.ids, range(len(self.ids))))
        try:
            return self._index[unit_id]
        except KeyError:
            raise ConsistencyError(f"unknown unit id {unit_id!r}") from None

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
        """Sub-population at ``indices`` (order preserved as given)."""
        idx = np.asarray(indices, dtype=np.int64)
        distinct = (np.bincount(idx % max(self.size, 1)) <= 1).all()

        def pick(arr):
            return None if arr is None else arr[idx]

        return replace(
            self,
            ids=tuple(map(self.ids.__getitem__, idx.tolist())),
            proxy=self.proxy[idx],
            loss=self.loss[idx],
            proxy_cal=pick(self.proxy_cal),
            embeddings=pick(self.embeddings),
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

    def canonical_csv(self) -> str:
        """Canonical CSV text; equal populations serialize to equal bytes."""
        header = ["id", "proxy"]
        cols = [tables.writable_ids(self.ids), self.proxy.tolist()]
        if self.proxy_cal is not None:
            header.append("proxy_cal")
            cols.append(self.proxy_cal.tolist())
        header.append("loss")
        cols.append(["" if v != v else v for v in self.loss.tolist()])  # NaN: not annotated
        if self.embeddings is not None:
            header += [f"emb_{j}" for j in range(self.embeddings.shape[1])]
            cols += self.embeddings.T.tolist()
        return tables.csv_text(header, cols)


# -- file ingest -----------------------------------------------------------


def _population(kind: LossKind, where: tables.Where, ids, proxy, proxy_cal, loss,
                embeddings) -> Population:
    """Convert and range-check the text columns of a pool file, column by column.

    ``loss`` cells that are blank mean "not annotated yet".
    """
    uids = tables.ids(ids, where)
    proxy = _proxy_column(kind, proxy, "proxy", where)
    proxy_cal = _proxy_column(kind, proxy_cal, "proxy_cal", where)
    losses, present = tables.optional_numbers(loss, "loss", where)
    at = np.flatnonzero(present)
    check_losses(kind, losses[at], lambda j: where(int(at[j])))
    return Population(ids=uids, proxy=proxy, loss=losses, loss_kind=kind,
                      proxy_cal=proxy_cal, embeddings=embeddings,
                      _ids_unique=True)  # tables.ids refused a repeat, naming its line


def _ingest_csv(path: Path, kind: LossKind) -> Population:
    t = tables.read_csv(path)
    known = {"id", "proxy", "proxy_cal", "loss"}
    for h in t.header:
        if h not in known and not h.startswith("emb_"):
            raise ParseError(f"{path} line {t.header_line}: unknown column {h!r}")
    t.require("id", "proxy")
    emb_cols = sorted(h for h in t.header if h.startswith("emb_"))
    d = len(emb_cols)
    if emb_cols != sorted(f"emb_{j}" for j in range(d)):
        raise ParseError(
            f"{path} line {t.header_line}: embedding columns must be emb_0..emb_{{d-1}}"
        )
    c = t.columns
    emb = [tables.numbers(c[f"emb_{j}"], f"emb_{j}", t.where) for j in range(d)]
    return _population(kind, t.where, c["id"], c["proxy"], c.get("proxy_cal"),
                       c.get("loss", [""] * len(t.lines)), np.column_stack(emb) if d else None)


def _ingest_jsonl(path: Path, kind: LossKind) -> Population:
    linenos: list[int] = []
    ids, proxy, proxy_cal, loss, emb = [], [], [], [], []
    for lineno, rec in tables.read_jsonl(path):
        here = f"{path} line {lineno}"
        if not isinstance(rec, dict) or "id" not in rec or "proxy" not in rec:
            raise ParseError(f"{here}: record needs 'id' and 'proxy' fields")
        if not linenos:
            has_cal, has_emb = "proxy_cal" in rec, "embedding" in rec
        for fld, has in (("proxy_cal", has_cal), ("embedding", has_emb)):
            if (fld in rec) != has:
                raise ParseError(f"{here}: {fld} present in some records but not all")
        linenos.append(lineno)
        ids.append(str(rec["id"]))
        proxy.append(str(rec["proxy"]))
        loss.append("" if rec.get("loss") is None else str(rec["loss"]))
        if has_cal:
            proxy_cal.append(str(rec["proxy_cal"]))
        if has_emb:
            vec = rec["embedding"]
            if not isinstance(vec, list) or not vec:
                raise ParseError(f"{here}: embedding must be a nonempty array")
            if emb and len(vec) != len(emb[0]):
                raise ParseError(f"{here}: embedding dimensionality mismatch across rows")
            emb.append([str(v) for v in vec])
    if not linenos:
        raise ParseError(f"{path}: no data rows")

    def where(i: int) -> str:
        return f"{path} line {linenos[i]}"

    if has_emb:
        d = len(emb[0])
        flat = [v for vec in emb for v in vec]
        emb = tables.numbers(flat, "embedding", lambda j: where(j // d)).reshape(len(ids), d)
    return _population(kind, where, ids, proxy, proxy_cal if has_cal else None, loss,
                       emb if has_emb else None)


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

    The records stream into one ``(N, K)`` score matrix, checked once at
    the end; units without a record get a NaN row and label -1.
    """
    scores_path = Path(scores_path)
    labels = np.full(pop.size, -1, dtype=np.int64)
    lines = np.zeros(pop.size, dtype=np.int64)  # 0: no record
    scores = None
    for lineno, rec in tables.read_jsonl(scores_path):
        where = f"{scores_path} line {lineno}"
        if not isinstance(rec, dict):
            raise ParseError(f"{where}: record must be a JSON object")
        for fld in ("id", "scores"):
            if fld not in rec:
                raise ParseError(f"{where}: record needs {fld!r}")
        (uid,) = tables.ids([str(rec["id"])], lambda _: where)
        try:
            i = pop.index_of(uid)
        except ConsistencyError:
            raise ConsistencyError(f"{where}: id {uid!r} not present in the dataset") from None
        if lines[i]:
            raise ParseError(f"{where}: duplicate id {uid!r}")
        lines[i] = lineno
        vec = rec["scores"]
        if not isinstance(vec, list) or not vec:
            raise ParseError(f"{where}: scores must be a nonempty array")
        if scores is None:
            scores = np.full((pop.size, len(vec)), np.nan)
        if len(vec) != scores.shape[1]:
            raise ParseError(f"{where}: {len(vec)} class scores, but the first record has "
                             f"{scores.shape[1]}")
        try:
            scores[i] = vec
        except (TypeError, ValueError) as e:
            raise ParseError(f"{where}: bad scores ({e})") from None
        label = rec.get("label")
        if label is not None:
            if type(label) is not int or not 0 <= label < len(vec):  # a bool is not an int here
                raise ParseError(f"{where}: label {label!r} is not an integer in [0, {len(vec)})")
            labels[i] = label
    if scores is None:
        raise ParseError(f"{scores_path}: no data rows")
    bad = (lines > 0) & ~valid_score_rows(scores)
    if bad.any():  # name the first bad record in file order
        raise ParseError(f"{scores_path} line {lines[bad].min()}: bad scores "
                         "(scores must be nonnegative and sum to 1)")
    return replace(pop, labels=labels, scores=scores, _ids_unique=True)
