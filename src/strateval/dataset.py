"""Evaluation-pool data model and file ingest.

A *population* is the full pool of N unlabeled (or partially labeled)
examples the model will be judged on.  Canonical unit order is file
order; every downstream component (stratification, sampling, estimation)
indexes units by that order, so two ingests of the same file are
interchangeable.

Dataset files are CSV with header ``id,proxy[,proxy_cal][,loss][,emb_0..
emb_{d-1}]`` or JSONL with the same field names (``embedding`` as an
array).  Lines starting with ``#`` are skipped, which is how tool outputs
embed their run config without breaking round-trips.  A class-score
sidecar (JSONL records ``{"id":…, "label":…, "scores":[…]}``) can be
attached to supply per-unit predictive distributions.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConsistencyError, ParseError, PreconditionError
from .losses import LossKind, _check_scores


def _proxy_bounds(kind: LossKind) -> tuple[float, float]:
    # accuracy and squared error live in [0,1]; cross-entropy is an
    # unbounded nonnegative loss.
    if kind is LossKind.CROSS_ENTROPY:
        return 0.0, math.inf
    return 0.0, 1.0


def _check_loss_value(kind: LossKind, value: float, where: str) -> None:
    if not math.isfinite(value):
        raise ParseError(f"{where}: loss {value!r} is not finite")
    if kind is LossKind.ACCURACY:
        if value not in (0.0, 1.0):
            raise ParseError(f"{where}: accuracy loss must be 0 or 1, got {value!r}")
    elif kind is LossKind.SQUARED_ERROR:
        if not 0.0 <= value <= 1.0:
            raise ParseError(f"{where}: squared-error loss must be in [0,1], got {value!r}")
    elif value < 0.0:
        raise ParseError(f"{where}: cross-entropy loss must be >= 0, got {value!r}")


def _check_proxy_value(kind: LossKind, value: float, where: str, col: str) -> None:
    lo, hi = _proxy_bounds(kind)
    if not math.isfinite(value) or not lo <= value <= hi:
        span = "[0,1]" if hi == 1.0 else ">= 0"
        raise ParseError(f"{where}: {col} {value!r} outside {span}")


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
        class (-1 if unknown), ``scores[i]`` the predictive distribution
        (None if absent).
    """

    ids: tuple[str, ...]
    proxy: np.ndarray
    loss: np.ndarray
    loss_kind: LossKind
    proxy_cal: np.ndarray | None = None
    embeddings: np.ndarray | None = None
    labels: np.ndarray | None = None
    scores: list | None = None
    _index: dict = field(init=False, repr=False, default=None)

    def __post_init__(self):
        self.proxy = np.asarray(self.proxy, dtype=float)
        self.loss = np.asarray(self.loss, dtype=float)
        n = len(self.ids)
        if self.proxy.shape != (n,) or self.loss.shape != (n,):
            raise PreconditionError("ids, proxy, and loss lengths disagree")
        for arr in (self.proxy, self.loss, self.proxy_cal, self.embeddings):
            if arr is not None:
                arr.setflags(write=False)
        self._index = {u: i for i, u in enumerate(self.ids)}
        if len(self._index) != n:
            raise ParseError("duplicate unit id")

    @property
    def size(self) -> int:
        return len(self.ids)

    def __len__(self) -> int:
        return len(self.ids)

    def index_of(self, unit_id: str) -> int:
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
        return Population(
            ids=tuple(self.ids[i] for i in idx),
            proxy=self.proxy[idx].copy(),
            loss=self.loss[idx].copy(),
            loss_kind=self.loss_kind,
            proxy_cal=None if self.proxy_cal is None else self.proxy_cal[idx].copy(),
            embeddings=None if self.embeddings is None else self.embeddings[idx].copy(),
            labels=None if self.labels is None else self.labels[idx].copy(),
            scores=None if self.scores is None else [self.scores[i] for i in idx],
        )

    def with_proxy_cal(self, values) -> "Population":
        values = np.asarray(values, dtype=float).copy()
        if values.shape != (self.size,):
            raise PreconditionError("proxy_cal length must match population size")
        return Population(
            ids=self.ids,
            proxy=self.proxy.copy(),
            loss=self.loss.copy(),
            loss_kind=self.loss_kind,
            proxy_cal=values,
            embeddings=self.embeddings,
            labels=self.labels,
            scores=self.scores,
        )

    def with_losses(self, loss_by_id: dict) -> "Population":
        """New population with losses filled in from an id -> loss mapping."""
        loss = self.loss.copy()
        for uid, value in loss_by_id.items():
            value = float(value)
            _check_loss_value(self.loss_kind, value, f"loss for id {uid!r}")
            loss[self.index_of(uid)] = value
        return Population(
            ids=self.ids,
            proxy=self.proxy.copy(),
            loss=loss,
            loss_kind=self.loss_kind,
            proxy_cal=None if self.proxy_cal is None else self.proxy_cal.copy(),
            embeddings=self.embeddings,
            labels=self.labels,
            scores=self.scores,
        )

    # -- canonical serialization ------------------------------------------

    def canonical_csv(self) -> str:
        """Canonical CSV text; equal populations serialize to equal bytes."""
        buf = io.StringIO()
        d = 0 if self.embeddings is None else self.embeddings.shape[1]
        header = ["id", "proxy"]
        if self.proxy_cal is not None:
            header.append("proxy_cal")
        header.append("loss")
        header += [f"emb_{j}" for j in range(d)]
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(header)
        for i in range(self.size):
            row = [self.ids[i], repr(float(self.proxy[i]))]
            if self.proxy_cal is not None:
                row.append(repr(float(self.proxy_cal[i])))
            row.append("" if math.isnan(self.loss[i]) else repr(float(self.loss[i])))
            if d:
                row += [repr(float(v)) for v in self.embeddings[i]]
            w.writerow(row)
        return buf.getvalue()

    def to_csv(self, path) -> None:
        Path(path).write_text(self.canonical_csv())


# -- file ingest -----------------------------------------------------------


def _parse_float(text: str, where: str, col: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ParseError(f"{where}: cannot parse {col}={text!r} as a number") from None


def _ingest_csv(path: Path, kind: LossKind) -> dict:
    with open(path, newline="") as f:
        physical = 0
        header = None
        rows = []
        for raw in f:
            physical += 1
            if raw.startswith("#") or not raw.strip():
                continue
            parsed = next(csv.reader([raw]))
            if header is None:
                header = [h.strip() for h in parsed]
                header_line = physical
            else:
                rows.append((physical, parsed))
    if header is None:
        raise ParseError(f"{path}: no header row")

    known = {"id", "proxy", "proxy_cal", "loss"}
    emb_cols = sorted(
        (h for h in header if h.startswith("emb_")),
        key=lambda h: int(h[4:]) if h[4:].isdigit() else -1,
    )
    for h in header:
        if h not in known and h not in emb_cols:
            raise ParseError(f"{path} line {header_line}: unknown column {h!r}")
    for req in ("id", "proxy"):
        if req not in header:
            raise ParseError(f"{path} line {header_line}: missing column {req!r}")
    d = len(emb_cols)
    if d and [int(h[4:]) if h[4:].isdigit() else -1 for h in emb_cols] != list(range(d)):
        raise ParseError(
            f"{path} line {header_line}: embedding columns must be emb_0..emb_{{d-1}}"
        )
    col = {h: j for j, h in enumerate(header)}

    ids, proxy, proxy_cal, loss, emb = [], [], [], [], []
    for lineno, row in rows:
        where = f"{path} line {lineno}"
        if len(row) != len(header):
            raise ParseError(
                f"{where}: expected {len(header)} fields, got {len(row)}"
            )
        uid = row[col["id"]].strip()
        if not uid:
            raise ParseError(f"{where}: empty id")
        ids.append(uid)
        proxy.append(_parse_float(row[col["proxy"]], where, "proxy"))
        _check_proxy_value(kind, proxy[-1], where, "proxy")
        if "proxy_cal" in col:
            proxy_cal.append(_parse_float(row[col["proxy_cal"]], where, "proxy_cal"))
            _check_proxy_value(kind, proxy_cal[-1], where, "proxy_cal")
        if "loss" in col and row[col["loss"]].strip() != "":
            val = _parse_float(row[col["loss"]], where, "loss")
            _check_loss_value(kind, val, where)
            loss.append(val)
        else:
            loss.append(math.nan)
        if d:
            emb.append([_parse_float(row[col[h]], where, h) for h in emb_cols])

    return {
        "ids": ids,
        "proxy": proxy,
        "proxy_cal": proxy_cal if "proxy_cal" in col else None,
        "loss": loss,
        "emb": emb if d else None,
        "path": path,
    }


def _ingest_jsonl(path: Path, kind: LossKind) -> dict:
    ids, proxy, proxy_cal, loss, emb = [], [], [], [], []
    saw_cal = saw_emb = False
    with open(path) as f:
        for lineno, raw in enumerate(f, start=1):
            if raw.startswith("#") or not raw.strip():
                continue
            where = f"{path} line {lineno}"
            try:
                rec = json.loads(raw)
            except json.JSONDecodeError as e:
                raise ParseError(f"{where}: invalid JSON ({e.msg})") from None
            if not isinstance(rec, dict) or "id" not in rec or "proxy" not in rec:
                raise ParseError(f"{where}: record needs 'id' and 'proxy' fields")
            ids.append(str(rec["id"]))
            proxy.append(_parse_float(str(rec["proxy"]), where, "proxy"))
            _check_proxy_value(kind, proxy[-1], where, "proxy")
            if "proxy_cal" in rec:
                saw_cal = True
                proxy_cal.append(_parse_float(str(rec["proxy_cal"]), where, "proxy_cal"))
                _check_proxy_value(kind, proxy_cal[-1], where, "proxy_cal")
            elif saw_cal:
                raise ParseError(f"{where}: proxy_cal present in some records but not all")
            if rec.get("loss") is None:
                loss.append(math.nan)
            else:
                val = _parse_float(str(rec["loss"]), where, "loss")
                _check_loss_value(kind, val, where)
                loss.append(val)
            if "embedding" in rec:
                saw_emb = True
                vec = rec["embedding"]
                if not isinstance(vec, list) or not vec:
                    raise ParseError(f"{where}: embedding must be a nonempty array")
                emb.append([_parse_float(str(v), where, "embedding") for v in vec])
            elif saw_emb:
                raise ParseError(f"{where}: embedding present in some records but not all")
    return {
        "ids": ids,
        "proxy": proxy,
        "proxy_cal": proxy_cal if saw_cal else None,
        "loss": loss,
        "emb": emb if saw_emb else None,
        "path": path,
    }


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
        raw = _ingest_jsonl(path, kind)
    elif path.suffix == ".csv":
        raw = _ingest_csv(path, kind)
    else:
        with open(path) as f:
            first = f.read(1)
        raw = (_ingest_jsonl if first == "{" else _ingest_csv)(path, kind)

    if not raw["ids"]:
        raise ParseError(f"{path}: no data rows")
    seen: dict[str, int] = {}
    for i, uid in enumerate(raw["ids"]):
        if uid in seen:
            raise ParseError(f"{path}: duplicate id {uid!r}")
        seen[uid] = i

    embeddings = None
    if raw["emb"] is not None:
        widths = {len(e) for e in raw["emb"]}
        if len(widths) != 1:
            raise ParseError(f"{path}: embedding dimensionality mismatch across rows")
        embeddings = np.array(raw["emb"], dtype=float)

    pop = Population(
        ids=tuple(raw["ids"]),
        proxy=np.array(raw["proxy"], dtype=float),
        loss=np.array(raw["loss"], dtype=float),
        loss_kind=kind,
        proxy_cal=None if raw["proxy_cal"] is None else np.array(raw["proxy_cal"], dtype=float),
        embeddings=embeddings,
    )
    if scores_path is not None:
        pop = attach_scores(pop, scores_path)
    return pop


def attach_scores(pop: Population, scores_path) -> Population:
    """Attach a class-score sidecar (JSONL ``{"id","label","scores"}``)."""
    scores_path = Path(scores_path)
    if not scores_path.exists():
        raise ParseError(f"{scores_path}: no such file")
    labels = np.full(pop.size, -1, dtype=np.int64)
    scores: list = [None] * pop.size
    seen: set[str] = set()
    with open(scores_path) as f:
        for lineno, raw in enumerate(f, start=1):
            if raw.startswith("#") or not raw.strip():
                continue
            where = f"{scores_path} line {lineno}"
            try:
                rec = json.loads(raw)
            except json.JSONDecodeError as e:
                raise ParseError(f"{where}: invalid JSON ({e.msg})") from None
            for fld in ("id", "scores"):
                if fld not in rec:
                    raise ParseError(f"{where}: record needs {fld!r}")
            uid = str(rec["id"])
            if uid in seen:
                raise ParseError(f"{where}: duplicate id {uid!r}")
            seen.add(uid)
            try:
                i = pop.index_of(uid)
            except ConsistencyError:
                raise ConsistencyError(
                    f"{where}: id {uid!r} not present in the dataset"
                ) from None
            try:
                vec = _check_scores(np.asarray(rec["scores"], dtype=float))
            except (PreconditionError, ValueError) as e:
                raise ParseError(f"{where}: bad scores ({e})") from None
            label = rec.get("label")
            if label is not None:
                label = int(label)
                if not 0 <= label < vec.size:
                    raise ParseError(f"{where}: label {label} out of range")
                labels[i] = label
            vec.setflags(write=False)
            scores[i] = vec
    out = Population(
        ids=pop.ids,
        proxy=pop.proxy.copy(),
        loss=pop.loss.copy(),
        loss_kind=pop.loss_kind,
        proxy_cal=None if pop.proxy_cal is None else pop.proxy_cal.copy(),
        embeddings=pop.embeddings,
        labels=labels,
        scores=scores,
    )
    return out
