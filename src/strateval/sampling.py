"""Drawing the units to annotate, and the worksheet that records them.

Draws operate on canonical (file) unit order.  Every draw is stratified:
stratum ``h`` gets its own substream derived from ``(seed, h)``, so strata
are sampled independently, and plain simple random sampling is the
one-stratum draw.  Each sampled unit carries its inclusion probability
``pi = n_h / N_h``, which is all the estimators downstream need.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .allocate import AllocationPlan
from .dataset import Population
from .errors import ConsistencyError, ParseError, PreconditionError
from .rng import derive_seed, generator, srs_indices
from .stratify import StrataPartition


@dataclass
class SampleDraw:
    """Result of one sampling pass: who to annotate, with what weight."""

    indices: np.ndarray  # canonical-order unit positions, selection order
    ids: tuple[str, ...]
    strata: np.ndarray  # stratum label per sampled unit
    pi: np.ndarray  # inclusion probability per sampled unit
    stratum_sizes: np.ndarray  # N_h for every stratum in the design
    seed: int

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=np.int64)
        self.strata = np.asarray(self.strata, dtype=np.int64)
        self.pi = np.asarray(self.pi, dtype=float)
        self.stratum_sizes = np.asarray(self.stratum_sizes, dtype=np.int64)
        if np.any(self.pi <= 0) or np.any(self.pi > 1):
            raise PreconditionError("inclusion probabilities must lie in (0, 1]")

    @property
    def size(self) -> int:
        return self.indices.size


def stratified_indices(members, n_h, seed: int) -> np.ndarray:
    """Canonical positions of one stratified draw, stratum by stratum.

    Stratum ``h`` takes ``n_h[h]`` of the positions ``members[h]`` by
    partial Fisher-Yates on the substream seeded by
    ``derive_seed(seed, h)``; within a stratum, positions come in
    selection order.
    """
    return np.concatenate([
        m[srs_indices(generator(derive_seed(seed, h)), m.size, int(k))]
        for h, (m, k) in enumerate(zip(members, n_h))
    ])


def draw_ssrs(
    pop: Population, partition: StrataPartition, plan: AllocationPlan, seed: int
) -> SampleDraw:
    """Stratified simple random sampling: independent SRS inside each stratum.

    Stratum ``h`` is drawn with the substream seeded by
    ``derive_seed(seed, h)`` over its members in canonical order, taking
    ``plan.n_h[h]`` units with ``pi = n_h / N_h``.  Sampled units are
    reported stratum by stratum, selection order within each.
    """
    if partition.assignment.size != pop.size:
        raise ConsistencyError("partition does not cover this population")
    sizes = partition.sizes
    if plan.n_h.size != partition.n_strata:
        raise ConsistencyError("allocation plan and partition disagree on strata count")
    if np.any(plan.n_h < 1) or np.any(plan.n_h > sizes):
        raise PreconditionError("need 1 <= n_h <= N_h in every stratum")
    members = [partition.members(h) for h in range(partition.n_strata)]
    idx = stratified_indices(members, plan.n_h, seed)
    return SampleDraw(
        indices=idx,
        ids=tuple(pop.ids[i] for i in idx),
        strata=np.repeat(np.arange(partition.n_strata), plan.n_h),
        pi=np.repeat(plan.n_h / sizes, plan.n_h),
        stratum_sizes=sizes,
        seed=seed,
    )


# -- annotator worksheet -----------------------------------------------------


def worksheet_csv(draw: SampleDraw) -> str:
    """CSV listing the sampled units: ``id,stratum,pi``.

    The annotator appends a ``loss`` column (or adds values under one) and
    the filled file goes back in through :func:`load_worksheet`.
    """
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["id", "stratum", "pi"])
    for i in range(draw.size):
        w.writerow([draw.ids[i], int(draw.strata[i]), repr(float(draw.pi[i]))])
    return buf.getvalue()


def save_worksheet(draw: SampleDraw, path) -> None:
    Path(path).write_text(worksheet_csv(draw))


@dataclass
class Worksheet:
    """Re-ingested worksheet, losses possibly filled in by the annotator."""

    ids: tuple[str, ...]
    strata: np.ndarray
    pi: np.ndarray
    loss: np.ndarray  # NaN where still unlabeled


def load_worksheet(path) -> Worksheet:
    path = Path(path)
    if not path.exists():
        raise ParseError(f"{path}: no such file")
    ids: list[str] = []
    strata: list[int] = []
    pi: list[float] = []
    loss: list[float] = []
    with open(path, newline="") as f:
        lineno = 0
        header = None
        for raw in f:
            lineno += 1
            if raw.startswith("#") or not raw.strip():
                continue
            row = next(csv.reader([raw]))
            if header is None:
                header = [h.strip() for h in row]
                for req in ("id", "stratum", "pi"):
                    if req not in header:
                        raise ParseError(f"{path} line {lineno}: missing column {req!r}")
                col = {h: j for j, h in enumerate(header)}
                continue
            where = f"{path} line {lineno}"
            try:
                ids.append(row[col["id"]])
                strata.append(int(row[col["stratum"]]))
                pi.append(float(row[col["pi"]]))
            except (IndexError, ValueError):
                raise ParseError(f"{where}: malformed row") from None
            cell = row[col["loss"]].strip() if "loss" in col and len(row) > col["loss"] else ""
            if cell == "":
                loss.append(math.nan)
            else:
                try:
                    loss.append(float(cell))
                except ValueError:
                    raise ParseError(f"{where}: cannot parse loss {cell!r}") from None
    if not ids:
        raise ParseError(f"{path}: no data rows")
    if len(set(ids)) != len(ids):
        raise ParseError(f"{path}: duplicate id in worksheet")
    ws = Worksheet(
        ids=tuple(ids),
        strata=np.asarray(strata, dtype=np.int64),
        pi=np.asarray(pi, dtype=float),
        loss=np.asarray(loss, dtype=float),
    )
    if np.any(ws.pi <= 0) or np.any(ws.pi > 1):
        raise ParseError(f"{path}: pi values must lie in (0, 1]")
    return ws
