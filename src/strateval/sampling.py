"""Drawing the units to annotate, and the worksheet that records them.

Draws operate on canonical (file) unit order.  Every draw is stratified:
stratum ``h`` gets its own substream derived from ``(seed, h)``, so strata
are sampled independently, and plain simple random sampling is the
one-stratum draw.  Each sampled unit carries its inclusion probability
``pi = n_h / N_h``, which is all the estimators downstream need.

The worksheet is written and read back through the one table writer and
reader in :mod:`strateval.tables`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tables
from .allocate import AllocationPlan
from .dataset import Population
from .errors import ConsistencyError, PreconditionError
from .estimators import MIN_PER_STRATUM
from .rng import fisher_yates
from .stratify import StrataPartition


@dataclass
class SampleDraw:
    """Result of one sampling pass: who to annotate, with what weight."""

    indices: np.ndarray  # canonical-order unit positions, selection order
    ids: tuple[str, ...]
    strata: np.ndarray  # stratum label per sampled unit
    pi: np.ndarray  # inclusion probability per sampled unit
    stratum_sizes: np.ndarray  # N_h for every stratum in the design

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


def stratified_indices(partition: StrataPartition, n_h, seeds) -> np.ndarray:
    """Canonical positions of stratified draws, one row per seed.

    Row ``r`` takes, stratum by stratum, ``n_h[h]`` of the members of
    stratum ``h`` by partial Fisher-Yates over them in canonical order, on
    the substream seeded by ``derive_seed(seeds[r], h)``; within a stratum,
    positions come in selection order.  Every row is drawn in the one
    batched pass of :func:`strateval.rng.fisher_yates`.
    """
    return partition.order[fisher_yates(seeds, partition.sizes, n_h)]


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
    if np.any(plan.n_h < np.minimum(MIN_PER_STRATUM, sizes)) or np.any(plan.n_h > sizes):
        raise PreconditionError(
            f"need min({MIN_PER_STRATUM}, N_h) <= n_h <= N_h in every stratum, "
            "the fewest units a stratum's variance can be estimated from"
        )
    idx = stratified_indices(partition, plan.n_h, int(seed))[0]
    return SampleDraw(
        indices=idx,
        ids=tuple(pop.ids[i] for i in idx),
        strata=np.repeat(np.arange(partition.n_strata), plan.n_h),
        pi=np.repeat(plan.n_h / sizes, plan.n_h),
        stratum_sizes=sizes,
    )


# -- annotator worksheet -----------------------------------------------------


def worksheet_csv(draw: SampleDraw) -> str:
    """CSV listing the sampled units: ``id,stratum,pi``.

    The annotator appends a ``loss`` column (or adds values under one) and
    the filled file goes back in through :func:`load_worksheet`.
    """
    return tables.csv_text(
        ["id", "stratum", "pi"],
        [tables.writable_ids(draw.ids), draw.strata.tolist(), draw.pi.tolist()],
    )


@dataclass
class Worksheet:
    """Re-ingested worksheet, losses possibly filled in by the annotator."""

    ids: tuple[str, ...]
    strata: np.ndarray
    pi: np.ndarray
    loss: np.ndarray  # NaN where still unlabeled
    lines: tuple[int, ...]  # physical line of each row, for error messages


def load_worksheet(path) -> Worksheet:
    t = tables.read_csv(path)
    t.require("id", "stratum", "pi")
    c = t.columns
    ids = tables.ids(c["id"], t.where)
    strata = tables.numbers(c["stratum"], "stratum", t.where, dtype=np.int64)
    pi = tables.numbers(c["pi"], "pi", t.where)
    tables.check((pi > 0) & (pi <= 1), t.where, lambda i: f"pi {float(pi[i])!r} outside (0, 1]")
    loss = tables.optional_numbers(c.get("loss", [""] * len(ids)), "loss", t.where)[0]
    return Worksheet(ids=ids, strata=strata, pi=pi, loss=loss, lines=tuple(t.lines))
