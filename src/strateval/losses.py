"""Per-example loss evaluation and score-based conditional moments.

A model's per-example loss Z is computed from the true label and the
model's class-score vector.  When only the scores are known (before
annotation), the same score vector yields the conditional mean and second
moment of Z under the model's own predictive distribution — the
quantities consumed by proxy-based planning.

Score checks and moments work row-wise: the same arithmetic takes one
``(K,)`` score vector or an ``(N, K)`` matrix of them, so
``allocate.plugin_sds`` gets a whole pool's moments from one call and
their stratum means from the one routine ``estimators.stratum_moments``.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import PreconditionError

# Scores below this are clamped before taking logs, so a hard zero on the
# true class yields a large finite loss instead of +inf.
SCORE_FLOOR = 1e-12


class LossKind(str, Enum):
    ACCURACY = "accuracy"
    SQUARED_ERROR = "squared_error"
    CROSS_ENTROPY = "cross_entropy"


def valid_score_rows(scores: np.ndarray):
    """Which score rows are nonnegative and sum to 1 (within 1e-6)."""
    return np.all(scores >= 0, axis=-1) & np.isclose(scores.sum(axis=-1), 1.0, atol=1e-6)


def _check_scores(scores) -> np.ndarray:
    scores = np.asarray(scores, dtype=float)
    if scores.ndim not in (1, 2) or scores.size == 0:
        raise PreconditionError("scores must be a nonempty (K,) vector or (N, K) matrix")
    if not np.all(valid_score_rows(scores)):
        raise PreconditionError("scores must be nonnegative and sum to 1")
    return scores


def eval_loss(kind: LossKind | str, label: int, scores: np.ndarray) -> float:
    """Evaluate the per-example loss for a labeled prediction.

    Parameters
    ----------
    kind : LossKind or str
        ``accuracy`` -> 0/1 indicator that the top-scoring class is the
        label (note: stored as a *reward*-style indicator; direction is a
        labeling convention and nothing downstream depends on it).
        ``squared_error`` -> ``(1 - scores[label])**2`` (Brier-style).
        ``cross_entropy`` -> ``-log scores[label]``, scores clamped at
        ``SCORE_FLOOR``.
    label : int
        True class index into ``scores``.
    scores : array_like
        Predicted class probabilities, nonnegative, summing to 1.
    """
    kind = LossKind(kind)
    scores = _check_scores(scores)
    if scores.ndim != 1:
        raise PreconditionError("eval_loss takes one score vector")
    if not 0 <= label < scores.size:
        raise PreconditionError(
            f"label {label} out of range for {scores.size} classes"
        )
    if kind is LossKind.ACCURACY:
        return float(int(np.argmax(scores)) == label)
    if kind is LossKind.SQUARED_ERROR:
        return float((1.0 - scores[label]) ** 2)
    return float(-np.log(max(float(scores[label]), SCORE_FLOOR)))


def conditional_moments(kind: LossKind | str, scores):
    """First and second conditional moments of the loss given the scores.

    Treats each score vector (one ``(K,)`` vector, or each row of an
    ``(N, K)`` matrix) as the predictive distribution of the true label and
    averages the loss (and its square) over it.

    Returns
    -------
    (zbar, z2bar)
        ``zbar`` = E[Z | scores], ``z2bar`` = E[Z^2 | scores]: floats for a
        vector, length-N arrays for a matrix.  ``zbar**2 <= z2bar`` (Jensen).
    """
    kind = LossKind(kind)
    scores = _check_scores(scores)
    rows = np.atleast_2d(scores)  # a vector is one row
    if kind is LossKind.ACCURACY:
        # Z is an indicator, so Z^2 = Z and both moments equal the
        # score of the predicted class.
        zbar = z2bar = rows.max(axis=-1)
    else:
        zbar, z2bar = np.empty(rows.shape[0]), np.empty(rows.shape[0])
        for start in range(0, rows.shape[0], _MOMENT_ROWS):
            block = slice(start, start + _MOMENT_ROWS)
            zbar[block], z2bar[block] = _block_moments(kind, rows[block])
    if scores.ndim == 1:
        return float(zbar[0]), float(z2bar[0])
    return zbar, z2bar


# score rows per block of conditional_moments: bounds its temporaries to two
# blocks, where whole-matrix arithmetic held several (N, K) arrays at once
_MOMENT_ROWS = 4096


def _block_moments(kind: LossKind, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(zbar, z2bar)`` of a block of score rows, the per-class losses and
    their products with the scores computed in place."""
    if kind is LossKind.SQUARED_ERROR:
        per_class = 1.0 - s
        per_class *= per_class
    else:
        per_class = np.maximum(s, SCORE_FLOOR)
        np.log(per_class, out=per_class)
        np.negative(per_class, out=per_class)
    t = s * per_class
    zbar = t.sum(axis=-1)
    per_class *= per_class
    np.multiply(s, per_class, out=t)
    return zbar, t.sum(axis=-1)
