import math
import tracemalloc

import numpy as np
import pytest

from strateval.errors import PreconditionError
from strateval import losses
from strateval.losses import SCORE_FLOOR, LossKind, conditional_moments, eval_loss


def test_accuracy_indicator():
    assert eval_loss("accuracy", 2, [0.1, 0.2, 0.7]) == 1.0
    assert eval_loss("accuracy", 0, [0.1, 0.2, 0.7]) == 0.0


def test_accuracy_tie_goes_to_first_class():
    # argmax picks the lowest index on ties; the indicator follows it
    assert eval_loss("accuracy", 0, [0.5, 0.5]) == 1.0
    assert eval_loss("accuracy", 1, [0.5, 0.5]) == 0.0


def test_squared_error_values():
    assert eval_loss("squared_error", 0, [1.0, 0.0, 0.0]) == 0.0
    assert eval_loss("squared_error", 1, [0.8, 0.2]) == pytest.approx(0.64)


def test_cross_entropy_value():
    # -ln(0.5)
    assert eval_loss("cross_entropy", 1, [0.5, 0.5]) == pytest.approx(
        0.693147, abs=1e-6
    )


def test_cross_entropy_zero_score_clamped_finite():
    loss = eval_loss("cross_entropy", 1, [1.0, 0.0])
    assert loss == pytest.approx(-math.log(SCORE_FLOOR))
    assert math.isfinite(loss)


def test_label_out_of_range():
    with pytest.raises(PreconditionError):
        eval_loss("accuracy", 3, [0.5, 0.5])
    with pytest.raises(PreconditionError):
        eval_loss("accuracy", -1, [0.5, 0.5])


def test_invalid_scores_rejected():
    with pytest.raises(PreconditionError):
        eval_loss("accuracy", 0, [0.5, 0.6])
    with pytest.raises(PreconditionError):
        eval_loss("accuracy", 0, [1.2, -0.2])
    with pytest.raises(PreconditionError):
        conditional_moments("accuracy", [])


def test_moments_accuracy_is_top_score():
    zbar, z2bar = conditional_moments("accuracy", [0.8, 0.2])
    assert zbar == 0.8
    assert z2bar == 0.8  # indicator: Z^2 = Z


def test_moments_squared_error_degenerate():
    assert conditional_moments("squared_error", [1.0, 0.0]) == (0.0, 0.0)


def test_moments_squared_error_hand_sum():
    # oracle: explicit summation over the two classes
    # E[Z]  = 0.5*(1-0.5)^2 + 0.5*(1-0.5)^2            = 0.25
    # E[Z^2]= 0.5*(1-0.5)^4 + 0.5*(1-0.5)^4            = 0.0625
    zbar, z2bar = conditional_moments("squared_error", [0.5, 0.5])
    assert zbar == pytest.approx(0.25)
    assert z2bar == pytest.approx(0.0625)


@pytest.mark.parametrize("kind", list(LossKind))
def test_moments_match_expectation_over_labels(kind):
    # dual route: averaging eval_loss over labels drawn by the score
    # vector must reproduce conditional_moments for every kind
    rng = np.random.default_rng(41)
    for _ in range(200):
        k = rng.integers(2, 6)
        scores = rng.dirichlet(np.ones(k))
        zbar, z2bar = conditional_moments(kind, scores)
        want_z = sum(s * eval_loss(kind, lab, scores) for lab, s in enumerate(scores))
        want_z2 = sum(
            s * eval_loss(kind, lab, scores) ** 2 for lab, s in enumerate(scores)
        )
        assert zbar == pytest.approx(want_z, rel=1e-12, abs=1e-12)
        assert z2bar == pytest.approx(want_z2, rel=1e-12, abs=1e-12)


def whole_matrix_moments(kind, scores):
    """The moments as one whole-matrix expression, before they were computed in blocks."""
    if kind is LossKind.SQUARED_ERROR:
        per_class = (1.0 - scores) ** 2
    else:
        per_class = -np.log(np.maximum(scores, SCORE_FLOOR))
    return (scores * per_class).sum(axis=-1), (scores * per_class**2).sum(axis=-1)


B = losses._MOMENT_ROWS


@pytest.mark.parametrize("kind", [LossKind.SQUARED_ERROR, LossKind.CROSS_ENTROPY])
@pytest.mark.parametrize("rows,k", [(1, 4), (B - 1, 3), (B, 10), (B + 1, 7), (3 * B + 7, 10),
                                    (9000, 7), (5, 3)])
def test_blocked_moments_are_bit_identical_to_the_whole_matrix(kind, rows, k):
    rng = np.random.default_rng(rows + k)
    scores = rng.dirichlet(np.full(k, 0.3), size=rows)
    scores[0, 0] = 0.0  # a floored log
    scores[0] /= scores[0].sum()
    zbar, z2bar = conditional_moments(kind, scores)
    want = whole_matrix_moments(kind, scores)
    assert zbar.tobytes() == want[0].tobytes() and z2bar.tobytes() == want[1].tobytes()


# Peak of the traced allocations of conditional_moments on the 10**5 x 10
# matrix below, plus 10%: 2.32 MB on Python 3.11 and numpy 2, with the
# per-class losses computed 4096 rows at a time in place.  The whole-matrix
# expression peaked at 17.6 MB.
MOMENTS_PEAK_BOUND_MB = 2.56


@pytest.mark.parametrize("kind", [LossKind.SQUARED_ERROR, LossKind.CROSS_ENTROPY])
def test_moments_memory_peak_is_bounded(kind):
    scores = np.random.default_rng(0).dirichlet(np.ones(10), size=100_000)
    tracemalloc.start()
    try:
        conditional_moments(kind, scores)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 1e6 <= MOMENTS_PEAK_BOUND_MB


def test_jensen_inequality_on_random_simplex():
    rng = np.random.default_rng(7)
    for _ in range(500):
        k = rng.integers(2, 8)
        scores = rng.dirichlet(np.ones(k) * rng.uniform(0.2, 3.0))
        for kind in LossKind:
            zbar, z2bar = conditional_moments(kind, scores)
            assert z2bar >= 0.0
            assert zbar * zbar <= z2bar + 1e-12


def test_loss_ranges_on_random_inputs():
    rng = np.random.default_rng(11)
    for _ in range(300):
        k = int(rng.integers(2, 6))
        scores = rng.dirichlet(np.ones(k))
        label = int(rng.integers(k))
        assert eval_loss("accuracy", label, scores) in (0.0, 1.0)
        assert 0.0 <= eval_loss("squared_error", label, scores) <= 1.0
        assert eval_loss("cross_entropy", label, scores) >= 0.0
