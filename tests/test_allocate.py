import json

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from strateval.allocate import AllocationPlan, neyman, plugin_sds, proportional
from strateval.dataset import Population
from strateval.errors import PreconditionError
from strateval.losses import LossKind
from strateval.stratify import StrataPartition


def test_proportional_exact():
    assert proportional([800, 200], 50).n_h.tolist() == [40, 10]


def test_proportional_tie_goes_to_lower_index():
    assert proportional([500, 500], 101).n_h.tolist() == [51, 50]


def test_proportional_largest_remainder():
    # targets 18.0 and 2.0 exactly
    assert proportional([900, 100], 20).n_h.tolist() == [18, 2]
    # targets 4.666.., 2.333.., 7.0 for n=14: floors (4,2,7), remainder
    # 0.666 beats 0.333 -> stratum 0 gets the spare unit
    assert proportional([200, 100, 300], 14).n_h.tolist() == [5, 2, 7]


def test_proportional_floor_of_two():
    # target for the tiny stratum is 20*5/1000 = 0.1; floor lifts it to 2
    plan = proportional([995, 5], 20)
    assert plan.n_h.tolist() == [18, 2]
    assert plan.total == 20


def test_proportional_budget_bounds():
    with pytest.raises(PreconditionError):
        proportional([10, 10], 3)  # below 2 per stratum
    with pytest.raises(PreconditionError):
        proportional([10, 10], 21)  # beyond population
    assert proportional([10, 10], 20).n_h.tolist() == [10, 10]


def test_neyman_hand_value():
    plan = neyman([500, 500], [0.3, 0.1], 100)
    assert plan.n_h.tolist() == [75, 25]
    assert plan.strategy == "neyman"


def test_neyman_constant_sd_equals_proportional():
    rng = np.random.default_rng(10)
    for _ in range(50):
        k = int(rng.integers(2, 6))
        sizes = rng.integers(10, 500, size=k)
        n = int(rng.integers(2 * k, sizes.sum() + 1))
        s = float(rng.uniform(0.1, 2.0))
        assert np.array_equal(
            neyman(sizes, [s] * k, n).n_h, proportional(sizes, n).n_h
        )


def test_neyman_equal_sds_round_like_proportional():
    # N_h * s / sum_k N_k * s rounds differently from N_h / N for this s
    sizes, budget = [46, 298, 211], 259
    assert proportional(sizes, budget).n_h.tolist() == [21, 139, 99]
    assert neyman(sizes, [9.0948] * 3, budget).n_h.tolist() == [21, 139, 99]


def test_neyman_zero_sd_stratum_still_floored():
    plan = neyman([500, 500], [0.5, 0.0], 100)
    assert plan.n_h.tolist() == [98, 2]


def test_neyman_all_zero_sds_falls_back():
    plan = neyman([600, 400], [0.0, 0.0], 50)
    assert plan.n_h.tolist() == proportional([600, 400], 50).n_h.tolist()
    assert plan.strategy == "neyman"
    assert any("proportional" in w for w in plan.warnings)


def test_neyman_target_above_stratum_size_rebalanced():
    # raw targets are (500, 0) but stratum 0 only has 3 units; the
    # overflow must land on stratum 1 without breaking the total
    plan = neyman([3, 997], [100.0, 0.001], 500)
    assert plan.n_h.tolist() == [3, 497]


def test_totals_and_floors_on_random_instances():
    rng = np.random.default_rng(11)
    for _ in range(300):
        k = int(rng.integers(2, 8))
        sizes = rng.integers(2, 400, size=k)
        lo = 2 * k
        if sizes.sum() < lo:
            continue
        n = int(rng.integers(lo, sizes.sum() + 1))
        sds = rng.uniform(0, 1, size=k) * rng.integers(0, 2, size=k)
        for plan in (proportional(sizes, n), neyman(sizes, sds, n)):
            assert plan.total == n
            assert np.all(plan.n_h <= sizes)
            assert np.all(plan.n_h >= np.minimum(2, sizes))


def test_real_valued_neyman_targets_tracked():
    # before rounding, allocations follow N_h * S_h; check the rounded
    # output is within 1 of the real-valued optimum in each stratum
    sizes = np.array([300, 500, 200])
    sds = np.array([0.5, 0.2, 0.1])
    n = 120
    plan = neyman(sizes, sds, n)
    raw = n * sizes * sds / np.sum(sizes * sds)
    assert np.all(np.abs(plan.n_h - raw) < 1 + 1e-9)


def singleton_strata(proxy, kind=LossKind.ACCURACY, scores=None, assignment=None):
    """A pool of one unit per stratum (or the given ``assignment``) and its partition."""
    n = len(proxy)
    pop = Population(ids=tuple(f"u{i}" for i in range(n)), proxy=np.asarray(proxy, dtype=float),
                     loss=np.full(n, np.nan), loss_kind=kind, scores=scores)
    h = np.arange(n) if assignment is None else np.asarray(assignment)
    return pop, StrataPartition(h, int(h.max()) + 1)


def test_plugin_sd_accuracy_values():
    # a 0/1 loss: a stratum of mean predicted accuracy zbar has SD sqrt(zbar (1 - zbar))
    pop, part = singleton_strata([0.5, 0.0, 0.9])
    sds = plugin_sds(pop, "proxy", part)
    assert sds[0] == 0.5
    assert sds[1] == 0.0
    assert sds[2] == pytest.approx(0.3)


def test_plugin_sd_general_values():
    # squared error: a one-hot unit has loss 0 for sure, a (0.5, 0.5) unit 0.25 for
    # sure; a stratum of one of each has zbar = 1/8, z2bar = 1/32 and SD 1/8
    scores = np.array([[1.0, 0.0], [0.5, 0.5], [0.5, 0.5]])
    pop, part = singleton_strata([0.0, 0.25, 0.25], LossKind.SQUARED_ERROR, scores, [0, 0, 1])
    notes = []
    assert plugin_sds(pop, "proxy", part, warnings=notes).tolist() == [0.125, 0.0]
    assert notes == []
    # (1/3, 1/3, 1/3): z2bar - zbar^2 rounds below zero and is clamped, with a warning
    scores = np.full((1, 3), 1 / 3)
    pop, part = singleton_strata([0.0], LossKind.SQUARED_ERROR, scores)
    assert plugin_sds(pop, "proxy", part, warnings=notes).tolist() == [0.0]
    assert len(notes) == 1 and "clamped" in notes[0]


def test_plan_json_round_trip(tmp_path):
    plan = neyman([500, 500], [0.0, 0.0], 10)
    back = AllocationPlan.from_json(json.dumps(plan.to_dict()))
    assert back.strategy == plan.strategy
    assert np.array_equal(back.n_h, plan.n_h)
    assert back.warnings == plan.warnings


# -- allocation invariants ---------------------------------------------------------


@st.composite
def designs(draw):
    """Stratum sizes, a feasible budget and stratum SDs (zeros included)."""
    sizes = draw(st.lists(st.integers(1, 60), min_size=1, max_size=8))
    assume(2 * len(sizes) <= sum(sizes))
    budget = draw(st.integers(2 * len(sizes), sum(sizes)))
    sds = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 5.0)),
                        min_size=len(sizes), max_size=len(sizes)))
    return np.array(sizes), budget, np.array(sds)


@given(design=designs())
def test_allocations_spend_the_budget_within_floors_and_caps(design):
    sizes, budget, sds = design
    for plan in (proportional(sizes, budget), neyman(sizes, sds, budget)):
        assert plan.total == budget
        assert np.all(plan.n_h >= np.minimum(2, sizes))
        assert np.all(plan.n_h <= sizes)


@given(design=designs())
def test_neyman_with_all_zero_sds_falls_back_to_proportional(design):
    sizes, budget, _ = design
    plan = neyman(sizes, np.zeros(sizes.size), budget)
    assert plan.n_h.tolist() == proportional(sizes, budget).n_h.tolist()
    assert plan.warnings == ["all stratum SDs are zero; fell back to proportional"]


@given(design=designs(), sd=st.floats(min_value=5e-324, max_value=1e308))
def test_proportional_is_neyman_with_equal_sds(design, sd):
    # with every S_h equal, Neyman splits on the sizes: proportional's split, bit for bit
    sizes, budget, _ = design
    plan = neyman(sizes, np.full(sizes.size, sd), budget)
    assert plan.n_h.tolist() == proportional(sizes, budget).n_h.tolist()
    assert plan.warnings == []
