"""Plan-equality gate: the production planner must make exactly the plan
of the reference planner in ``tests/reference_planner.py`` — the same
transfers in the same order, ties included — and leave ``Card`` and
``MinH`` bit-equal to the reference's."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import grasp
from repro.minhash.estimate import CoordinatorState
from repro.minhash.hashing import HashFamily
from tests import reference_planner as ref


def fingerprint(plan) -> list:
    return [[(t.src, t.dst, t.part) for t in phase] for phase in plan]


def assert_same_plan(card, minh, bandwidth, dest, w):
    state = CoordinatorState(card, minh)
    plan = grasp.plan_aggregation(state, bandwidth, dest, w=w)
    ref_plan, ref_card, ref_minh = ref.plan_aggregation(card, minh, bandwidth, dest, w=w)
    assert fingerprint(plan) == fingerprint(ref_plan)
    assert state.card.tobytes() == ref_card.tobytes()
    assert state.minh.tobytes() == ref_minh.tobytes()
    return plan


@st.composite
def tie_heavy_instance(draw):
    """Few keys, short signatures and flat bandwidth, so that many
    entries of C share a cost."""
    n = draw(st.integers(min_value=2, max_value=11))
    m = draw(st.integers(min_value=1, max_value=5))
    universe = draw(st.integers(min_value=1, max_value=8))
    keys = st.lists(st.integers(min_value=0, max_value=universe - 1), max_size=universe)
    sets = [[np.array(draw(keys), dtype=np.int64) for _ in range(m)] for _ in range(n)]
    fam = HashFamily(n=draw(st.sampled_from([4, 16, 100])), seed=draw(st.integers(0, 3)))
    state = CoordinatorState.from_key_sets(sets, fam)
    if draw(st.booleans()):
        bandwidth = np.ones((n, n))
    else:
        bandwidth = np.array(
            draw(st.lists(st.sampled_from([1.0, 2.0]), min_size=n * n, max_size=n * n))
        ).reshape(n, n)
    if draw(st.booleans()):  # all-to-one
        dest = np.full(m, draw(st.integers(0, n - 1)), dtype=np.int64)
    else:  # all-to-all
        dest = np.array([draw(st.integers(0, n - 1)) for _ in range(m)], dtype=np.int64)
    w = draw(st.sampled_from([16.0, 1e6]))
    return state.card, state.minh, bandwidth, dest, w


class TestPlanEquality:
    @given(inst=tie_heavy_instance())
    @settings(max_examples=300, deadline=None)
    def test_random_tie_heavy_instances(self, inst):
        assert_same_plan(*inst)

    def test_seeded_n24_scans_several_bands(self, monkeypatch):
        n = m = 24
        g = np.random.default_rng(11)
        sets = [
            [g.choice(60, size=g.integers(0, 25), replace=False) for _ in range(m)]
            for _ in range(n)
        ]
        state = CoordinatorState.from_key_sets(sets, HashFamily(n=100, seed=7))
        bandwidth = np.where(g.random((n, n)) < 0.5, 118.0, 2000.0)
        # Count the bands each phase cuts: one np.partition call per band.
        bands = []
        partition = np.partition

        def counting_partition(a, kth):
            bands[-1] += 1
            return partition(a, kth)

        select_phase = grasp.select_phase

        def counting_select(*args):
            bands.append(0)
            return select_phase(*args)

        monkeypatch.setattr(np, "partition", counting_partition)
        monkeypatch.setattr(grasp, "select_phase", counting_select)
        plan = assert_same_plan(state.card, state.minh, bandwidth, np.arange(m), 16.0)
        assert len(plan) > 1
        assert max(bands) > 1


def test_empty_phase_matches_reference():
    # Nothing to move: both planners return an empty plan.
    card = np.array([[3.0], [0.0]])
    minh = np.zeros((2, 1, 4), dtype=np.int64)
    plan = assert_same_plan(card, minh, np.ones((2, 2)), np.array([0]), 16.0)
    assert len(plan) == 0


@pytest.mark.parametrize("bw", [1.0, 118.0])
def test_identical_fragments_break_ties_in_c_order(bw):
    # Every pair costs the same, so the plan is fixed by tie-breaking alone.
    sets = [[np.arange(5)] for _ in range(9)]
    state = CoordinatorState.from_key_sets(sets, HashFamily(n=16, seed=1))
    assert_same_plan(state.card, state.minh, np.full((9, 9), bw), np.array([4]), 16.0)
