"""Tests for Algorithm 1 (ESTCARD / UPDATE) and the coordinator state."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.minhash.estimate import (
    CoordinatorState,
    all_pairs_union_card,
    est_card,
    est_jaccard,
    update,
)
from repro.minhash.hashing import EMPTY_SLOT, HashFamily
from tests import reference_planner as ref

FAM = HashFamily(n=100, seed=9)


def make_state(*key_lists, n_parts=1):
    """State with one partition per fragment list (or several)."""
    sets = [
        [np.array(key_lists[v][l], dtype=np.int64) for l in range(n_parts)]
        for v in range(len(key_lists))
    ]
    return CoordinatorState.from_key_sets(sets, FAM)


class TestConstruction:
    def test_shapes(self):
        st_ = make_state([[1, 2, 3]], [[4, 5]])
        assert st_.card.shape == (2, 1)
        assert st_.minh.shape == (2, 1, 100)
        assert st_.n_frags == 2 and st_.n_parts == 1

    def test_cardinalities_are_distinct_counts(self):
        st_ = make_state([[1, 1, 2, 2, 3]], [[]])
        assert st_.card[0, 0] == 3
        assert st_.card[1, 0] == 0

    def test_empty_set_signature(self):
        st_ = make_state([[]], [[1]])
        assert np.all(st_.minh[0, 0] == EMPTY_SLOT)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            CoordinatorState(np.zeros((2, 1)), np.zeros((3, 1, 4), dtype=np.int64))

    def test_copy_is_independent(self):
        st_ = make_state([[1, 2]], [[3]])
        cp = st_.copy()
        cp.card[0, 0] = 99
        assert st_.card[0, 0] == 2


class TestEstJaccard:
    def test_identical(self):
        st_ = make_state([[1, 2, 3]], [[1, 2, 3]])
        assert est_jaccard(st_.minh[0, 0], st_.minh[1, 0]) == 1.0

    def test_disjoint_near_zero(self):
        st_ = make_state([list(range(0, 500))], [list(range(1000, 1500))])
        assert est_jaccard(st_.minh[0, 0], st_.minh[1, 0]) < 0.1

    def test_partial_overlap(self):
        st_ = make_state([list(range(0, 300))], [list(range(150, 450))])
        j = est_jaccard(st_.minh[0, 0], st_.minh[1, 0])
        assert abs(j - 1 / 3) < 0.2

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            est_jaccard(np.zeros(3), np.zeros(4))


class TestEstCard:
    def test_identical_sets(self):
        st_ = make_state([[1, 2, 3]], [[1, 2, 3]])
        assert est_card(st_, 0, 1, 0) == pytest.approx(3.0)

    def test_disjoint_sets(self):
        st_ = make_state([list(range(0, 400))], [list(range(1000, 1400))])
        assert est_card(st_, 0, 1, 0) == pytest.approx(800.0, rel=0.15)

    def test_clamped_to_bounds(self):
        st_ = make_state([list(range(0, 300))], [list(range(100, 350))])
        e = est_card(st_, 0, 1, 0)
        assert max(300, 250) <= e <= 300 + 250

    def test_one_empty(self):
        st_ = make_state([[1, 2, 3]], [[]])
        # J estimate vs empty sig is 0 agreement; union = |S|.
        assert est_card(st_, 0, 1, 0) == pytest.approx(3.0)

    def test_symmetric(self):
        st_ = make_state([list(range(50))], [list(range(25, 80))])
        assert est_card(st_, 0, 1, 0) == est_card(st_, 1, 0, 0)


class TestUpdate:
    def test_sender_emptied(self):
        st_ = make_state([[1, 2]], [[2, 3]])
        update(st_, 0, 1, 0)
        assert st_.card[0, 0] == 0
        assert np.all(st_.minh[0, 0] == EMPTY_SLOT)

    def test_receiver_signature_is_pairwise_min(self):
        st_ = make_state([list(range(10))], [list(range(5, 15))])
        expected = np.minimum(st_.minh[0, 0], st_.minh[1, 0])
        update(st_, 0, 1, 0)
        np.testing.assert_array_equal(st_.minh[1, 0], expected)

    def test_receiver_card_is_estimate(self):
        st_ = make_state([[1, 2, 3]], [[1, 2, 3]])
        update(st_, 0, 1, 0)
        assert st_.card[1, 0] == pytest.approx(3.0)

    def test_update_matches_recomputed_signature(self):
        # After UPDATE, the receiver's signature equals the signature of
        # the true union (Section 3.3's "no second pass" property).
        s = list(range(0, 40))
        t = list(range(20, 70))
        st_ = make_state([s], [t])
        ref = CoordinatorState.from_key_sets(
            [[np.array(sorted(set(s) | set(t)))]], FAM
        )
        update(st_, 0, 1, 0)
        np.testing.assert_array_equal(st_.minh[1, 0], ref.minh[0, 0])

    def test_chained_updates(self):
        st_ = make_state([[1]], [[2]], [[3]])
        update(st_, 0, 1, 0)
        update(st_, 1, 2, 0)
        assert st_.card[0, 0] == 0 and st_.card[1, 0] == 0
        assert st_.card[2, 0] >= 1


class TestAllPairs:
    def test_matches_scalar_estcard(self):
        st_ = make_state(
            [list(range(0, 30))], [list(range(10, 50))], [list(range(100, 130))]
        )
        u = all_pairs_union_card(st_)[0]
        for s in range(3):
            for t in range(3):
                if s != t:
                    assert u[s, t] == pytest.approx(est_card(st_, s, t, 0))

    def test_diagonal_is_self_union(self):
        st_ = make_state([[1, 2, 3]], [[4, 5]])
        u = all_pairs_union_card(st_)[0]
        assert u[0, 0] == pytest.approx(3.0)
        assert u[1, 1] == pytest.approx(2.0)

    @given(
        s=st.sets(st.integers(min_value=0, max_value=500), min_size=1, max_size=50),
        t=st.sets(st.integers(min_value=0, max_value=500), min_size=1, max_size=50),
    )
    @settings(max_examples=30, deadline=None)
    def test_estimate_within_bounds_hypothesis(self, s, t):
        fam = HashFamily(n=32, seed=3)
        st_ = CoordinatorState.from_key_sets(
            [[np.array(sorted(s))], [np.array(sorted(t))]], fam
        )
        e = est_card(st_, 0, 1, 0)
        assert max(len(s), len(t)) - 1e-9 <= e <= len(s) + len(t) + 1e-9


@st.composite
def state_and_updates(draw):
    """A small state with many equal and empty signatures, plus two random
    sequences of UPDATE(s, t, l) calls on it."""
    n = draw(st.integers(min_value=2, max_value=7))
    m = draw(st.integers(min_value=1, max_value=3))
    keys = st.lists(st.integers(min_value=0, max_value=6), max_size=5)
    sets = [[np.array(draw(keys), dtype=np.int64) for _ in range(m)] for _ in range(n)]
    fam = HashFamily(n=draw(st.integers(min_value=1, max_value=12)), seed=4)
    pair = st.tuples(
        st.integers(0, n - 1), st.integers(0, n - 1), st.integers(0, m - 1)
    ).filter(lambda p: p[0] != p[1])
    updates = st.lists(pair, max_size=12)
    return CoordinatorState.from_key_sets(sets, fam), draw(updates), draw(updates)


def assert_cache_exact(state):
    """The agreement cache equals a full recount, and every estimate read
    from it equals the ``np.mean`` formula bit for bit."""
    np.testing.assert_array_equal(state.agree, CoordinatorState(state.card, state.minh).agree)
    union = all_pairs_union_card(state)
    for l in range(state.n_parts):
        assert np.array_equal(union[l], ref.all_pairs_union_card(state.card, state.minh, l))
        for s in range(state.n_frags):
            for t in range(state.n_frags):
                assert est_card(state, s, t, l) == ref.est_card(state.card, state.minh, s, t, l)


class TestAgreementCache:
    @given(case=state_and_updates())
    @settings(max_examples=60, deadline=None)
    def test_matches_recount_after_updates(self, case):
        state, updates, _ = case
        assert_cache_exact(state)
        for s, t, l in updates:
            update(state, s, t, l)
            assert_cache_exact(state)

    @given(case=state_and_updates())
    @settings(max_examples=40, deadline=None)
    def test_copy_diverges_independently(self, case):
        state, ours, theirs = case
        clone = state.copy()
        for s, t, l in theirs:
            update(clone, s, t, l)
        for s, t, l in ours:
            update(state, s, t, l)
        # Shared arrays or a shared cache would leave one of them stale.
        assert_cache_exact(state)
        assert_cache_exact(clone)
