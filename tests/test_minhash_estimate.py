"""Tests for Algorithm 1 (ESTCARD / UPDATE) and the coordinator state."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.state import Origins
from repro.minhash.estimate import CoordinatorState, est_card, update
from repro.minhash.hashing import EMPTY_SLOT, HashFamily
from repro.minhash.signatures import derive_signatures
from tests import reference_planner as ref

FAM = HashFamily(n=100, seed=9)


def make_state(*key_lists, n_parts=1, family=FAM):
    """State with one partition per fragment list (or several)."""
    sets = [
        [np.array(key_lists[v][l], dtype=np.int64) for l in range(n_parts)]
        for v in range(len(key_lists))
    ]
    return derive_signatures(Origins.from_key_sets(sets), family)


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


def est_jaccard(state, s, t, l=0):
    """The planner's Jaccard estimate: the agreeing fraction of slots."""
    return state.agree[l, s, t] / state.n_slots


class TestEstJaccard:
    def test_identical(self):
        st_ = make_state([[1, 2, 3]], [[1, 2, 3]])
        assert est_jaccard(st_, 0, 1) == 1.0

    def test_disjoint_near_zero(self):
        st_ = make_state([list(range(0, 500))], [list(range(1000, 1500))])
        assert est_jaccard(st_, 0, 1) < 0.1

    def test_partial_overlap(self):
        st_ = make_state([list(range(0, 300))], [list(range(150, 450))])
        j = est_jaccard(st_, 0, 1)
        assert abs(j - 1 / 3) < 0.2


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
        ref = make_state([sorted(set(s) | set(t))])
        update(st_, 0, 1, 0)
        np.testing.assert_array_equal(st_.minh[1, 0], ref.minh[0, 0])

    def test_chained_updates(self):
        st_ = make_state([[1]], [[2]], [[3]])
        update(st_, 0, 1, 0)
        update(st_, 1, 2, 0)
        assert st_.card[0, 0] == 0 and st_.card[1, 0] == 0
        assert st_.card[2, 0] >= 1


def all_pairs(state, l=0):
    """ESTCARD over partition ``l``'s full (s, t) grid."""
    nodes = np.arange(state.n_frags)
    return est_card(state, nodes[:, None], nodes, l)


class TestAllPairs:
    def test_matches_scalar_estcard(self):
        st_ = make_state(
            [list(range(0, 30))], [list(range(10, 50))], [list(range(100, 130))]
        )
        u = all_pairs(st_)
        for s in range(3):
            for t in range(3):
                if s != t:
                    assert u[s, t] == pytest.approx(est_card(st_, s, t, 0))

    def test_diagonal_is_self_union(self):
        st_ = make_state([[1, 2, 3]], [[4, 5]])
        u = all_pairs(st_)
        assert u[0, 0] == pytest.approx(3.0)
        assert u[1, 1] == pytest.approx(2.0)

    @given(
        s=st.sets(st.integers(min_value=0, max_value=500), min_size=1, max_size=50),
        t=st.sets(st.integers(min_value=0, max_value=500), min_size=1, max_size=50),
    )
    @settings(max_examples=30, deadline=None)
    def test_estimate_within_bounds_hypothesis(self, s, t):
        fam = HashFamily(n=32, seed=3)
        st_ = make_state([sorted(s)], [sorted(t)], family=fam)
        e = est_card(st_, 0, 1, 0)
        assert max(len(s), len(t)) - 1e-9 <= e <= len(s) + len(t) + 1e-9


@st.composite
def state_and_updates(draw):
    """A small state with many equal and empty signatures, plus two random
    sequences of UPDATE(s, t, l) calls on it. Some states are built by
    hand with only some slots of a signature EMPTY."""
    n = draw(st.integers(min_value=2, max_value=7))
    m = draw(st.integers(min_value=1, max_value=3))
    keys = st.lists(st.integers(min_value=0, max_value=6), max_size=5)
    sets = [[np.array(draw(keys), dtype=np.int64) for _ in range(m)] for _ in range(n)]
    fam = HashFamily(n=draw(st.integers(min_value=1, max_value=12)), seed=4)
    state = derive_signatures(Origins.from_key_sets(sets), fam)
    slot = st.tuples(st.integers(0, n - 1), st.integers(0, m - 1), st.integers(0, fam.n - 1))
    holes = draw(st.lists(slot, max_size=8))
    if holes:
        minh = state.minh.copy()
        minh[tuple(np.array(holes).T)] = EMPTY_SLOT
        state = CoordinatorState(state.card, minh)
    pair = st.tuples(
        st.integers(0, n - 1), st.integers(0, n - 1), st.integers(0, m - 1)
    ).filter(lambda p: p[0] != p[1])
    updates = st.lists(pair, max_size=12)
    return state, draw(updates), draw(updates)


def assert_cache_exact(state):
    """The caches equal a full recount, and every estimate read from them
    equals the ``np.mean`` formula bit for bit."""
    fresh = CoordinatorState(state.card, state.minh)
    np.testing.assert_array_equal(state.agree, fresh.agree)
    np.testing.assert_array_equal(state.n_empty, fresh.n_empty)
    for l in range(state.n_parts):
        assert np.array_equal(all_pairs(state, l), ref.all_pairs_union_card(state.card, state.minh, l))
        for s in range(state.n_frags):
            for t in range(state.n_frags):
                assert est_card(state, s, t, l) == ref.est_card(state.card, state.minh, s, t, l)


class TestAgreementCache:
    @given(case=state_and_updates())
    @settings(max_examples=60, deadline=None)
    def test_matches_recount_after_updates(self, case):
        state, updates, _ = case
        assert_cache_exact(state)
        # The second pass sends again from the senders the first emptied.
        for s, t, l in updates * 2:
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


@st.composite
def state_and_phase(draw):
    """A small tie-heavy state after some UPDATEs, and one phase of picks
    that touch disjoint (l, node) pairs, as Algorithm 2 makes them. The
    earlier UPDATEs' senders are offered first, so many picks send from
    a cell that is already empty."""
    state, earlier, candidates = draw(state_and_updates())
    for s, t, l in earlier:
        update(state, s, t, l)
    used, picks = set(), []
    for s, t, l in earlier + candidates:
        if (l, s) not in used and (l, t) not in used:
            used |= {(l, s), (l, t)}
            picks.append((s, t, l))
    return state, picks


class TestBatchedUpdate:
    @given(case=state_and_phase())
    @settings(max_examples=80, deadline=None)
    def test_batch_equals_sequential(self, case):
        state, picks = case
        batched = state.copy()
        for s, t, l in picks:
            update(state, s, t, l)
        s, t, l = np.array(picks, dtype=np.intp).reshape(-1, 3).T
        update(batched, s, t, l)
        assert np.array_equal(batched.card, state.card)
        assert np.array_equal(batched.minh, state.minh)
        assert np.array_equal(batched.agree, state.agree)
        assert_cache_exact(batched)

    @pytest.mark.parametrize(
        "s, t, l",
        [
            ([0, 2], [1, 0], [0, 0]),  # node 0 sends and receives partition 0
            ([0, 0], [1, 2], [0, 0]),  # node 0 sends partition 0 twice
            ([0, 2], [1, 1], [0, 0]),  # node 1 receives partition 0 twice
            (1, 1, 0),  # a self transfer
        ],
    )
    def test_repeated_pair_rejected(self, s, t, l):
        st_ = make_state([[1]], [[2]], [[3]])
        before = st_.copy()
        with pytest.raises(ValueError):
            update(st_, s, t, l)
        assert np.array_equal(st_.card, before.card)
        assert np.array_equal(st_.minh, before.minh)

    @pytest.mark.parametrize(
        "s, t, l",
        [
            (-1, 0, 0),  # would empty fragment N-1
            (0, -1, 0),
            (0, 1, -1),
            (3, 0, 0),
            (0, 3, 0),
            (0, 1, 1),
            ([0, 1], [2, 3], [0, 0]),  # one bad transfer in a batch
        ],
        ids=["s_neg", "t_neg", "l_neg", "s_N", "t_N", "l_L", "batch"],
    )
    def test_out_of_range_index_rejected(self, s, t, l):
        st_ = make_state([[1]], [[2]], [[3]])
        before = st_.copy()
        with pytest.raises(ValueError, match="outside"):
            update(st_, s, t, l)
        assert np.array_equal(st_.card, before.card)
        assert np.array_equal(st_.minh, before.minh)
        assert np.array_equal(st_.agree, before.agree)

    def test_other_partition_may_reuse_node(self):
        st_ = make_state([[1], [4]], [[2], [5]], [[3], [6]], n_parts=2)
        update(st_, [0, 1], [1, 0], [0, 1])
        assert st_.card[0, 0] == 0 and st_.card[1, 1] == 0
        assert_cache_exact(st_)
