"""Tests for the Eq. 8 cost matrix, including the paper's Figure 7."""
import numpy as np
import pytest

from repro.core.cost_model import cost_matrix
from repro.core.grasp import plan_aggregation
from repro.engine.state import Origins
from repro.minhash.hashing import HashFamily
from repro.minhash.signatures import derive_signatures

FAM = HashFamily(n=100, seed=1)
# One paper "time unit": tuples of 1e6 bytes at 1 MB/s.
W = 1e6


def state_of(key_sets):
    return derive_signatures(Origins.from_key_sets(key_sets), FAM)


def fig1_state():
    """Figure 1: v0 destination (empty), v1={A,B,C}, v2={D,E,F}, v3={D,E,F}."""
    return state_of(
        [
            [np.array([], dtype=np.int64)],
            [np.array([1, 2, 3])],
            [np.array([4, 5, 6])],
            [np.array([4, 5, 6])],
        ]
    )


class TestFigure7:
    """The C1 matrix of Figure 7, with w equal to the bandwidth."""

    def setup_method(self):
        b = np.ones((4, 4))
        self.c = cost_matrix(fig1_state(), b, np.array([0]), w=W)[0]

    def test_destination_row_infinite(self):
        assert np.all(np.isinf(self.c[0, :]))

    def test_diagonal_infinite(self):
        assert np.all(np.isinf(np.diag(self.c)))

    def test_transfers_to_destination(self):
        # Only COST(s->t): each node holds 3 tuples.
        assert self.c[1, 0] == pytest.approx(3.0)
        assert self.c[2, 0] == pytest.approx(3.0)
        assert self.c[3, 0] == pytest.approx(3.0)

    def test_dissimilar_merge_costs_9(self):
        # v1 -> v2: send 3, union {A..F} = 6 next phase: 3 + 6 = 9.
        assert self.c[1, 2] == pytest.approx(9.0)
        assert self.c[1, 3] == pytest.approx(9.0)
        assert self.c[2, 1] == pytest.approx(9.0)
        assert self.c[3, 1] == pytest.approx(9.0)

    def test_similar_merge_costs_6(self):
        # v2 -> v3 (circled in Figure 7): send 3, union {D,E,F} = 3: 6.
        assert self.c[2, 3] == pytest.approx(6.0)
        assert self.c[3, 2] == pytest.approx(6.0)


class TestRules:
    def test_empty_receiver_blocked_unless_destination(self):
        state = state_of(
            [
                [np.array([], dtype=np.int64)],
                [np.array([1, 2])],
                [np.array([], dtype=np.int64)],
            ]
        )
        c = cost_matrix(state, np.ones((3, 3)), np.array([0]), w=W)[0]
        assert np.isfinite(c[1, 0])  # to empty destination: allowed
        assert np.isinf(c[1, 2])  # to empty non-destination: blocked

    def test_empty_sender_blocked(self):
        state = state_of([[np.array([1])], [np.array([], dtype=np.int64)], [np.array([2])]])
        c = cost_matrix(state, np.ones((3, 3)), np.array([0]), w=W)[0]
        assert np.all(np.isinf(c[1, :]))

    def test_destination_never_sends(self):
        state = state_of([[np.array([1, 2])], [np.array([3])]])
        c = cost_matrix(state, np.ones((2, 2)), np.array([0]), w=W)[0]
        assert np.all(np.isinf(c[0, :]))

    def test_bandwidth_scales_cost(self):
        state = fig1_state()
        b = np.ones((4, 4))
        b[1, 0] = 2.0  # double bandwidth on v1 -> v0
        c = cost_matrix(state, b, np.array([0]), w=W)[0]
        assert c[1, 0] == pytest.approx(1.5)

    def test_asymmetric_matrix(self):
        # v2 holds 3 keys, v3 holds 1 key (subset): C[2,3] != C[3,2]
        # because the transfer-cost terms differ.
        state = state_of(
            [
                [np.array([], dtype=np.int64)],
                [np.array([9])],
                [np.array([4, 5, 6])],
                [np.array([4])],
            ]
        )
        c = cost_matrix(state, np.ones((4, 4)), np.array([0]), w=W)[0]
        assert c[2, 3] != c[3, 2]

    def test_multi_partition_shapes(self):
        state = state_of(
            [
                [np.array([1]), np.array([2])],
                [np.array([3]), np.array([4])],
            ]
        )
        c = cost_matrix(state, np.ones((2, 2)), np.array([0, 1]), w=W)
        assert c.shape == (2, 2, 2)
        # Partition 0's destination is frag 0; partition 1's is frag 1.
        assert np.isfinite(c[0, 1, 0]) and np.isinf(c[0, 0, 1])
        assert np.isfinite(c[1, 0, 1]) and np.isinf(c[1, 1, 0])

    def test_shape_validation(self):
        state = fig1_state()
        with pytest.raises(ValueError):
            cost_matrix(state, np.ones((3, 3)), np.array([0]), w=W)
        with pytest.raises(ValueError):
            cost_matrix(state, np.ones((4, 4)), np.array([0, 1]), w=W)

    @pytest.mark.parametrize("dest", [-1, 4])
    def test_out_of_range_destination_rejected(self, dest):
        # -1 would index fragment N-1 and plan a merge onto it; N would
        # fail later with a bare IndexError.
        state = fig1_state()
        with pytest.raises(ValueError, match="outside"):
            cost_matrix(state, np.ones((4, 4)), np.array([dest]), w=W)
        with pytest.raises(ValueError, match="outside"):
            plan_aggregation(state, np.ones((4, 4)), [dest], w=W)


class TestBandwidthValidation:
    @pytest.mark.parametrize("bad", [np.nan, 0.0, -1.0, np.inf])
    def test_bad_off_diagonal_entry_rejected(self, bad):
        # Eq. 5 would price such a link at 0 s, so Algorithm 2 would
        # pick it first.
        b = np.ones((4, 4))
        b[2, 3] = bad
        with pytest.raises(ValueError, match="bandwidth"):
            cost_matrix(fig1_state(), b, np.array([0]), w=W)

    @pytest.mark.parametrize("diag", [np.inf, 0.0, np.nan])
    def test_diagonal_is_free(self, diag):
        b = np.ones((4, 4))
        np.fill_diagonal(b, diag)
        c = cost_matrix(fig1_state(), b, np.array([0]), w=W)[0]
        assert np.all(np.isinf(np.diag(c)))
        assert c[1, 0] == pytest.approx(3.0)
