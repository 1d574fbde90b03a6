"""Tests for the LOOM fan-in-tree baseline."""
import numpy as np
import pytest

from repro.baselines.loom import (
    loom_fanin,
    loom_plan,
    modeled_tree_cost,
    union_model,
    _machine_order,
    _tree_phases,
)
from repro.core.plan import Plan
from repro.core.simulate import simulate_plan
from repro.netsim.topology import Topology

W = 1e6
UNIFORM8 = Topology(n_machines=8, nic_bw=1.0, intra_bw=1.0)


class TestUnionModel:
    def test_empty_domain(self):
        assert union_model(np.array([5.0]), 0.0) == 0.0

    def test_single_set(self):
        assert union_model(np.array([30.0]), 100.0) == pytest.approx(30.0)

    def test_full_sets_saturate(self):
        assert union_model(np.array([100.0, 100.0]), 100.0) == pytest.approx(100.0)

    def test_two_half_sets(self):
        # D(1 - (1/2)^2) = 75.
        assert union_model(np.array([50.0, 50.0]), 100.0) == pytest.approx(75.0)

    def test_monotone_in_inputs(self):
        d = 1000.0
        u2 = union_model(np.array([100.0, 100.0]), d)
        u3 = union_model(np.array([100.0, 100.0, 100.0]), d)
        assert u3 > u2

    def test_oversized_inputs_clipped(self):
        assert union_model(np.array([150.0]), 100.0) == pytest.approx(100.0)


class TestMachineOrder:
    def test_root_first(self):
        topo = Topology(n_machines=2, frags_per_machine=2)
        order = _machine_order(topo, root=3)
        assert order[0] == 3
        assert sorted(order) == [0, 1, 2, 3]

    def test_machine_grouping(self):
        topo = Topology(n_machines=2, frags_per_machine=3)
        order = _machine_order(topo, root=0)
        machines = [topo.machine_of(v) for v in order[1:]]
        assert machines == sorted(machines)


class TestLoomPlan:
    def test_plan_completes(self):
        cards = np.full(8, 100.0)
        plan = loom_plan(cards, 100.0, 0, UNIFORM8, w=W)
        plan.validate()
        sets = [[set(range(100))] for _ in range(8)]
        sets[0] = [set()]
        sim = simulate_plan(sets, plan, np.array([0]), UNIFORM8, w=W)
        assert sim.completed(np.array([0]))

    def test_all_nodes_send_exactly_once(self):
        cards = np.full(8, 50.0)
        plan = loom_plan(cards, 400.0, 2, UNIFORM8, w=W)
        senders = [t.src for p in plan for t in p]
        assert sorted(senders) == [v for v in range(8) if v != 2]

    def test_fanin_within_bounds(self):
        cards = np.full(8, 50.0)
        plan = loom_plan(cards, 400.0, 0, UNIFORM8, w=W)
        f = loom_fanin(plan)
        assert 1 <= f <= 7

    def test_high_reduction_prefers_deep_tree(self):
        # Identical data everywhere (domain == leaf size): merging is
        # free, so small fan-in (more parallel merging) wins over the
        # flat star.
        cards = np.full(8, 100.0)
        deep = loom_plan(cards, 100.0, 0, UNIFORM8, w=W)
        assert loom_fanin(deep) < 7
        assert len(deep) > 1

    def test_no_reduction_prefers_flat_tree(self):
        # Disjoint data (domain >> leaves): intermediate hops only add
        # cost, so the flat fan-in-(N-1) star is optimal.
        cards = np.full(8, 100.0)
        flat = loom_plan(cards, 1e9, 0, UNIFORM8, w=W)
        assert loom_fanin(flat) == 7
        assert len(flat) == 1

    def test_two_fragments(self):
        topo = Topology(n_machines=2, nic_bw=1.0, intra_bw=1.0)
        plan = loom_plan(np.array([10.0, 10.0]), 20.0, 0, topo, w=W)
        assert plan.n_transfers == 1

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            loom_plan(np.zeros(3), 10.0, 0, UNIFORM8, w=W)


class TestModeledCost:
    def test_flat_tree_cost(self):
        topo = Topology(n_machines=4, nic_bw=1.0, intra_bw=1.0)
        order = _machine_order(topo, 0)
        # Fan-in 3, disjoint leaves of 10 tuples: one phase, 3 transfers
        # sharing the root downlink -> 30 units.
        cost = modeled_tree_cost(np.full(4, 10.0), 1e9, 3, topo, order, W)
        assert cost == pytest.approx(30.0)

    def test_binary_tree_identical_data_beats_flat_at_8(self):
        # Identical data (domain == leaf size): sizes never grow, so the
        # binary tree's root downlink only receives 2 fragments' worth
        # (50 units over 8 nodes) vs the flat star's 7 (70 units).
        topo = Topology(n_machines=8, nic_bw=1.0, intra_bw=1.0)
        order = _machine_order(topo, 0)
        binary = modeled_tree_cost(np.full(8, 10.0), 10.0, 2, topo, order, W)
        flat = modeled_tree_cost(np.full(8, 10.0), 10.0, 7, topo, order, W)
        assert flat == pytest.approx(70.0)
        assert binary == pytest.approx(50.0)

    @pytest.mark.parametrize("f", range(2, 8))
    def test_model_prices_tree_as_simulator(self, f):
        # Every fragment holds the same keys and domain == their count, so
        # the union model is exact: both paths price the same tree alike.
        topo = Topology(n_machines=2, frags_per_machine=4, nic_bw=1.0, intra_bw=5.0)
        order = _machine_order(topo, 5)
        dest = np.array([5])
        sets = [[set(range(10))] for _ in range(8)]
        sim = simulate_plan(sets, Plan(_tree_phases(order, f)), dest, topo, w=W)
        assert sim.completed(dest)
        model = modeled_tree_cost(np.full(8, 10.0), 10.0, f, topo, order, W)
        assert model == sim.network_seconds
