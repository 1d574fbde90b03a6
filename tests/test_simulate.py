"""Tests for the exact driver-side plan simulator."""
import numpy as np
import pytest

from repro.core.plan import Phase, Plan, Transfer
from repro.core.simulate import simulate_plan
from repro.netsim.topology import Topology

TOPO = Topology(n_machines=4, nic_bw=1.0, intra_bw=1.0)
W = 1e6


def plan_of(*phases, shared=False):
    return Plan(phases=[Phase(list(p), shared_links=shared) for p in phases])


class TestMovement:
    def test_simple_transfer(self):
        sets = [[set()], [{1, 2}]]
        plan = plan_of([Transfer(1, 0, 0)])
        sim = simulate_plan(sets, plan, np.array([0]), TOPO, w=W)
        assert sim.final_sets[0][0] == {1, 2}
        assert sim.final_sets[1][0] == set()
        assert sim.total_tuples_sent == 2

    def test_union_semantics(self):
        sets = [[{1, 2}], [{2, 3}]]
        plan = plan_of([Transfer(1, 0, 0)])
        sim = simulate_plan(sets, plan, np.array([0]), TOPO, w=W)
        assert sim.final_sets[0][0] == {1, 2, 3}

    def test_input_not_mutated(self):
        sets = [[set()], [{1}]]
        simulate_plan(sets, plan_of([Transfer(1, 0, 0)]), np.array([0]), TOPO, w=W)
        assert sets[1][0] == {1}

    def test_concurrent_swap_uses_pre_phase_state(self):
        # v0 sends partition 1 while receiving partition 0 in the same
        # phase: what it sends is its pre-phase partition-1 data.
        sets = [[set(), {9}], [{1}, set()]]
        plan = plan_of([Transfer(1, 0, 0), Transfer(0, 1, 1)])
        sim = simulate_plan(sets, plan, np.array([0, 1]), TOPO, w=W)
        assert sim.final_sets[0] == [{1}, set()]
        assert sim.final_sets[1] == [set(), {9}]
        assert sim.completed(np.array([0, 1]))

    def test_dest_tuples_counting(self):
        sets = [[set()], [{1, 2, 3}], [{4, 5}]]
        plan = plan_of([Transfer(1, 2, 0)], [Transfer(2, 0, 0)])
        topo = Topology(n_machines=3, nic_bw=1.0, intra_bw=1.0)
        sim = simulate_plan(sets, plan, np.array([0]), topo, w=W)
        # Only the final hop lands at the destination: 5 tuples.
        assert sim.dest_tuples == 5
        assert sim.total_tuples_sent == 8


class TestCosts:
    def test_phase_costs_recorded(self):
        sets = [[set()], [{1, 2}], [{3}]]
        plan = plan_of([Transfer(1, 0, 0)], [Transfer(2, 0, 0)])
        topo = Topology(n_machines=3, nic_bw=1.0, intra_bw=1.0)
        sim = simulate_plan(sets, plan, np.array([0]), topo, w=W)
        assert sim.phase_seconds == [pytest.approx(2.0), pytest.approx(1.0)]
        assert sim.network_seconds == pytest.approx(3.0)


class TestCompletion:
    def test_incomplete_detected(self):
        sets = [[set()], [{1}], [{2}]]
        plan = plan_of([Transfer(1, 0, 0)])
        topo = Topology(n_machines=3, nic_bw=1.0, intra_bw=1.0)
        sim = simulate_plan(sets, plan, np.array([0]), topo, w=W)
        assert not sim.completed(np.array([0]))

    def test_empty_plan_on_empty_cluster(self):
        sets = [[{1}], [set()]]
        sim = simulate_plan(sets, Plan(), np.array([0]), Topology(n_machines=2), w=W)
        assert sim.completed(np.array([0]))
        assert sim.network_seconds == 0.0
