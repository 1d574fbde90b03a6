"""Tests for the GRASP planner (Algorithm 2 + phase loop), including the
paper's Figure 8 walkthrough and random-instance property tests."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.grasp import aggregation_done, plan_aggregation, select_phase
from repro.core.cost_model import cost_matrix
from repro.core.plan import Plan
from repro.core.simulate import simulate_plan
from repro.minhash.estimate import CoordinatorState
from repro.minhash.hashing import HashFamily
from repro.netsim.topology import Topology

FAM = HashFamily(n=100, seed=1)
W = 1e6  # 1 tuple == 1 second at B = 1 MB/s


def state_from(sets_per_frag, n_parts=1, fam=FAM):
    return CoordinatorState.from_key_sets(
        [
            [np.array(sorted(parts[l]), dtype=np.int64) for l in range(n_parts)]
            for parts in sets_per_frag
        ],
        fam,
    )


def fig1_sets():
    return [[set()], [{1, 2, 3}], [{4, 5, 6}], [{4, 5, 6}]]


class TestFigure8:
    def test_plan_matches_paper(self):
        st_ = state_from(fig1_sets())
        plan = plan_aggregation(st_, np.ones((4, 4)), np.array([0]), w=W)
        assert len(plan) == 2
        p1 = {(t.src, t.dst) for t in plan.phases[0]}
        # First pick v1->v0 (cheapest); second the similar pair — the
        # paper shows v3->v2, the mirror v2->v3 has identical cost.
        assert (1, 0) in p1
        assert (2, 3) in p1 or (3, 2) in p1
        assert len(plan.phases[1]) == 1
        assert plan.phases[1].transfers[0].dst == 0

    def test_plan_cost_is_6_units(self):
        st_ = state_from(fig1_sets())
        plan = plan_aggregation(st_, np.ones((4, 4)), np.array([0]), w=W)
        topo = Topology(n_machines=4, nic_bw=1.0, intra_bw=1.0)
        sim = simulate_plan(fig1_sets(), plan, np.array([0]), topo, w=W)
        assert sim.network_seconds == pytest.approx(6.0)
        assert sim.completed(np.array([0]))

    def test_beats_repartition(self):
        # Repartitioning costs 9 units on the same instance (Figure 2).
        st_ = state_from(fig1_sets())
        plan = plan_aggregation(st_, np.ones((4, 4)), np.array([0]), w=W)
        topo = Topology(n_machines=4, nic_bw=1.0, intra_bw=1.0)
        sim = simulate_plan(fig1_sets(), plan, np.array([0]), topo, w=W)
        assert sim.network_seconds < 9.0


class TestSelectPhase:
    def test_one_send_one_receive(self):
        st_ = state_from([[set()], [{1}], [{2}], [{3}], [{4}], [{5}]])
        c = cost_matrix(st_, np.ones((6, 6)), np.array([0]), w=W)
        phase = select_phase(c, st_)
        phase.validate()
        # 6 nodes -> at most 3 disjoint transfers, and the destination
        # plus two merge pairs is exactly 3.
        assert len(phase) == 3

    def test_empty_state_empty_phase(self):
        st_ = state_from([[set()], [set()]])
        c = cost_matrix(st_, np.ones((2, 2)), np.array([0]), w=W)
        phase = select_phase(c, st_)
        assert len(phase) == 0

    def test_all_to_all_send_and_receive_different_partitions(self):
        # Two fragments each holding the other's partition: one phase can
        # schedule both directions (Section 2.2).
        sets = [[{1, 2}, {3, 4}], [{5, 6}, {7, 8}]]
        st_ = state_from(sets, n_parts=2)
        dest = np.array([0, 1])
        c = cost_matrix(st_, np.ones((2, 2)), dest, w=W)
        phase = select_phase(c, st_)
        phase.validate()
        pairs = {(t.src, t.dst, t.part) for t in phase}
        assert pairs == {(1, 0, 0), (0, 1, 1)}


class TestPlanLoop:
    def test_identical_sets_binary_merge(self):
        # 8 fragments with identical keys: GRASP should finish in ~log2
        # phases with constant per-phase cost.
        keys = set(range(100))
        sets = [[set(keys)] for _ in range(8)]
        sets[0] = [set()]  # empty destination
        st_ = state_from(sets)
        plan = plan_aggregation(st_, np.ones((8, 8)), np.array([0]), w=W)
        topo = Topology(n_machines=8, nic_bw=1.0, intra_bw=1.0)
        sim = simulate_plan(sets, plan, np.array([0]), topo, w=W)
        assert sim.completed(np.array([0]))
        # Repartition would cost 7*100; GRASP ~3*100.
        assert sim.network_seconds <= 0.5 * 7 * 100

    def test_disjoint_sets_no_worse_than_direct(self):
        sets = [[set()]] + [[set(range(i * 10, i * 10 + 10))] for i in range(1, 6)]
        st_ = state_from(sets)
        plan = plan_aggregation(st_, np.ones((6, 6)), np.array([0]), w=W)
        topo = Topology(n_machines=6, nic_bw=1.0, intra_bw=1.0)
        sim = simulate_plan(sets, plan, np.array([0]), topo, w=W)
        assert sim.completed(np.array([0]))
        # Lower bound: dest must receive all 50 distinct keys.
        assert sim.network_seconds >= 50.0
        # And GRASP should not ship more than twice the data overall.
        assert sim.network_seconds <= 100.0

    def test_destination_with_data(self):
        sets = [[{1, 2, 3}], [{3, 4}], [{9}]]
        st_ = state_from(sets)
        plan = plan_aggregation(st_, np.ones((3, 3)), np.array([0]), w=W)
        topo = Topology(n_machines=3, nic_bw=1.0, intra_bw=1.0)
        sim = simulate_plan(sets, plan, np.array([0]), topo, w=W)
        assert sim.completed(np.array([0]))
        assert sim.final_sets[0][0] == {1, 2, 3, 4, 9}

    def test_already_done_returns_empty_plan(self):
        sets = [[{1, 2}], [set()]]
        st_ = state_from(sets)
        plan = plan_aggregation(st_, np.ones((2, 2)), np.array([0]), w=W)
        assert len(plan) == 0

    def test_all_to_all_completion(self):
        rng = np.random.default_rng(0)
        n, m = 4, 4
        sets = [
            [set(map(int, rng.integers(0, 50, 12))) for _ in range(m)]
            for _ in range(n)
        ]
        st_ = state_from(sets, n_parts=m)
        dest = np.arange(m) % n
        plan = plan_aggregation(st_, np.ones((n, n)), dest, w=W)
        plan.validate()
        topo = Topology(n_machines=n, nic_bw=1.0, intra_bw=1.0)
        sim = simulate_plan(sets, plan, dest, topo, w=W)
        assert sim.completed(dest)

    def test_nonuniform_prefers_fast_links(self):
        # Machine-local pair merges should dominate early phases when the
        # intra-machine links are 20x faster.
        topo = Topology(n_machines=2, frags_per_machine=2, nic_bw=1.0, intra_bw=20.0)
        keys = set(range(60))
        sets = [[set(keys)] for _ in range(4)]
        sets[0] = [set()]
        st_ = state_from(sets)
        from repro.netsim.bandwidth import theoretical_matrix

        plan = plan_aggregation(st_, theoretical_matrix(topo), np.array([0]), w=W)
        first = plan.phases[0]
        intra = [t for t in first if topo.machine_of(t.src) == topo.machine_of(t.dst)]
        assert intra  # at least one intra-machine merge scheduled first


class TestAggregationDone:
    def test_done(self):
        st_ = state_from([[{1, 2}], [set()]])
        assert aggregation_done(st_, np.array([0]))

    def test_not_done(self):
        st_ = state_from([[{1, 2}], [{3}]])
        assert not aggregation_done(st_, np.array([0]))


@st.composite
def random_instance(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    m = draw(st.integers(min_value=1, max_value=3))
    sets = [
        [
            set(
                draw(
                    st.lists(
                        st.integers(min_value=0, max_value=40), max_size=8
                    )
                )
            )
            for _ in range(m)
        ]
        for _ in range(n)
    ]
    dest = [draw(st.integers(min_value=0, max_value=n - 1)) for _ in range(m)]
    return sets, np.array(dest, dtype=np.int64)


class TestPlannerProperties:
    @given(inst=random_instance())
    @settings(max_examples=40, deadline=None)
    def test_random_instances_complete_and_valid(self, inst):
        sets, dest = inst
        n, m = len(sets), len(dest)
        fam = HashFamily(n=16, seed=2)
        st_ = CoordinatorState.from_key_sets(
            [
                [np.array(sorted(parts[l]), dtype=np.int64) for l in range(m)]
                for parts in sets
            ],
            fam,
        )
        plan = plan_aggregation(st_, np.ones((n, n)), dest, w=W)
        plan.validate()
        topo = Topology(n_machines=n, nic_bw=1.0, intra_bw=1.0)
        sim = simulate_plan(sets, plan, dest, topo, w=W)
        assert sim.completed(dest)
        # Destination key sets must be exactly the union of all inputs.
        for l in range(m):
            expect = set().union(*(sets[v][l] for v in range(n)))
            assert sim.final_sets[dest[l]][l] == expect

    @given(inst=random_instance())
    @settings(max_examples=25, deadline=None)
    def test_phases_bounded(self, inst):
        sets, dest = inst
        n, m = len(sets), len(dest)
        fam = HashFamily(n=8, seed=5)
        st_ = CoordinatorState.from_key_sets(
            [
                [np.array(sorted(parts[l]), dtype=np.int64) for l in range(m)]
                for parts in sets
            ],
            fam,
        )
        plan = plan_aggregation(st_, np.ones((n, n)), dest, w=W)
        assert len(plan) <= n * m
