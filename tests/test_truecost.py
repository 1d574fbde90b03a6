"""Ground-truth cost model tests, including the paper's worked examples
(Figures 2–4: repartition costs 9 time units, the similarity-aware plan
6, the similarity-oblivious plan 9)."""
import pytest

from repro.core.plan import Phase, Transfer
from repro.netsim.topology import Topology
from repro.netsim.truecost import ComputeModel, phase_cost

# One "time unit" of the paper: 1 tuple of 1e6 bytes at 1 MB/s.
W = 1e6
UNIFORM4 = Topology(n_machines=4, frags_per_machine=1, nic_bw=1.0, intra_bw=1.0)


def tuples(n):
    return n * W


def plan_seconds(phases, bytes_per_phase, topo):
    """Eq. 3: a plan's cost is the serial sum of its phase costs."""
    return sum(phase_cost(p, b, topo) for p, b in zip(phases, bytes_per_phase))


class TestPaperFigures:
    def test_figure2_repartition_costs_9(self):
        phase = Phase(
            [Transfer(1, 0, 0), Transfer(2, 0, 0), Transfer(3, 0, 0)],
            shared_links=True,
        )
        b = {t: tuples(3) for t in phase}
        # Three concurrent transfers share v0's downlink: 3 tuples each at
        # 1/3 bandwidth -> 9 time units.
        assert phase_cost(phase, b, UNIFORM4) == pytest.approx(9.0)

    def test_figure3_similarity_aware_costs_6(self):
        p1 = Phase([Transfer(1, 0, 0), Transfer(3, 2, 0)])
        p2 = Phase([Transfer(2, 0, 0)])
        b1 = {t: tuples(3) for t in p1}
        b2 = {t: tuples(3) for t in p2}  # {D,E,F} aggregated with {D,E,F}
        assert plan_seconds([p1, p2], [b1, b2], UNIFORM4) == pytest.approx(6.0)

    def test_figure4_similarity_oblivious_costs_9(self):
        p1 = Phase([Transfer(3, 1, 0)])
        p2 = Phase([Transfer(1, 0, 0)])
        b1 = {t: tuples(3) for t in p1}
        b2 = {t: tuples(6) for t in p2}  # {A..F}: no overlap to collapse
        assert plan_seconds([p1, p2], [b1, b2], UNIFORM4) == pytest.approx(9.0)


class TestLinkSharing:
    def test_single_transfer_full_bandwidth(self):
        phase = Phase([Transfer(1, 0, 0)])
        assert phase_cost(phase, {Transfer(1, 0, 0): tuples(5)}, UNIFORM4) == 5.0

    def test_disjoint_transfers_concurrent(self):
        phase = Phase([Transfer(1, 0, 0), Transfer(3, 2, 0)])
        b = {Transfer(1, 0, 0): tuples(5), Transfer(3, 2, 0): tuples(2)}
        assert phase_cost(phase, b, UNIFORM4) == 5.0  # max, not sum

    def test_sender_nic_shared_across_fragments(self):
        # Two fragments on machine 0 each send cross-machine: they share
        # the machine-0 uplink.
        topo = Topology(n_machines=2, frags_per_machine=2, nic_bw=1.0, intra_bw=100.0)
        phase = Phase([Transfer(0, 2, 0), Transfer(1, 3, 1)])
        b = {Transfer(0, 2, 0): tuples(4), Transfer(1, 3, 1): tuples(4)}
        assert phase_cost(phase, b, topo) == pytest.approx(8.0)

    def test_intra_machine_fast_path(self):
        topo = Topology(n_machines=2, frags_per_machine=2, nic_bw=1.0, intra_bw=10.0)
        phase = Phase([Transfer(0, 1, 0)])
        assert phase_cost(phase, {Transfer(0, 1, 0): tuples(10)}, topo) == 1.0

    def test_intra_machine_sharing(self):
        topo = Topology(n_machines=1, frags_per_machine=4, nic_bw=1.0, intra_bw=10.0)
        phase = Phase([Transfer(0, 1, 0), Transfer(2, 3, 0)])
        b = {Transfer(0, 1, 0): tuples(10), Transfer(2, 3, 0): tuples(10)}
        # Two intra transfers share the 10 MB/s fabric: 5 each.
        assert phase_cost(phase, b, topo) == pytest.approx(2.0)

    def test_mixed_intra_and_cross(self):
        topo = Topology(n_machines=2, frags_per_machine=2, nic_bw=1.0, intra_bw=10.0)
        t_intra, t_cross = Transfer(0, 1, 0), Transfer(2, 3, 1)
        phase = Phase([t_intra, t_cross])
        # t_cross is intra on machine 1? frags 2,3 are machine 1 -> intra.
        b = {t_intra: tuples(10), t_cross: tuples(10)}
        # Separate machines' fabrics: both run at 10 MB/s -> 1s each.
        assert phase_cost(phase, b, topo) == pytest.approx(1.0)

    def test_empty_phase_zero_cost(self):
        assert phase_cost(Phase([]), {}, UNIFORM4) == 0.0

    def test_zero_byte_transfer_zero_cost(self):
        phase = Phase([Transfer(1, 0, 0)])
        assert phase_cost(phase, {Transfer(1, 0, 0): 0.0}, UNIFORM4) == 0.0

    def test_missing_bytes_treated_as_zero(self):
        phase = Phase([Transfer(1, 0, 0)])
        assert phase_cost(phase, {}, UNIFORM4) == 0.0


class TestComputeModel:
    def test_throughput_selection(self):
        cm = ComputeModel(raw_mbps=309.0, preagg_mbps=811.0)
        assert cm.throughput(False) == 309.0
        assert cm.throughput(True) == 811.0

    def test_compute_added_to_receive(self):
        cm = ComputeModel(raw_mbps=1.0, preagg_mbps=2.0)
        phase = Phase([Transfer(1, 0, 0)])
        b = {Transfer(1, 0, 0): tuples(4)}
        # net 4s + compute 4s (raw at 1 MB/s).
        assert phase_cost(phase, b, UNIFORM4, compute=cm, preaggregated=False) == 8.0
        # preagg throughput 2 MB/s -> compute 2s.
        assert phase_cost(phase, b, UNIFORM4, compute=cm, preaggregated=True) == 6.0

    def test_compute_max_over_receivers(self):
        cm = ComputeModel(raw_mbps=1.0, preagg_mbps=1.0)
        phase = Phase([Transfer(1, 0, 0), Transfer(3, 2, 0)])
        b = {Transfer(1, 0, 0): tuples(2), Transfer(3, 2, 0): tuples(3)}
        assert phase_cost(phase, b, UNIFORM4, compute=cm) == pytest.approx(6.0)


class TestPlanCost:
    def test_sum_over_phases(self):
        p1 = Phase([Transfer(1, 0, 0)])
        p2 = Phase([Transfer(2, 0, 0)])
        cost = plan_seconds(
            [p1, p2],
            [{Transfer(1, 0, 0): tuples(2)}, {Transfer(2, 0, 0): tuples(3)}],
            UNIFORM4,
        )
        assert cost == 5.0
