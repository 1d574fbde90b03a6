"""Unit tests for the star-topology cluster model."""
import numpy as np
import pytest

from repro.netsim.bandwidth import theoretical_matrix
from repro.netsim.topology import Topology


class TestConstruction:
    def test_defaults(self):
        t = Topology(n_machines=4)
        assert t.n_frags == 4
        b = theoretical_matrix(t)
        assert b[0, 1] == b[2, 3] == 118.0

    @pytest.mark.parametrize("kw", [
        {"n_machines": 0},
        {"n_machines": 2, "frags_per_machine": 0},
        {"n_machines": 2, "nic_bw": 0},
        {"n_machines": 2, "intra_bw": -1},
        {"n_machines": 2, "nic_bw": float("nan")},
        {"n_machines": 2, "nic_bw": float("inf")},
        {"n_machines": 2, "intra_bw": float("nan")},
        {"n_machines": 2, "intra_bw": float("inf")},
    ])
    def test_invalid_rejected(self, kw):
        with pytest.raises(ValueError):
            Topology(**kw)

    def test_n_frags(self):
        assert Topology(n_machines=3, frags_per_machine=14).n_frags == 42


class TestMachineMapping:
    def test_machine_of(self):
        t = Topology(n_machines=2, frags_per_machine=3)
        assert [t.machines[f] for f in range(6)] == [0, 0, 0, 1, 1, 1]
        assert t.machines.tolist() == [0, 0, 0, 1, 1, 1]

    def test_same_machine(self):
        t = Topology(n_machines=2, frags_per_machine=2)
        m = t.machines
        assert m[0] == m[1]
        assert m[1] != m[2]


class TestLinkBandwidth:
    def test_intra_vs_cross(self):
        t = Topology(n_machines=2, frags_per_machine=2, nic_bw=118, intra_bw=2000)
        b = theoretical_matrix(t)
        assert b[0, 1] == 2000
        assert b[0, 2] == 118

    @staticmethod
    def link_bandwidths(t):
        off_diagonal = ~np.eye(t.n_frags, dtype=bool)
        return set(theoretical_matrix(t)[off_diagonal].tolist())

    def test_uniform_when_single_frag_per_machine(self):
        t = Topology(n_machines=8, frags_per_machine=1, nic_bw=118, intra_bw=9999)
        assert self.link_bandwidths(t) == {118}

    def test_nonuniform(self):
        t = Topology(n_machines=2, frags_per_machine=2, nic_bw=118, intra_bw=2000)
        assert self.link_bandwidths(t) == {118, 2000}

    def test_equal_bandwidths_uniform(self):
        t = Topology(n_machines=2, frags_per_machine=2, nic_bw=118, intra_bw=118)
        assert self.link_bandwidths(t) == {118}
