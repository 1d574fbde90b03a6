"""Unit tests for the simulated bandwidth benchmark and error injection."""
import numpy as np
import pytest

from repro.netsim.bandwidth import (
    benchmark_matrix,
    estimation_report,
    theoretical_matrix,
    underestimate,
)
from repro.netsim.topology import Topology

TOPO = Topology(n_machines=2, frags_per_machine=2, nic_bw=118.0, intra_bw=2000.0)


class TestTheoretical:
    def test_shape_and_diag(self):
        b = theoretical_matrix(TOPO)
        assert b.shape == (4, 4)
        assert np.all(np.isinf(np.diag(b)))

    def test_values(self):
        b = theoretical_matrix(TOPO)
        assert b[0, 1] == 2000.0  # same machine
        assert b[0, 2] == 118.0  # cross machine
        assert b[3, 2] == 2000.0


class TestBenchmark:
    def test_deterministic(self):
        a = benchmark_matrix(TOPO, seed=3)
        b = benchmark_matrix(TOPO, seed=3)
        np.testing.assert_array_equal(a, b)

    def test_seed_changes_noise(self):
        a = benchmark_matrix(TOPO, seed=3)
        b = benchmark_matrix(TOPO, seed=4)
        assert not np.array_equal(a, b)

    def test_within_error_band(self):
        theo = theoretical_matrix(TOPO)
        est = benchmark_matrix(TOPO, seed=0)
        off = ~np.eye(4, dtype=bool)
        ratio = est[off] / theo[off]
        assert np.all(ratio <= 1.0 + 1e-12)
        assert np.all(ratio >= 0.8 - 1e-12)


class TestUnderestimate:
    def setup_method(self):
        self.b = theoretical_matrix(TOPO)

    def test_colocation_scope(self):
        out = underestimate(self.b, TOPO, level=0.2, scope="colocation")
        assert out[0, 1] == pytest.approx(1600.0)  # intra links of machine 0
        assert out[2, 3] == 2000.0  # machine 1 untouched
        assert out[0, 2] == 118.0  # cross links untouched

    def test_nic_scope(self):
        out = underestimate(self.b, TOPO, level=0.5, scope="nic")
        assert out[0, 2] == 59.0  # cross link from machine 0
        assert out[2, 0] == 59.0  # cross link into machine 0
        assert out[2, 3] == 2000.0  # intra untouched

    def test_switch_scope(self):
        out = underestimate(self.b, TOPO, level=0.5, scope="switch")
        assert out[0, 2] == 59.0 and out[3, 1] == 59.0
        assert out[0, 1] == 2000.0
        assert np.isinf(out[0, 0])

    def test_original_untouched(self):
        before = self.b.copy()
        underestimate(self.b, TOPO, level=0.5, scope="switch")
        np.testing.assert_array_equal(self.b, before)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            underestimate(self.b, TOPO, level=1.0, scope="switch")
        with pytest.raises(ValueError):
            underestimate(self.b, TOPO, level=0.5, scope="bogus")
        with pytest.raises(ValueError):
            underestimate(self.b, TOPO, level=0.5, scope="all")
        with pytest.raises(ValueError):
            underestimate(self.b[:3, :3], TOPO, level=0.5, scope="switch")


class TestEstimationReport:
    def test_report_rows(self):
        rows = estimation_report(TOPO, seed=0)
        types = {r["link_type"] for r in rows}
        assert types == {"within_machine", "across_machines"}
        for r in rows:
            assert 0 <= r["error_pct"] <= 20.0 + 1e-9
            assert r["estimated_mbps"] <= r["theoretical_mbps"] + 1e-9

    def test_uniform_topology_has_no_within_rows(self):
        rows = estimation_report(Topology(n_machines=4), seed=0)
        assert {r["link_type"] for r in rows} == {"across_machines"}
