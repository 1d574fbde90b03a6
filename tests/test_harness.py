"""Tests for the experiment harness plumbing."""
import dataclasses

import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.experiments.harness import (
    ALGORITHMS,
    add_speedups,
    format_rows,
    run_algorithm,
)
from repro.minhash.hashing import HashFamily
from repro.netsim.topology import Topology
from repro.oracle import assert_equivalent
from repro.workloads.synthetic import dup_keys_workload, similarity_workload

FAM = HashFamily(n=16, seed=7)
TOPO = Topology(n_machines=4, frags_per_machine=1, nic_bw=118.0)


@pytest.fixture(scope="module")
def wl(spark):
    return similarity_workload(spark, n_frags=4, tuples_per_frag=300, overlap=1.0)


class TestRunAlgorithm:
    def test_row_fields(self, wl):
        row, _ = run_algorithm(wl, "grasp", TOPO, mode="all_to_one", family=FAM)
        d = row.as_dict()
        assert d["algorithm"] == "grasp"
        assert d["network_seconds"] > 0
        assert d["planning_seconds"] > 0
        assert d["n_phases"] >= 1

    def test_loom_reports_fanin(self, wl):
        row, _ = run_algorithm(wl, "loom", TOPO, mode="all_to_one", family=FAM)
        assert row.loom_fanin >= 1

    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_single_fragment(self, spark, algo):
        # One fragment already holds the whole answer: no phase moves data.
        one = dup_keys_workload(spark, n_frags=1, tuples_per_frag=300, dups=3)
        row, res = run_algorithm(
            one, algo, Topology(n_machines=1), family=FAM, keep_result=True
        )
        assert row.network_seconds == 0
        assert_equivalent(res.final_df, one.sql, r=one.df)

    def test_unknown_algorithm(self, wl):
        with pytest.raises(ValueError):
            run_algorithm(wl, "magic", TOPO)

    def test_loom_all_to_all_rejected(self, wl):
        with pytest.raises(ValueError, match="all-to-one"):
            run_algorithm(wl, "loom", TOPO, mode="all_to_all")

    def test_topology_mismatch(self, wl):
        with pytest.raises(ValueError, match="disagree"):
            run_algorithm(wl, "repart", Topology(n_machines=3))

    def test_custom_bandwidth_matrix_used(self, wl):
        slow = np.full((4, 4), 1.0)
        fast = np.full((4, 4), 1000.0)
        r_slow, _ = run_algorithm(
            wl, "grasp", TOPO, mode="all_to_one", b_est=slow, family=FAM
        )
        r_fast, _ = run_algorithm(
            wl, "grasp", TOPO, mode="all_to_one", b_est=fast, family=FAM
        )
        # Execution is costed on the true topology either way; the plans
        # may differ but both must complete.
        assert r_slow.network_seconds > 0 and r_fast.network_seconds > 0

    @pytest.mark.parametrize("algo", ["grasp", "loom"])
    def test_failed_run_releases_cached_state(self, spark, wl, algo):
        # A row at frag = N makes signatures (GRASP) or execution (LOOM)
        # raise after the pre-aggregated state is persisted.
        bad = dataclasses.replace(
            wl, df=wl.df.union(wl.df.limit(1).withColumn("frag", F.lit(wl.n_frags)))
        )
        spark.catalog.clearCache()
        with pytest.raises(ValueError):
            run_algorithm(bad, algo, TOPO, mode="all_to_one", family=FAM)
        assert spark._jsparkSession.sharedState().cacheManager().isEmpty()


class TestHelpers:
    def test_add_speedups(self):
        rows = [{"network_seconds": 2.0}, {"network_seconds": 0.5}]
        add_speedups(rows, baseline_seconds=2.0)
        assert rows[0]["speedup"] == 1.0
        assert rows[1]["speedup"] == 4.0

    def test_add_speedups_zero_time(self):
        rows = [{"network_seconds": 0.0}]
        add_speedups(rows, baseline_seconds=1.0)
        assert rows[0]["speedup"] == float("inf")

    def test_format_rows_alignment(self):
        rows = [
            {"alg": "grasp", "sec": 1.23456},
            {"alg": "repart", "sec": 10.5},
        ]
        text = format_rows(rows)
        lines = text.splitlines()
        assert lines[0].startswith("alg")
        assert len(lines) == 4

    def test_format_rows_empty(self):
        assert format_rows([]) == "(no rows)"

    def test_format_rows_column_subset(self):
        rows = [{"a": 1, "b": 2}]
        text = format_rows(rows, columns=["b"])
        assert "a" not in text.splitlines()[0]
