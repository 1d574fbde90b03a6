"""Tests for the experiment harness plumbing."""
import dataclasses
import inspect

import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.engine import state
from repro.experiments import harness
from repro.experiments.harness import (
    ALGORITHMS,
    add_speedups,
    format_rows,
    run_algorithm,
)
from repro.minhash import signatures
from repro.minhash.hashing import HashFamily
from repro.netsim.topology import Topology
from repro.oracle import assert_equivalent
from repro.workloads.synthetic import (
    dup_keys_workload,
    imbalance_workload,
    similarity_workload,
)

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

    @pytest.mark.parametrize("algo", ALGORITHMS)
    @pytest.mark.parametrize("frag", ["n_frags", None], ids=["frag_N", "frag_null"])
    def test_failed_run_releases_cached_state(self, spark, wl, frag, algo):
        # A row at frag = N or a null frag makes the state's one Spark
        # read, its count job, raise a ValueError before any plan is
        # made, and no run leaves a cached DataFrame behind.
        bad_frag = F.lit(wl.n_frags if frag else None).cast("int")
        bad = dataclasses.replace(wl, df=wl.df.union(wl.df.limit(1).withColumn("frag", bad_frag)))
        spark.catalog.clearCache()
        with pytest.raises(ValueError):
            run_algorithm(bad, algo, TOPO, mode="all_to_one", family=FAM)
        assert spark._jsparkSession.sharedState().cacheManager().isEmpty()

    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_one_count_of_the_state_per_run(self, wl, monkeypatch, algo):
        # Planning and execution share the state's one Spark count; a
        # second pass over the state would show up as a second call, and
        # Repart's complete single phase reads the row count alone.
        calls = []

        def wrap(name):
            count = getattr(state, name)

            def counted(*args, **kwargs):
                bound = inspect.signature(count).bind(*args, **kwargs).arguments
                calls.append((name, {k: v for k, v in bound.items() if k != "df"}))
                return count(*args, **kwargs)

            return counted

        for name in ("count_rows", "count_keys"):
            counted = wrap(name)
            for module in (state, signatures):
                monkeypatch.setattr(module, name, counted)
        run_algorithm(wl, algo, TOPO, mode="all_to_one", family=FAM)
        count = "count_rows" if algo == "repart" else "count_keys"
        assert calls == [(count, {"n_frags": wl.n_frags, "n_parts": 1})]

    @pytest.mark.parametrize("algo", ALGORITHMS)
    @pytest.mark.parametrize("frag", [4, -1, None], ids=["frag_N", "frag_negative", "frag_null"])
    def test_out_of_range_frag_rejected(self, wl, algo, frag):
        # Whichever count the algorithm runs, a row no fragment owns raises.
        bad_frag = F.lit(frag).cast("int")
        bad = dataclasses.replace(wl, df=wl.df.union(wl.df.limit(1).withColumn("frag", bad_frag)))
        with pytest.raises(ValueError, match="out of declared range"):
            run_algorithm(bad, algo, TOPO, mode="all_to_one", family=FAM)

    @pytest.mark.parametrize("algo", [a for a in ALGORITHMS if a != "loom"])
    @pytest.mark.parametrize("part", [4, None], ids=["part_L", "part_null"])
    def test_out_of_range_partitioner_rejected(self, wl, algo, part):
        # A custom partitioner is all-to-all only, which LOOM does not run.
        k = F.col(wl.spec.key)
        skewed = F.when(k == F.lit(wl.df.first()[wl.spec.key]), F.lit(part)).otherwise(0)
        bad = dataclasses.replace(wl, partitioner=skewed)
        with pytest.raises(ValueError, match="out of declared range"):
            run_algorithm(bad, algo, TOPO, mode="all_to_all", family=FAM)

    @pytest.mark.parametrize(
        "compute_bound, expected",
        [
            (True, {"repart": 309.0, "preagg_repart": 811.0, "loom": 811.0, "grasp": 811.0}),
            (False, dict.fromkeys(ALGORITHMS)),
        ],
        ids=["compute_bound", "network_only"],
    )
    def test_receiver_throughput_per_algorithm(
        self, wl, monkeypatch, compute_bound, expected
    ):
        # Only Repart ships raw tuples (Section 5.3.5).
        seen = {}
        execute = harness.execute_plan

        def record(st, plan, topo, *, recv_mbps=None):
            seen[plan.algorithm] = recv_mbps
            return execute(st, plan, topo, recv_mbps=recv_mbps)

        monkeypatch.setattr(harness, "execute_plan", record)
        for algo in ALGORITHMS:
            run_algorithm(wl, algo, TOPO, family=FAM, compute_bound=compute_bound)
        assert seen == expected

    @pytest.mark.parametrize("mode", ["all_to_one", "all_to_all"])
    def test_partitioner_forwarded_only_all_to_all(self, spark, monkeypatch, mode):
        # make_state rejects a partitioner for all-to-one's single partition.
        skewed = imbalance_workload(spark, n_frags=4, total_tuples=400, frac0=0.5)
        seen = []
        make = harness.make_state

        def record(*args, **kwargs):
            seen.append(kwargs["partitioner"])
            return make(*args, **kwargs)

        monkeypatch.setattr(harness, "make_state", record)
        run_algorithm(skewed, "preagg_repart", TOPO, mode=mode, family=FAM)
        expected = skewed.partitioner if mode == "all_to_all" else None
        assert len(seen) == 1 and seen[0] is expected


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
