"""Integration tests: every algorithm executes in Spark and produces the
exact DuckDB answer; costs cross-validate against the exact simulator."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.baselines.repartition import repartition_plan
from repro.core.grasp import plan_aggregation
from repro.core.plan import Phase, Plan, Transfer
from repro.core.simulate import simulate_plan
from repro.engine.aggspec import sum_spec
from repro.engine.executor import execute_plan
from repro.engine.state import make_state, preaggregate
from repro.minhash.hashing import HashFamily
from repro.minhash.signatures import compute_signatures
from repro.netsim.topology import Topology
from repro.netsim.truecost import plan_cost
from repro.oracle import assert_equivalent
from repro.experiments.harness import run_algorithm
from repro.workloads.synthetic import (
    dup_keys_workload,
    imbalance_workload,
    similarity_workload,
)

FAM = HashFamily(n=32, seed=7)
N = 4
TOPO = Topology(n_machines=N, frags_per_machine=1, nic_bw=118.0)
ALGOS = ("repart", "preagg_repart", "loom", "grasp")


@pytest.fixture(scope="module")
def sim_wl(spark):
    return similarity_workload(spark, n_frags=N, tuples_per_frag=500, overlap=0.5)


class TestAllToOneCorrectness:
    @pytest.mark.parametrize("algo", ALGOS)
    def test_oracle_similarity_workload(self, spark, sim_wl, algo):
        row, res = run_algorithm(
            sim_wl, algo, TOPO, mode="all_to_one", family=FAM, keep_result=True
        )
        assert_equivalent(res.final_df, sim_wl.sql, r=sim_wl.df)
        res.unpersist()

    @pytest.mark.parametrize("algo", ALGOS)
    def test_oracle_dup_keys_workload(self, spark, algo):
        wl = dup_keys_workload(spark, n_frags=N, tuples_per_frag=600, dups=4)
        row, res = run_algorithm(
            wl, algo, TOPO, mode="all_to_one", family=FAM, keep_result=True
        )
        assert_equivalent(res.final_df, wl.sql, r=wl.df)
        res.unpersist()

    @pytest.mark.parametrize("dest", [0, 2, 3])
    def test_nonzero_destination(self, spark, sim_wl, dest):
        row, res = run_algorithm(
            sim_wl,
            "grasp",
            TOPO,
            mode="all_to_one",
            dest_frag=dest,
            family=FAM,
            keep_result=True,
        )
        assert_equivalent(res.final_df, sim_wl.sql, r=sim_wl.df)
        res.unpersist()


class TestAllToAllCorrectness:
    @pytest.mark.parametrize("algo", ("repart", "preagg_repart", "grasp"))
    def test_oracle_balanced(self, spark, sim_wl, algo):
        row, res = run_algorithm(
            sim_wl, algo, TOPO, mode="all_to_all", family=FAM, keep_result=True
        )
        assert_equivalent(res.final_df, sim_wl.sql, r=sim_wl.df)
        res.unpersist()

    @pytest.mark.parametrize("algo", ("repart", "preagg_repart", "grasp"))
    def test_oracle_skewed_partitioner(self, spark, algo):
        wl = imbalance_workload(spark, n_frags=N, total_tuples=2000, frac0=0.5)
        row, res = run_algorithm(
            wl, algo, TOPO, mode="all_to_all", family=FAM, keep_result=True
        )
        assert_equivalent(res.final_df, wl.sql, r=wl.df)
        res.unpersist()


class TestCostAccounting:
    @staticmethod
    def _exact_sets(st):
        sets = [[set() for _ in range(st.n_parts)] for _ in range(st.n_frags)]
        for r in st.df.select("frag", "part", "key").collect():
            sets[r["frag"]][r["part"]].add(r["key"])
        return sets

    @pytest.mark.parametrize("mode", ["all_to_one", "all_to_all"])
    def test_executor_matches_exact_simulator(self, spark, sim_wl, mode):
        """Spark-measured transfer sizes == exact set semantics, phase by
        phase; all-to-all walks holders of every partition at once."""
        st = preaggregate(make_state(sim_wl.df, sim_wl.spec, n_frags=N, mode=mode))
        st.df.persist()
        coord = compute_signatures(st.df, FAM, n_frags=N, n_parts=st.n_parts)
        plan = plan_aggregation(
            coord, np.full((N, N), 118.0), st.dest, w=st.tuple_bytes
        )
        assert len(plan) > 1
        res = execute_plan(st, plan, TOPO)
        sim = simulate_plan(
            self._exact_sets(st), plan, st.dest, TOPO, w=st.tuple_bytes
        )
        assert sim.completed(st.dest)
        assert res.total_tuples_sent == sim.total_tuples_sent
        assert res.dest_tuples == sim.dest_tuples
        assert res.phase_seconds == sim.phase_seconds
        assert res.network_seconds == sim.network_seconds
        st.df.unpersist()

    @pytest.mark.parametrize("raw", [False, True], ids=["preagg", "raw_dup_keys"])
    def test_repart_dest_tuples_equals_remote_rows(self, spark, sim_wl, raw):
        """A raw state ships its raw rows in its first phase, duplicate
        keys included; a pre-aggregated one ships one row per key."""
        if raw:
            wl = dup_keys_workload(spark, n_frags=N, tuples_per_frag=600, dups=4)
            st = make_state(wl.df, wl.spec, n_frags=N, mode="all_to_one")
        else:
            st = preaggregate(
                make_state(sim_wl.df, sim_wl.spec, n_frags=N, mode="all_to_one")
            )
        remote_df = st.df.filter(F.col("frag") != 0)
        remote = remote_df.count()
        assert (remote > remote_df.select("frag", "key").distinct().count()) == raw
        plan = repartition_plan(N, st.dest)
        res = execute_plan(st, plan, TOPO)
        assert res.dest_tuples == remote
        assert res.total_tuples_sent == remote

    def test_compute_priced_at_state_throughput(self, spark):
        """The executor prices receiver compute at the ``recv_mbps`` it is
        given, over the raw or the pre-aggregated state's counts."""
        wl = dup_keys_workload(spark, n_frags=N, tuples_per_frag=600, dups=4)
        raw = make_state(wl.df, wl.spec, n_frags=N, mode="all_to_one")
        plan = repartition_plan(N, raw.dest)
        for st, mbps in ((raw, 1.0), (preaggregate(raw), 2.0)):
            per_frag = st.df.groupBy("frag").count().collect()
            rows = {r["frag"]: r["count"] for r in per_frag}
            shipped = [[rows[t.src] for t in phase] for phase in plan]
            res = execute_plan(st, plan, TOPO, recv_mbps=mbps)
            cost = plan_cost(plan, shipped, st.dest, TOPO, st.tuple_bytes, mbps)
            assert res.network_seconds == cost.network_seconds

    @pytest.mark.parametrize("mode", ["all_to_one", "all_to_all"])
    def test_incomplete_plan_raises(self, spark, sim_wl, mode):
        st = preaggregate(make_state(sim_wl.df, sim_wl.spec, n_frags=N, mode=mode))
        if mode == "all_to_one":
            # Only fragment 1 ships its data: 2 and 3 never do.
            bad = Plan(phases=[Phase([Transfer(1, 0, 0)])])
        else:
            # Partition 1 is delivered to fragment 2 instead of M(1) = 1.
            wrong = st.dest.copy()
            wrong[1] = 2
            bad = repartition_plan(N, wrong)
        with pytest.raises(RuntimeError, match="incomplete"):
            execute_plan(st, bad, TOPO)

    @pytest.mark.parametrize("bad", ["frag", "part"])
    def test_out_of_range_rows_rejected(self, spark, bad):
        frags = [0, 1, N if bad == "frag" else 2]
        df = spark.createDataFrame(
            pd.DataFrame({"frag": frags, "a": [1, 2, 3], "b": [4, 5, 6]})
        )
        spec = sum_spec("a", "b")
        if bad == "frag":
            st = make_state(df, spec, n_frags=N, mode="all_to_one")
        else:
            part = F.when(F.col("a") == 3, N).otherwise(0)
            st = make_state(df, spec, n_frags=N, mode="all_to_all", partitioner=part)
        with pytest.raises(ValueError, match="outside"):
            execute_plan(st, repartition_plan(N, st.dest), TOPO)

    def test_single_fragment_zero_phase_plan(self, spark):
        wl = dup_keys_workload(spark, n_frags=1, tuples_per_frag=300, dups=3)
        st = make_state(wl.df, wl.spec, n_frags=1, mode="all_to_one")
        res = execute_plan(st, Plan(), Topology(n_machines=1))
        assert res.network_seconds == 0
        assert res.phase_seconds == []
        assert_equivalent(res.final_df, wl.sql, r=wl.df)

    def test_topology_mismatch_rejected(self, spark, sim_wl):
        st = make_state(sim_wl.df, sim_wl.spec, n_frags=N, mode="all_to_one")
        with pytest.raises(ValueError):
            execute_plan(st, repartition_plan(N, st.dest), Topology(n_machines=2))


class TestReductionBehaviour:
    def test_grasp_ships_fewer_tuples_to_dest_when_similar(self, spark):
        wl = similarity_workload(spark, n_frags=N, tuples_per_frag=800, overlap=1.0)
        r_rep, _ = run_algorithm(wl, "preagg_repart", TOPO, mode="all_to_one", family=FAM)
        r_grasp, _ = run_algorithm(wl, "grasp", TOPO, mode="all_to_one", family=FAM)
        # Identical fragments: repart ships 3x800; GRASP merges first and
        # ships far less into the destination link (Table 2 behaviour).
        assert r_grasp.dest_tuples < r_rep.dest_tuples
        assert r_grasp.network_seconds < r_rep.network_seconds

    def test_preagg_beats_repart_with_dups(self, spark):
        wl = dup_keys_workload(spark, n_frags=N, tuples_per_frag=1000, dups=8)
        r_raw, _ = run_algorithm(wl, "repart", TOPO, mode="all_to_one", family=FAM)
        r_pre, _ = run_algorithm(wl, "preagg_repart", TOPO, mode="all_to_one", family=FAM)
        assert r_pre.network_seconds < r_raw.network_seconds
        assert r_pre.dest_tuples < r_raw.dest_tuples
