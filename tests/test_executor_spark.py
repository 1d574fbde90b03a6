"""Integration tests: every algorithm executes in Spark and produces the
exact DuckDB answer; costs cross-validate against the exact simulator."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.baselines.loom import loom_plan
from repro.baselines.repartition import repartition_plan
from repro.core.grasp import plan_aggregation
from repro.core.plan import Phase, Plan, Transfer
from repro.core.simulate import simulate_plan
from repro.engine.aggspec import sum_spec
from repro.engine import executor
from repro.engine.executor import execute_plan
from repro.engine.state import make_state, preaggregate
from repro.minhash.hashing import HashFamily
from repro.minhash.signatures import compute_signatures
from repro.netsim.topology import Topology
from repro.netsim.truecost import plan_cost
from repro.oracle import assert_equivalent
from repro.experiments import harness
from repro.experiments.harness import run_algorithm
from repro.workloads.base import Workload
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


@pytest.fixture(scope="module")
def null_key_wl(spark):
    """Fragment 2 holds nothing; about one row in ten has a null key."""
    rng = np.random.default_rng(5)
    frag = rng.choice([0, 1, 3], 450)
    key = rng.integers(0, 150, frag.size).astype(object)
    key[rng.random(frag.size) < 0.1] = None
    pdf = pd.DataFrame({"frag": frag, "k": key, "v": 1.0})
    df = spark.createDataFrame(pdf, "frag int, k long, v double")
    sql = "SELECT k, SUM(v) AS sum_v FROM r GROUP BY k"
    return Workload(name="nulls", df=df, spec=sum_spec("k", "v", key_out="k"), sql=sql, n_frags=N)


def _never_priced(*args, **kwargs):
    raise AssertionError("a count was priced")


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


    def test_loom_plans_from_exact_cardinalities(self, spark, null_key_wl, monkeypatch):
        """LOOM's inputs are each fragment's distinct keys (0 for the empty
        fragment 2) and the result's, a null key counted once: the plan
        equals ``loom_plan`` fed by a ``groupBy(frag)`` and a ``distinct``."""
        wl = null_key_wl
        st = preaggregate(make_state(wl.df, wl.spec, n_frags=N, mode="all_to_one"))
        per_frag = {r["frag"]: r["count"] for r in st.df.groupBy("frag").count().collect()}
        cards = np.array([per_frag.get(v, 0) for v in range(N)], dtype=np.float64)
        domain = float(st.df.select("key").distinct().count())
        assert cards[2] == 0 and st.df.filter(F.col("key").isNull()).count() > 0
        seen = []

        def record(*args, **kwargs):
            seen.append(args[:2])
            return loom_plan(*args, **kwargs)

        monkeypatch.setattr(harness, "loom_plan", record)
        row, res = run_algorithm(wl, "loom", TOPO, family=FAM, keep_result=True)
        [(got_cards, got_domain)] = seen
        assert got_cards.tobytes() == cards.tobytes() and got_domain == domain
        assert res.plan == loom_plan(cards, domain, 0, TOPO, w=wl.tuple_bytes)
        assert_equivalent(res.final_df, wl.sql, r=wl.df)
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

    @classmethod
    def _assert_matches_simulator(cls, st, plan, topo):
        res = execute_plan(st, plan, topo)
        sim = simulate_plan(cls._exact_sets(st), plan, st.dest, topo, w=st.tuple_bytes)
        assert sim.completed(st.dest)
        assert res.total_tuples_sent == sim.total_tuples_sent
        assert res.dest_tuples == sim.dest_tuples
        assert res.phase_seconds == sim.phase_seconds
        assert res.network_seconds == sim.network_seconds

    @pytest.mark.parametrize(
        "mode,data",
        [
            pytest.param("all_to_one", "sim_wl", id="all_to_one"),
            pytest.param("all_to_all", "sim_wl", id="all_to_all"),
            pytest.param("all_to_one", "null_key_wl", id="all_to_one-null_key_empty_frag"),
            pytest.param("all_to_all", "null_key_wl", id="all_to_all-null_key_empty_frag"),
        ],
    )
    def test_executor_matches_exact_simulator(self, spark, request, mode, data):
        """Spark-measured transfer sizes == exact set semantics, phase by
        phase; all-to-all walks holders of every partition at once. A null
        key is one tuple in every transfer that carries it."""
        wl = request.getfixturevalue(data)
        st = preaggregate(make_state(wl.df, wl.spec, n_frags=N, mode=mode))
        st.df.persist()
        coord = compute_signatures(st.df, FAM, n_frags=N, n_parts=st.n_parts)
        plan = plan_aggregation(
            coord, np.full((N, N), 118.0), st.dest, w=st.tuple_bytes
        )
        assert len(plan) > 1
        self._assert_matches_simulator(st, plan, TOPO)
        st.df.unpersist()

    @pytest.mark.parametrize("mode", ["all_to_one", "all_to_all"])
    def test_executor_matches_exact_simulator_beyond_64_fragments(self, spark, mode):
        """Origin masks span two 64-bit words: fragment 63 (word 0's sign
        bit) and fragment 64 (word 1's first bit) hold keys."""
        n = 70
        topo = Topology(n_machines=7, frags_per_machine=10, nic_bw=118.0, intra_bw=2000.0)
        rng = np.random.default_rng(9)
        frag = np.repeat(np.arange(n), 6)
        pdf = pd.DataFrame({"frag": frag, "k": rng.integers(0, 200, frag.size), "v": 1.0})
        df = spark.createDataFrame(pdf, "frag int, k long, v double")
        st = preaggregate(make_state(df, sum_spec("k", "v"), n_frags=n, mode=mode))
        st.df.persist()
        coord = compute_signatures(st.df, FAM, n_frags=n, n_parts=st.n_parts)
        assert coord.card[63].sum() > 0 and coord.card[64].sum() > 0
        b = np.where(topo.machines[:, None] == topo.machines[None, :], 2000.0, 118.0)
        plan = plan_aggregation(coord, b, st.dest, w=st.tuple_bytes)
        assert len(plan) > 1
        self._assert_matches_simulator(st, plan, topo)
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

    @pytest.mark.parametrize(
        "bad", ["frag", "part", "frag_negative", "frag_null", "part_null", "frag_unused_bit"]
    )
    def test_out_of_range_rows_rejected(self, spark, monkeypatch, bad):
        """A row no fragment or partition owns is rejected before any count
        is priced. ``frag_unused_bit``: with 40 fragments, frag 50 is a bit
        of the first mask word that belongs to no fragment."""
        n = 40 if bad == "frag_unused_bit" else N
        third = {"frag": N, "frag_negative": -1, "frag_null": None, "frag_unused_bit": 50}
        rows = [(0, 1, 4), (1, 2, 5), (third.get(bad, 2), 3, 6)]
        df = spark.createDataFrame(rows, "frag int, a long, b long")
        spec = sum_spec("a", "b")
        if bad.startswith("frag"):
            st = make_state(df, spec, n_frags=n, mode="all_to_one")
        else:
            part = F.when(F.col("a") == 3, N if bad == "part" else None).otherwise(0)
            st = make_state(df, spec, n_frags=N, mode="all_to_all", partitioner=part)
        monkeypatch.setattr(executor, "plan_cost", _never_priced)
        with pytest.raises(ValueError, match="outside"):
            execute_plan(st, repartition_plan(n, st.dest), Topology(n_machines=n))

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
