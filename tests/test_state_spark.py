"""Tests for DistState construction, pre-aggregation and finalize."""
import re
from dataclasses import replace

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.baselines.repartition import repartition_plan
from repro.core.grasp import plan_aggregation
from repro.engine.aggspec import sum_spec
from repro.engine.executor import _count_shipped
from repro.engine.state import count_rows, finalize, make_state, preaggregate
from repro.minhash.hashing import HashFamily
from repro.minhash.signatures import compute_signatures

SPEC = sum_spec("a", "b", key_out="a", out="sum_b")


@pytest.fixture(scope="module")
def df(spark):
    return spark.createDataFrame(
        pd.DataFrame(
            {
                "frag": [0, 0, 1, 1, 2],
                "a": [1, 1, 1, 2, 3],
                "b": [10, 20, 5, 7, 9],
            }
        )
    )


class TestMakeState:
    def test_all_to_one_single_partition(self, df):
        st = make_state(df, SPEC, n_frags=3, mode="all_to_one", dest_frag=1)
        assert st.n_parts == 1
        np.testing.assert_array_equal(st.dest, [1])
        parts = {r["part"] for r in st.df.select("part").distinct().collect()}
        assert parts == {0}

    def test_all_to_all_balanced_dest(self, df):
        st = make_state(df, SPEC, n_frags=3, mode="all_to_all")
        np.testing.assert_array_equal(st.dest, [0, 1, 2])
        parts = {r["part"] for r in st.df.select("part").distinct().collect()}
        assert parts <= {0, 1, 2}

    def test_all_to_all_custom_parts(self, df):
        st = make_state(df, SPEC, n_frags=3, mode="all_to_all", n_parts=5)
        np.testing.assert_array_equal(st.dest, [0, 1, 2, 0, 1])

    def test_custom_partitioner(self, df):
        part = F.when(F.col("a") <= 1, 0).otherwise(1)
        st = make_state(
            df, SPEC, n_frags=3, mode="all_to_all", n_parts=2, partitioner=part
        )
        rows = st.df.select("key", "part").distinct().collect()
        for r in rows:
            assert r["part"] == (0 if r["key"] <= 1 else 1)

    def test_partials_initialised(self, df):
        st = make_state(df, SPEC, n_frags=3, mode="all_to_one")
        assert set(st.df.columns) == {"frag", "part", "key", "p_sum"}

    def test_bad_mode(self, df):
        with pytest.raises(ValueError):
            make_state(df, SPEC, n_frags=3, mode="ring")

    def test_bad_dest(self, df):
        with pytest.raises(ValueError):
            make_state(df, SPEC, n_frags=3, mode="all_to_one", dest_frag=9)

    @pytest.mark.parametrize("arg", ["n_parts2", "n_parts1", "partitioner"])
    def test_all_to_one_rejects_partition_args(self, df, arg):
        # All-to-one has one partition; these would be silently ignored.
        extra = {"partitioner": F.lit(0)} if arg == "partitioner" else {"n_parts": int(arg[-1])}
        with pytest.raises(ValueError, match="all_to_one has one partition"):
            make_state(df, SPEC, n_frags=3, mode="all_to_one", **extra)

    @pytest.mark.parametrize("dest_frag", [0, 2])
    def test_all_to_all_rejects_dest_frag(self, df, dest_frag):
        # All-to-all destines partition l to fragment l mod N; a
        # dest_frag would be silently ignored.
        with pytest.raises(ValueError, match="dest_frag not allowed"):
            make_state(df, SPEC, n_frags=3, mode="all_to_all", dest_frag=dest_frag)

    @pytest.mark.parametrize(
        "n_frags, n_parts, w, match",
        [
            (3, 0, 16.0, "n_frags >= 1 and n_parts >= 1"),
            (3, -2, 16.0, "n_frags >= 1 and n_parts >= 1"),
            (0, None, 16.0, "n_frags >= 1 and n_parts >= 1"),
            # A tuple width that prices every plan at 0 s, or at NaN.
            *[(3, None, w, "tuple_bytes must be finite and > 0")
              for w in (0.0, float("nan"), -16.0, float("inf"))],
        ],
        ids=["parts0", "parts-2", "frags0", "w0", "w_nan", "w-16", "w_inf"],
    )
    def test_impossible_sizes_rejected(self, df, n_frags, n_parts, w, match):
        with pytest.raises(ValueError, match=match):
            make_state(
                df, SPEC, n_frags=n_frags, mode="all_to_all", n_parts=n_parts, tuple_bytes=w
            )


class TestKeyTypes:
    """``make_state`` resolves ``xxhash64(key)`` for every mode and
    partitioner, so a key the signature job or the default partitioner
    cannot hash fails there, before any Spark job."""

    @pytest.fixture(scope="class")
    def keyed(self, spark):
        return spark.sql(
            "SELECT id % 3 AS frag, id % 2 AS a, id AS b, map(id % 2, 1) AS m,"
            " named_struct('x', id % 2, 'y', 'u') AS s, array(id % 2, 7) AS arr"
            " FROM range(6)"
        )

    @pytest.mark.parametrize(
        "mode, custom",
        [("all_to_one", False), ("all_to_all", False), ("all_to_all", True)],
        ids=["all_to_one", "all_to_all", "custom_partitioner"],
    )
    def test_map_key_rejected(self, keyed, mode, custom):
        part = F.col("a").cast("int") if custom else None
        with pytest.raises(ValueError, match="key column 'm'"):
            make_state(
                keyed, sum_spec("m", "b"), n_frags=3, mode=mode, n_parts=2,
                partitioner=part,
            )

    @pytest.mark.parametrize("key", ["s", "arr"])
    def test_struct_and_array_keys_accepted(self, keyed, key):
        st = make_state(keyed, sum_spec(key, "b"), n_frags=3, mode="all_to_all")
        got = {r["part"] for r in st.df.select("part").collect()}
        assert got <= {0, 1, 2}


class TestPreaggregate:
    def test_local_merge(self, df):
        st = preaggregate(make_state(df, SPEC, n_frags=3, mode="all_to_one"))
        rows = {
            (r["frag"], r["key"]): r["p_sum"] for r in st.df.collect()
        }
        assert rows[(0, 1)] == 30  # 10 + 20 merged locally
        assert rows[(1, 1)] == 5  # not merged across fragments

    def test_preserves_total(self, df):
        st0 = make_state(df, SPEC, n_frags=3, mode="all_to_one")
        st1 = preaggregate(st0)
        total0 = st0.df.agg(F.sum("p_sum")).collect()[0][0]
        total1 = st1.df.agg(F.sum("p_sum")).collect()[0][0]
        assert total0 == total1


class TestFragmentClustering:
    """``preaggregate`` leaves the state hash-partitioned by ``frag``, one
    Spark partition per task slot: the row count over the persisted state
    runs with no exchange, and Card/MinH and the executor's counts equal
    those of the unclustered merge."""

    N_FRAGS = 5  # fragment 3 is empty

    @pytest.fixture(scope="class")
    def states(self, spark):
        rng = np.random.default_rng(3)
        n = 600
        frag = rng.choice([0, 1, 2, 4], n)
        key = rng.integers(0, 80, n).astype(object)
        key[rng.random(n) < 0.1] = None
        pdf = pd.DataFrame({"frag": frag, "a": key, "b": rng.integers(0, 9, n)})
        df = spark.createDataFrame(pdf, "frag long, a long, b long").repartition(7)
        st0 = make_state(df, SPEC, n_frags=self.N_FRAGS, mode="all_to_all", n_parts=3)
        flat = st0.df.groupBy("frag", "part", "key").agg(
            *[p.merge_col() for p in SPEC.partials]
        )
        clustered = preaggregate(st0)
        clustered.df.persist()
        yield clustered, replace(st0, df=flat)
        clustered.df.unpersist()

    def test_one_partition_per_task_slot(self, spark, states):
        slots = spark.sparkContext.defaultParallelism
        assert states[0].df.rdd.getNumPartitions() == min(self.N_FRAGS, slots)

    @pytest.fixture
    def final_plans(self, states, monkeypatch):
        """Runs a callable and returns the final executed plan of every
        DataFrame it reads back with ``toPandas``, in order."""
        counted = []
        frame = type(states[0].df)
        to_pandas = frame.toPandas

        def record(df):
            counted.append(df)
            return to_pandas(df)

        def run(count):
            counted.clear()
            count()
            return [d._jdf.queryExecution().executedPlan().toString()
                    .split("== Initial Plan ==")[0] for d in counted]

        monkeypatch.setattr(frame, "toPandas", record)
        return run

    def test_signature_aggregate_has_no_exchange(self, states, final_plans):
        # compute_signatures' row count over the persisted state.
        clustered = states[0]
        [plan] = final_plans(lambda: count_rows(clustered.df, self.N_FRAGS, 3))
        above_cache = plan.split("InMemoryRelation")[0]
        assert "InMemoryTableScan" in above_cache
        assert "HashAggregate" in above_cache
        assert "Exchange" not in above_cache

    def test_counts_run_no_merge_and_no_expand(self, states, final_plans):
        # The pre-aggregated state's count is one groupBy over the rows it
        # merges: one Exchange beyond the input's own round-robin one, on
        # (part, key) and not the merge's on frag, and no Expand. A raw
        # state's row count aggregates (frag, part) alone, and
        # compute_signatures' two counts over the merge run no Expand.
        clustered, _ = states
        [plan] = final_plans(lambda: replace(clustered).origins)
        assert plan.count("Exchange") == 2 and "Expand" not in plan
        assert "Exchange RoundRobinPartitioning(7)" in plan
        assert re.findall(r"Exchange hashpartitioning\((\w+)#\d+, (\w+)#", plan) == [("part", "key")]
        raw = replace(clustered, df=clustered.merged_from, merged_from=None)
        [plan] = final_plans(lambda: raw.rows)
        assert "Expand" not in plan
        groupings = re.findall(r"HashAggregate\(keys=\[([^\]]*)\]", plan)
        assert groupings and not any("key" in g for g in groupings)
        fam = HashFamily(n=16, seed=5)
        plans = final_plans(
            lambda: compute_signatures(clustered.df, fam, n_frags=self.N_FRAGS, n_parts=3)
        )
        assert len(plans) == 2 and not any("Expand" in p for p in plans)

    def test_signatures_and_counts_equal_unclustered(self, states):
        clustered, flat = states
        fam = HashFamily(n=16, seed=5)
        got = compute_signatures(clustered.df, fam, n_frags=self.N_FRAGS, n_parts=3)
        ref = compute_signatures(flat.df, fam, n_frags=self.N_FRAGS, n_parts=3)
        assert got.card.tobytes() == ref.card.tobytes()
        assert got.minh.tobytes() == ref.minh.tobytes()
        assert got.card[3].sum() == 0
        b = np.full((self.N_FRAGS, self.N_FRAGS), 118.0)
        grasp = plan_aggregation(ref, b, flat.dest, w=16.0)
        for plan in (grasp, repartition_plan(self.N_FRAGS, flat.dest)):
            counts = [_count_shipped(st.rows, lambda: st.keys, st.dest, plan) for st in states]
            assert counts[0] == counts[1]


class TestFinalize:
    def test_output_columns_and_values(self, df):
        st = make_state(df, SPEC, n_frags=3, mode="all_to_one")
        # Pretend everything already reached fragment 0.
        moved = st.df.withColumn("frag", F.lit(0))
        out = finalize(replace(st, df=moved))
        got = {r["a"]: r["sum_b"] for r in out.collect()}
        assert got == {1: 35, 2: 7, 3: 9}
