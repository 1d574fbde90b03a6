"""Oracle checks for every workload family through every algorithm.

This is the paper's whole evaluation matrix in miniature: TPC-H Q18
(SUM), MODIS (MIN over a composite-encoded key), Amazon/Yelp (AVG),
executed through Repart/Preagg+Repart/LOOM/GRASP and compared with
DuckDB running the reference SQL over the same input.
"""
import pytest

from repro.engine.aggspec import avg_spec, count_value_spec, max_spec, sum_spec
from repro.experiments.harness import run_algorithm
from repro.minhash.hashing import HashFamily
from repro.netsim.topology import Topology
from repro.oracle import assert_equivalent
from repro.workloads.modis import modis_workload
from repro.workloads.reviews import reviews_workload
from repro.workloads.base import Workload
from repro.workloads.tpch import q18_workload

FAM = HashFamily(n=32, seed=7)
N = 4
TOPO = Topology(n_machines=2, frags_per_machine=2, nic_bw=118.0, intra_bw=2000.0)
ALGOS = ("repart", "preagg_repart", "loom", "grasp")


@pytest.fixture(scope="module")
def tpch(spark):
    return q18_workload(spark, sf=0.002, n_frags=N)


@pytest.fixture(scope="module")
def modis(spark):
    return modis_workload(spark, n_frags=N, n_files=12, tuples_per_file=400, n_tiles=3)


@pytest.fixture(scope="module")
def reviews(spark):
    return reviews_workload(spark, name="reviews", n_frags=N, n_reviews=3000, n_users=800)


class TestTpchQ18:
    @pytest.mark.parametrize("algo", ALGOS)
    def test_all_to_one(self, tpch, algo):
        _, res = run_algorithm(
            tpch, algo, TOPO, mode="all_to_one", family=FAM, keep_result=True
        )
        assert_equivalent(res.final_df, tpch.sql, r=tpch.df)
        res.unpersist()

    def test_all_to_all_grasp(self, tpch):
        _, res = run_algorithm(
            tpch, "grasp", TOPO, mode="all_to_all", family=FAM, keep_result=True
        )
        assert_equivalent(res.final_df, tpch.sql, r=tpch.df)
        res.unpersist()


class TestModisMin:
    @pytest.mark.parametrize("algo", ALGOS)
    def test_all_to_one(self, modis, algo):
        _, res = run_algorithm(
            modis, algo, TOPO, mode="all_to_one", family=FAM, keep_result=True
        )
        assert_equivalent(res.final_df, modis.sql, r=modis.df)
        res.unpersist()

    def test_all_to_all_grasp(self, modis):
        _, res = run_algorithm(
            modis, "grasp", TOPO, mode="all_to_all", family=FAM, keep_result=True
        )
        assert_equivalent(res.final_df, modis.sql, r=modis.df)
        res.unpersist()


class TestReviewsAvg:
    @pytest.mark.parametrize("algo", ALGOS)
    def test_all_to_one(self, reviews, algo):
        _, res = run_algorithm(
            reviews, algo, TOPO, mode="all_to_one", family=FAM, keep_result=True
        )
        assert_equivalent(res.final_df, reviews.sql, r=reviews.df)
        res.unpersist()

    def test_all_to_all_preagg(self, reviews):
        # AVG's sum/count partials must merge correctly through the
        # multi-hop all-to-all path too.
        _, res = run_algorithm(
            reviews, "preagg_repart", TOPO, mode="all_to_all", family=FAM,
            keep_result=True,
        )
        assert_equivalent(res.final_df, reviews.sql, r=reviews.df)
        res.unpersist()


class TestComputeBoundCorrectness:
    def test_compute_bound_does_not_change_results(self, modis):
        _, res = run_algorithm(
            modis,
            "grasp",
            TOPO,
            mode="all_to_one",
            family=FAM,
            compute_bound=True,
            keep_result=True,
        )
        assert_equivalent(res.final_df, modis.sql, r=modis.df)
        res.unpersist()


#: Every (algorithm, mode) the engine runs: LOOM is all-to-one only.
RUNS = [(a, "all_to_one") for a in ALGOS] + [
    (a, "all_to_all") for a in ALGOS if a != "loom"
]
#: aggregate name -> (spec builder, the SQL aggregate it must equal)
_AGGS = {
    "sum": (sum_spec, "SUM(v)"),
    "avg": (avg_spec, "AVG(v)"),
    "max": (max_spec, "MAX(v)"),
    "count_v": (count_value_spec, "COUNT(v)"),
}


def _workload(spark, rows, *, key_type="bigint", agg="sum"):
    """A 4-fragment workload over ``rows`` of (frag, k, v)."""
    df = spark.createDataFrame(rows, schema=f"frag int, k {key_type}, v double")
    make, sql_agg = _AGGS[agg]
    spec = make("k", "v", key_out="k", out="out_v")
    sql = f"SELECT k, {sql_agg} AS out_v FROM r GROUP BY k"
    return Workload(name="edge", df=df, spec=spec, sql=sql, n_frags=N)


def _check(wl, algo, mode):
    _, res = run_algorithm(wl, algo, TOPO, mode=mode, family=FAM, keep_result=True)
    assert_equivalent(res.final_df, wl.sql, r=wl.df)


@pytest.mark.parametrize("algo,mode", RUNS)
class TestEdgeCases:
    """SQL semantics and degenerate inputs, checked against DuckDB."""

    def test_avg_skips_null_values(self, spark, algo, mode):
        # Key 1 averages its one non-null value; key 2 is all NULL.
        rows = [
            (0, 1, 10.0), (1, 1, None), (2, 1, None),
            (0, 2, None), (3, 2, None),
            (1, 3, 4.0), (2, 3, 6.0), (3, 3, None),
        ]
        _check(_workload(spark, rows, agg="avg"), algo, mode)

    @pytest.mark.parametrize("agg", ["max", "count_v"])
    def test_max_and_count_skip_null_values(self, spark, algo, mode, agg):
        # Key 2's values are all NULL: MAX is NULL and COUNT(v) is 0.
        rows = [
            (0, 1, 10.0), (1, 1, None), (2, 1, -3.0),
            (0, 2, None), (3, 2, None),
            (1, 3, 4.0), (2, 3, 6.0), (3, 3, None), (0, None, None),
        ]
        _check(_workload(spark, rows, agg=agg), algo, mode)

    def test_null_keys(self, spark, algo, mode):
        rows = [
            (0, None, 1.0), (1, None, 2.0), (2, 5, 3.0),
            (3, None, 4.0), (3, 5, 5.0), (1, 7, 6.0),
        ]
        _check(_workload(spark, rows), algo, mode)

    def test_double_keys(self, spark, algo, mode):
        # 1.2 and 1.7 are distinct groups, not one truncated key 1.
        rows = [
            (0, 1.2, 1.0), (1, 1.7, 2.0), (2, 1.2, 3.0),
            (3, 2.5, 4.0), (0, 1.7, 5.0), (1, -0.5, 6.0),
        ]
        _check(_workload(spark, rows, key_type="double"), algo, mode)

    def test_string_keys(self, spark, algo, mode):
        rows = [
            (0, "apple", 1.0), (1, "pear", 2.0), (2, "apple", 3.0),
            (3, "fig", 4.0), (0, "pear", 5.0), (2, "", 6.0),
        ]
        _check(_workload(spark, rows, key_type="string"), algo, mode)

    def test_empty_input(self, spark, algo, mode):
        _check(_workload(spark, []), algo, mode)

    def test_fragment_with_no_rows(self, spark, algo, mode):
        # Fragment 2 holds nothing (it is the all-to-all destination of
        # some partitions, and a would-be sender).
        rows = [(0, 1, 1.0), (1, 1, 2.0), (3, 2, 3.0), (0, 3, 4.0), (3, 3, 5.0)]
        _check(_workload(spark, rows), algo, mode)
