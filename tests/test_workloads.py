"""Tests for the workload generators (structure, determinism, and the
statistical properties each experiment depends on)."""
import numpy as np
import pytest

from repro.workloads.modis import modis_workload
from repro.workloads.reviews import amazon_workload, reviews_workload, yelp_workload
from repro.workloads.synthetic import (
    dup_keys_workload,
    imbalance_level,
    imbalance_workload,
    overlap_for_jaccard,
    similarity_workload,
)
from repro.workloads.tpch import q18_workload


def frag_key_sets(wl, key_col):
    pdf = wl.df.toPandas()
    return [
        set(pdf[pdf.frag == v][key_col].tolist()) for v in range(wl.n_frags)
    ]


def jaccard(a, b):
    return len(a & b) / len(a | b) if a | b else 1.0


class TestJaccardMath:
    @pytest.mark.parametrize("o", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_roundtrip(self, o):
        # Figure 9: unit-width ranges overlapping by o have J = o / (2 - o).
        assert overlap_for_jaccard(o / (2.0 - o)) == pytest.approx(o)

    def test_known_values(self):
        assert overlap_for_jaccard(0.0) == 0.0
        assert overlap_for_jaccard(1.0) == 1.0
        assert overlap_for_jaccard(1 / 7) == pytest.approx(0.25)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            overlap_for_jaccard(1.5)
        with pytest.raises(ValueError):
            overlap_for_jaccard(-0.1)


class TestSimilarityWorkload:
    def test_constructed_jaccard_matches(self, spark):
        for j in (0.0, 1 / 3, 1.0):
            wl = similarity_workload(
                spark, n_frags=3, tuples_per_frag=300, overlap=overlap_for_jaccard(j)
            )
            sets = frag_key_sets(wl, "a")
            assert jaccard(sets[0], sets[1]) == pytest.approx(j, abs=0.02)
            assert jaccard(sets[1], sets[2]) == pytest.approx(j, abs=0.02)

    def test_one_tuple_per_key(self, spark):
        wl = similarity_workload(spark, n_frags=2, tuples_per_frag=100, overlap=0.5)
        pdf = wl.df.toPandas()
        assert pdf.groupby(["frag", "a"]).size().max() == 1

    def test_full_overlap_identical_sets(self, spark):
        wl = similarity_workload(spark, n_frags=4, tuples_per_frag=50, overlap=1.0)
        sets = frag_key_sets(wl, "a")
        assert all(s == sets[0] for s in sets)


class TestDupKeysWorkload:
    @pytest.mark.parametrize("dups", [1, 4])
    def test_duplication_factor(self, spark, dups):
        wl = dup_keys_workload(
            spark, n_frags=4, tuples_per_frag=2000, dups=dups
        )
        pdf = wl.df.toPandas()
        factor = len(pdf) / pdf["a"].nunique()
        # Sampling with replacement: realised factor ~ d / (1 - e^-d).
        expect = dups / (1 - np.exp(-dups))
        assert factor == pytest.approx(expect, rel=0.1)

    def test_rejects_zero_dups(self, spark):
        with pytest.raises(ValueError):
            dup_keys_workload(spark, n_frags=2, tuples_per_frag=10, dups=0)


class TestImbalanceWorkload:
    def test_partitioner_shape(self, spark):
        wl = imbalance_workload(spark, n_frags=4, total_tuples=4000, frac0=0.5)
        assert wl.partitioner is not None
        from repro.engine.state import make_state

        st = make_state(
            wl.df, wl.spec, n_frags=4, mode="all_to_all", partitioner=wl.partitioner
        )
        counts = {
            r["part"]: r["count"]
            for r in st.df.groupBy("part").count().collect()
        }
        assert counts[0] == pytest.approx(2000, rel=0.02)
        for l in (1, 2, 3):
            assert counts[l] == pytest.approx(2000 / 3, rel=0.1)

    def test_imbalance_level(self):
        assert imbalance_level(8, 1 / 8) == pytest.approx(1.0)
        assert imbalance_level(8, 0.5) == pytest.approx(7.0)

    def test_bad_frac(self, spark):
        with pytest.raises(ValueError):
            imbalance_workload(spark, n_frags=4, total_tuples=100, frac0=0.0)


class TestTpch:
    def test_fragments_by_suppkey(self, spark):
        wl = q18_workload(spark, sf=0.002, n_frags=4)
        pdf = wl.df.toPandas()
        assert set(pdf["frag"].unique()) <= set(range(4))
        assert wl.spec.key == "l_orderkey"

    def test_orderkeys_span_fragments(self, spark):
        wl = q18_workload(spark, sf=0.005, n_frags=4)
        pdf = wl.df.toPandas()
        spread = pdf.groupby("l_orderkey")["frag"].nunique()
        assert spread.mean() > 1.5  # orders scatter over fragments


class TestModis:
    def test_high_cardinality_with_duplication(self, spark):
        wl = modis_workload(
            spark, n_frags=4, n_files=24, tuples_per_file=1000, n_tiles=4
        )
        pdf = wl.df.toPandas()
        factor = len(pdf) / pdf["cell"].nunique()
        assert 1.5 < factor < 20

    def test_cross_fragment_similarity(self, spark):
        wl = modis_workload(
            spark, n_frags=4, n_files=24, tuples_per_file=1000, n_tiles=4
        )
        sets = frag_key_sets(wl, "cell")
        assert jaccard(sets[0], sets[1]) > 0.2  # shared tiles overlap

    def test_round_robin_assignment(self, spark):
        wl = modis_workload(spark, n_frags=3, n_files=9, tuples_per_file=10)
        counts = wl.df.groupBy("frag").count().collect()
        assert {r["count"] for r in counts} == {30}


class TestReviews:
    def test_reduction_rate(self, spark):
        wl = reviews_workload(
            spark, name="x", n_frags=4, n_reviews=8000, n_users=2000
        )
        pdf = wl.df.toPandas()
        assert len(pdf) / pdf["reviewer_id"].nunique() > 2.0

    def test_temporal_locality(self, spark):
        wl = reviews_workload(
            spark,
            name="x",
            n_frags=8,
            n_reviews=8000,
            n_users=2000,
            activity_window=0.05,
        )
        sets = frag_key_sets(wl, "reviewer_id")
        adjacent = np.mean([jaccard(sets[i], sets[i + 1]) for i in range(7)])
        distant = jaccard(sets[0], sets[7])
        assert adjacent > distant  # nearby fragments share more users

    def test_fragment_sizes_even(self, spark):
        wl = reviews_workload(
            spark, name="x", n_frags=4, n_reviews=1000, n_users=100
        )
        counts = [r["count"] for r in wl.df.groupBy("frag").count().collect()]
        assert max(counts) - min(counts) <= 1

    def test_presets(self, spark):
        a = amazon_workload(spark, n_frags=2, scale=1e-5)
        y = yelp_workload(spark, n_frags=2, scale=1e-4)
        assert a.name == "amazon" and y.name == "yelp"
        assert a.df.count() > 0 and y.df.count() > 0
