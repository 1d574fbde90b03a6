"""Tests for algebraic aggregate specifications."""
import pandas as pd
import pytest

from repro.engine.aggspec import (
    AggSpec,
    PartialAgg,
    avg_spec,
    count_spec,
    count_value_spec,
    max_spec,
    min_spec,
    sum_spec,
)


class TestPartialAgg:
    def test_invalid_merge_rejected(self):
        with pytest.raises(ValueError):
            PartialAgg("x", "v", "median")

    @pytest.mark.parametrize("merge", ["sum", "min", "max"])
    def test_valid_merges(self, merge):
        PartialAgg("x", "v", merge)


class TestAggSpec:
    def test_duplicate_partials_rejected(self):
        with pytest.raises(ValueError):
            AggSpec(
                key="k",
                partials=(PartialAgg("x", "v", "sum"), PartialAgg("x", "w", "sum")),
                finals=(("out", "x"),),
            )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            AggSpec(key="k", partials=(), finals=(("o", "1"),))

    def test_helpers_shapes(self):
        assert len(sum_spec("k", "v").partials) == 1
        assert len(avg_spec("k", "v").partials) == 2
        assert len(min_spec("k", "v").partials) == 1
        assert len(count_spec("k").partials) == 1
        assert len(max_spec("k", "v").partials) == 1
        assert len(count_value_spec("k", "v").partials) == 1


class TestSparkSemantics:
    """End-to-end partial/merge/finalize semantics on tiny DataFrames."""

    @pytest.fixture(scope="class")
    def df(self, spark):
        return spark.createDataFrame(
            pd.DataFrame(
                {
                    "frag": [0, 0, 1, 1],
                    "k": [1, 1, 1, 2],
                    "v": [10.0, 20.0, 5.0, 7.0],
                }
            )
        )

    def _run(self, df, spec):
        from pyspark.sql import functions as F

        init = df.select(
            F.col("k").cast("long").alias("key"), *[p.init_col() for p in spec.partials]
        )
        merged = init.groupBy("key").agg(*[p.merge_col() for p in spec.partials])
        return {
            r[spec.key_out]: tuple(r[name] for name, _ in spec.finals)
            for r in merged.select(*spec.final_cols()).collect()
        }

    def test_sum(self, df):
        out = self._run(df, sum_spec("k", "v", key_out="k", out="s"))
        assert out == {1: (35.0,), 2: (7.0,)}

    def test_avg(self, df):
        out = self._run(df, avg_spec("k", "v", key_out="k", out="m"))
        assert out[1] == (pytest.approx(35.0 / 3),)
        assert out[2] == (7.0,)

    def test_min(self, df):
        out = self._run(df, min_spec("k", "v", key_out="k", out="mn"))
        assert out == {1: (5.0,), 2: (7.0,)}

    def test_count(self, df):
        out = self._run(df, count_spec("k", key_out="k", out="c"))
        assert out == {1: (3,), 2: (1,)}

    def test_avg_merges_associatively(self, spark):
        # Partial-merge through an intermediate hop must equal one-shot.
        pdf = pd.DataFrame({"frag": [0, 1, 2], "k": [1, 1, 1], "v": [1.0, 2.0, 6.0]})
        df = spark.createDataFrame(pdf)
        out = self._run(df, avg_spec("k", "v", key_out="k", out="m"))
        assert out[1] == (pytest.approx(3.0),)
