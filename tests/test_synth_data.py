"""Tests for the TPC-H LINEITEM generator (provided + extended)."""
import pytest

from repro import synth_data


class TestLineitem:
    @pytest.fixture(scope="class")
    def li(self, spark):
        return synth_data.lineitem(spark, sf=0.001, seed=0).cache()

    def test_row_count(self, li):
        assert li.count() == 6000

    def test_has_suppkey(self, li):
        assert "l_suppkey" in li.columns
        row = li.agg({"l_suppkey": "min"}).collect()[0]
        assert row[0] >= 1

    def test_suppkey_range(self, li):
        mx = li.agg({"l_suppkey": "max"}).collect()[0][0]
        assert mx <= 10  # 10_000 * 0.001

    def test_deterministic(self, spark):
        a = synth_data.lineitem(spark, sf=0.0005, seed=3).toPandas()
        b = synth_data.lineitem(spark, sf=0.0005, seed=3).toPandas()
        assert a.equals(b)

    def test_seed_changes_data(self, spark):
        a = synth_data.lineitem(spark, sf=0.0005, seed=3).toPandas()
        b = synth_data.lineitem(spark, sf=0.0005, seed=4).toPandas()
        assert not a.equals(b)

