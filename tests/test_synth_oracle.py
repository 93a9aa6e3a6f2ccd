"""Tests for the provided TPC-H-lite generators and the DuckDB oracle."""
import pandas as pd
import pytest

from repro import synth_data
from repro.oracle import assert_equivalent


class TestSynthData:
    def test_lineitem_shape(self, spark):
        li = synth_data.lineitem(spark, sf=0.001)
        assert li.count() == 6000
        assert "l_orderkey" in li.columns

    def test_orders_keys_unique(self, spark):
        o = synth_data.orders(spark, sf=0.001)
        assert o.count() == o.select("o_orderkey").distinct().count()

    def test_deterministic_in_seed(self, spark):
        a = synth_data.lineitem(spark, sf=0.001, seed=9).toPandas()
        b = synth_data.lineitem(spark, sf=0.001, seed=9).toPandas()
        pd.testing.assert_frame_equal(a, b)


class TestOracle:
    def test_agreement_passes(self, spark):
        li = synth_data.lineitem(spark, sf=0.001)
        got = (li.groupBy("l_returnflag").count()
               .withColumnRenamed("count", "n"))
        assert_equivalent(
            got, "SELECT l_returnflag, count(*) AS n FROM li GROUP BY 1", li=li)

    def test_mismatch_fails(self, spark):
        li = synth_data.lineitem(spark, sf=0.001)
        wrong = li.groupBy("l_returnflag").count().withColumnRenamed("count", "n") \
            .selectExpr("l_returnflag", "n + 1 AS n")
        with pytest.raises(AssertionError):
            assert_equivalent(
                wrong, "SELECT l_returnflag, count(*) AS n FROM li GROUP BY 1", li=li)

    def test_column_mismatch_fails(self, spark):
        li = synth_data.lineitem(spark, sf=0.001)
        got = li.groupBy("l_returnflag").count()
        with pytest.raises(AssertionError, match="column mismatch"):
            assert_equivalent(
                got, "SELECT l_returnflag, count(*) AS n FROM li GROUP BY 1", li=li)

    def test_pandas_table_input(self, spark):
        pdf = pd.DataFrame({"a": [1, 2, 3]})
        got = spark.createDataFrame(pdf).selectExpr("sum(a) AS s")
        assert_equivalent(got, "SELECT sum(a) AS s FROM t", t=pdf)
