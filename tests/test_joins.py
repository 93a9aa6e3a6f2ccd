"""Join-execution tests: LEFT-join semantics, pre-aggregation, composite
keys — correctness checked against DuckDB via the oracle."""
import numpy as np
import pandas as pd
import pytest

from repro.joins.executor import left_join, preaggregate, prefix_columns
from repro.oracle import assert_equivalent
from repro import synth_data


@pytest.fixture()
def base(spark):
    return spark.createDataFrame(pd.DataFrame({
        "id": [1, 2, 3, 4, 5],
        "x": [10.0, 20.0, 30.0, 40.0, 50.0],
    }))


@pytest.fixture()
def foreign(spark):
    return spark.createDataFrame(pd.DataFrame({
        "fid": [1, 1, 2, 6],
        "v": [100.0, 200.0, 300.0, 400.0],
        "c": ["a", "b", "c", "d"],
    }))


class TestPreaggregate:
    def test_one_row_per_key(self, foreign):
        out = preaggregate(foreign, ["fid"])
        assert out.count() == out.select("fid").distinct().count() == 3

    def test_numeric_mean_string_min_oracle(self, foreign):
        out = preaggregate(foreign, ["fid"])
        assert_equivalent(
            out,
            "SELECT fid, avg(v) AS v, min(c) AS c FROM f GROUP BY fid",
            f=foreign)

    def test_composite_keys(self, spark):
        df = spark.createDataFrame(pd.DataFrame({
            "a": [1, 1, 2], "b": ["x", "x", "y"], "v": [1.0, 3.0, 5.0]}))
        out = preaggregate(df, ["a", "b"])
        assert out.count() == 2

    def test_keys_only_table(self, spark):
        df = spark.createDataFrame(pd.DataFrame({"k": [1, 1, 2]}))
        assert preaggregate(df, ["k"]).count() == 2


class TestPrefix:
    def test_prefixing(self, foreign):
        out = prefix_columns(foreign, "T", exclude=["fid"])
        assert set(out.columns) == {"fid", "T__v", "T__c"}


class TestLeftJoin:
    def test_preserves_every_base_row(self, base, foreign):
        out = left_join(base, foreign, ["id"], ["fid"], "F")
        assert out.count() == 5

    def test_oracle_equivalence(self, base, foreign):
        out = left_join(base, foreign, ["id"], ["fid"], "F")
        assert_equivalent(
            out,
            """SELECT b.id AS id, b.x AS x, f.v AS F__v, f.c AS F__c
               FROM b LEFT JOIN
                 (SELECT fid, avg(v) AS v, min(c) AS c FROM f GROUP BY fid) f
               ON b.id = f.fid""",
            b=base, f=foreign)

    def test_no_match_gives_null(self, base, foreign):
        out = left_join(base, foreign, ["id"], ["fid"], "F").toPandas()
        row = out[out["id"] == 4].iloc[0]
        assert pd.isna(row["F__v"]) and pd.isna(row["F__c"])

    def test_one_to_many_does_not_duplicate(self, base, foreign):
        # key 1 has two foreign rows; base row must appear exactly once
        out = left_join(base, foreign, ["id"], ["fid"], "F").toPandas()
        assert (out["id"] == 1).sum() == 1
        assert out.loc[out["id"] == 1, "F__v"].iloc[0] == pytest.approx(150.0)

    def test_composite_key_join(self, spark):
        b = spark.createDataFrame(pd.DataFrame({
            "k1": [1, 1, 2], "k2": ["a", "b", "a"], "x": [1.0, 2.0, 3.0]}))
        f = spark.createDataFrame(pd.DataFrame({
            "k1": [1, 2], "k2": ["a", "a"], "v": [10.0, 20.0]}))
        out = left_join(b, f, ["k1", "k2"], ["k1", "k2"], "F").toPandas()
        got = out.sort_values(["k1", "k2"])["F__v"].tolist()
        assert got[0] == 10.0 and pd.isna(got[1]) and got[2] == 20.0

    def test_mismatched_keys_raise(self, base, foreign):
        with pytest.raises(ValueError):
            left_join(base, foreign, ["id"], [], "F")

    def test_null_base_keys_survive(self, spark, foreign):
        b = spark.createDataFrame(pd.DataFrame({"id": [1, None, 3], "x": [1.0, 2.0, 3.0]}))
        out = left_join(b, foreign, ["id"], ["fid"], "F")
        assert out.count() == 3

    def test_repeated_augmentation_no_collision(self, base, foreign):
        once = left_join(base, foreign, ["id"], ["fid"], "T1")
        twice = left_join(once, foreign, ["id"], ["fid"], "T2")
        assert {"T1__v", "T2__v"} <= set(twice.columns)


class TestTpchJoins:
    """Exercise the shuffle join path on the provided TPC-H-lite data."""

    def test_lineitem_orders_left_join_oracle(self, spark):
        li = synth_data.lineitem(spark, sf=0.002)
        o = synth_data.orders(spark, sf=0.002)
        out = left_join(li.select("l_orderkey", "l_quantity"), o.select("o_orderkey", "o_totalprice"),
                        ["l_orderkey"], ["o_orderkey"], "O")
        assert_equivalent(
            out.groupBy().agg({"O__o_totalprice": "sum"}).withColumnRenamed(
                "sum(O__o_totalprice)", "s"),
            """SELECT sum(o.o_totalprice) AS s FROM li LEFT JOIN
               (SELECT o_orderkey, avg(o_totalprice) AS o_totalprice
                FROM ords GROUP BY o_orderkey) o
               ON li.l_orderkey = o.o_orderkey""",
            li=li.select("l_orderkey", "l_quantity"), ords=o.select("o_orderkey", "o_totalprice"))

    def test_row_preservation_at_scale(self, spark):
        li = synth_data.lineitem(spark, sf=0.005)
        p = synth_data.part(spark, sf=0.005)
        n = li.count()
        out = left_join(li, p, ["l_partkey"], ["p_partkey"], "P")
        assert out.count() == n
