"""Join-execution tests: pre-aggregation, key tables and the LEFT join
that attaches them to the base rows — correctness checked against DuckDB
via the oracle."""
import pandas as pd
import pytest

from repro.core import arda
from repro.joins.executor import key_table, preaggregate, prefix_columns
from repro.joins.plan import CandidateJoin
from repro.oracle import assert_equivalent
from repro.repository.repo import Scenario
from repro import synth_data


def left_join(base, tables, monkeypatch):
    """``base`` with every ``name: (foreign, base_keys, foreign_keys)`` of
    ``tables`` LEFT-joined by ``arda._augment``, imputation off: the rows
    exactly as the join leaves them, NULLs included."""
    monkeypatch.setattr(arda, "impute", lambda df, seed=0: df)
    cands = [CandidateJoin(table=name, base_keys=bk, foreign_keys=fk)
             for name, (_, bk, fk) in tables.items()]
    sc = Scenario(name="joins", task="reg", base=base, target="x",
                  repo={name: f for name, (f, _, _) in tables.items()},
                  candidates=cands)
    return arda._augment(sc, cands, seed=0).frame


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


class TestKeyTable:
    def test_oracle_equivalence(self, foreign):
        out = key_table(foreign, ["fid"], ["id"], "F")
        assert_equivalent(
            out,
            'SELECT fid AS id, avg(v) AS "F__v", min(c) AS "F__c" FROM f GROUP BY fid',
            f=foreign)

    def test_composite_keys_renamed_in_order(self, spark):
        f = spark.createDataFrame(pd.DataFrame({
            "b": ["x", "x", "y"], "a": [1, 1, 2], "v": [1.0, 3.0, 5.0]}))
        out = key_table(f, ["a", "b"], ["b", "a"], "F")
        assert out.columns == ["b", "a", "F__v"]  # foreign a is base b
        assert_equivalent(
            out, 'SELECT b AS a, a AS b, avg(v) AS "F__v" FROM f GROUP BY a, b', f=f)


class TestLeftJoin:
    def test_preserves_every_base_row(self, base, foreign, monkeypatch):
        out = left_join(base, {"F": (foreign, ["id"], ["fid"])}, monkeypatch)
        assert len(out) == 5
        assert out["id"].tolist() == [1, 2, 3, 4, 5]  # once each, in order

    def test_oracle_equivalence(self, base, foreign, monkeypatch):
        out = left_join(base, {"F": (foreign, ["id"], ["fid"])}, monkeypatch)
        assert_equivalent(
            out,
            """SELECT b.id AS id, b.x AS x, f.v AS F__v, f.c AS F__c
               FROM b LEFT JOIN
                 (SELECT fid, avg(v) AS v, min(c) AS c FROM f GROUP BY fid) f
               ON b.id = f.fid""",
            b=base, f=foreign)

    def test_no_match_gives_null(self, base, foreign, monkeypatch):
        out = left_join(base, {"F": (foreign, ["id"], ["fid"])}, monkeypatch)
        row = out[out["id"] == 4].iloc[0]
        assert pd.isna(row["F__v"]) and pd.isna(row["F__c"])

    def test_one_to_many_does_not_duplicate(self, base, foreign, monkeypatch):
        # key 1 has two foreign rows; base row must appear exactly once
        out = left_join(base, {"F": (foreign, ["id"], ["fid"])}, monkeypatch)
        assert (out["id"] == 1).sum() == 1
        assert out.loc[out["id"] == 1, "F__v"].iloc[0] == pytest.approx(150.0)

    def test_composite_key_join(self, spark, monkeypatch):
        b = spark.createDataFrame(pd.DataFrame({
            "k1": [1, 1, 2], "k2": ["a", "b", "a"], "x": [1.0, 2.0, 3.0]}))
        f = spark.createDataFrame(pd.DataFrame({
            "k1": [1, 2], "k2": ["a", "a"], "v": [10.0, 20.0]}))
        out = left_join(b, {"F": (f, ["k1", "k2"], ["k1", "k2"])}, monkeypatch)
        got = out.sort_values(["k1", "k2"])["F__v"].tolist()
        assert got[0] == 10.0 and pd.isna(got[1]) and got[2] == 20.0

    def test_mismatched_keys_raise(self):
        with pytest.raises(ValueError, match="'F'"):
            CandidateJoin(table="F", base_keys=["id"], foreign_keys=[])
        with pytest.raises(ValueError, match="'F'"):
            CandidateJoin(table="F", base_keys=["a", "b"], foreign_keys=["a"])
        with pytest.raises(ValueError, match="'F'"):
            CandidateJoin(table="F", base_keys=[], foreign_keys=[])

    def test_soft_candidate_has_one_key(self):
        with pytest.raises(ValueError, match="'W'"):
            CandidateJoin(table="W", base_keys=["t", "u"], foreign_keys=["t", "u"],
                          soft="nearest")

    def test_bad_mode_raises(self):
        with pytest.raises(ValueError, match="'G'"):
            CandidateJoin(table="G", base_keys=["t"], foreign_keys=["k"], soft="fuzzy")

    def test_null_base_keys_survive(self, spark, foreign, monkeypatch):
        b = spark.createDataFrame(pd.DataFrame({"id": [1, None, 3], "x": [1.0, 2.0, 3.0]}))
        out = left_join(b, {"F": (foreign, ["id"], ["fid"])}, monkeypatch)
        assert len(out) == 3
        assert out["F__v"].iloc[0] == pytest.approx(150.0)
        assert out["F__v"].iloc[1:].isna().all()

    def test_repeated_augmentation_no_collision(self, base, foreign, monkeypatch):
        out = left_join(base, {"T1": (foreign, ["id"], ["fid"]),
                               "T2": (foreign, ["id"], ["fid"])}, monkeypatch)
        assert {"T1__v", "T2__v"} <= set(out.columns)
        assert out["T1__v"].equals(out["T2__v"])


class TestTpchJoins:
    """Exercise pre-aggregation and the attach on the TPC-H-lite data."""

    def test_lineitem_orders_left_join_oracle(self, spark, monkeypatch):
        li = synth_data.lineitem(spark, sf=0.002).select("l_orderkey", "l_quantity")
        o = synth_data.orders(spark, sf=0.002).select("o_orderkey", "o_totalprice")
        out = left_join(li, {"O": (o, ["l_orderkey"], ["o_orderkey"])}, monkeypatch)
        assert_equivalent(
            pd.DataFrame({"s": [out["O__o_totalprice"].sum()]}),
            """SELECT sum(o.o_totalprice) AS s FROM li LEFT JOIN
               (SELECT o_orderkey, avg(o_totalprice) AS o_totalprice
                FROM ords GROUP BY o_orderkey) o
               ON li.l_orderkey = o.o_orderkey""",
            li=li, ords=o)

    def test_row_preservation_at_scale(self, spark, monkeypatch):
        li = synth_data.lineitem(spark, sf=0.005)
        p = synth_data.part(spark, sf=0.005)
        n = li.count()
        out = left_join(li, {"P": (p, ["l_partkey"], ["p_partkey"])}, monkeypatch)
        assert len(out) == n
        assert out["l_partkey"].equals(li.toPandas()["l_partkey"])
