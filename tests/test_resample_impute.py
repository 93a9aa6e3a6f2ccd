"""Time-granularity detection / resampling and imputation tests."""
import numpy as np
import pandas as pd

from repro.core import arda
from repro.joins.executor import align_time_tables, detect_granularity
from repro.joins.impute import impute
from repro.joins.plan import CandidateJoin
from repro.oracle import assert_equivalent


def _ts(spark, values, col="t", extra=None):
    pdf = pd.DataFrame({col: pd.to_datetime(values)})
    if extra:
        for k, v in extra.items():
            pdf[k] = v
    return spark.createDataFrame(pdf)


class TestDetect:
    def test_day(self, spark):
        df = _ts(spark, ["2020-01-01", "2020-01-05"])
        assert detect_granularity(df, "t") == "day"

    def test_hour(self, spark):
        df = _ts(spark, ["2020-01-01 03:00", "2020-01-01 09:00"])
        assert detect_granularity(df, "t") == "hour"

    def test_minute(self, spark):
        df = _ts(spark, ["2020-01-01 03:15", "2020-01-01 09:00"])
        assert detect_granularity(df, "t") == "minute"

    def test_second(self, spark):
        df = _ts(spark, ["2020-01-01 03:15:30"])
        assert detect_granularity(df, "t") == "second"

    def test_month(self, spark):
        df = _ts(spark, ["2020-01-01", "2020-03-01"])
        assert detect_granularity(df, "t") == "month"


def _resampled(base, base_key, foreign, foreign_key):
    """``foreign``'s key table on a soft ``foreign_key``: truncated to the
    granularity of ``base_key`` and aggregated, its columns ``W__<name>``."""
    cand = CandidateJoin("W", [base_key], [foreign_key], soft="nearest")
    return arda.join_candidate(base, cand, foreign)


class TestResample:
    def test_hourly_to_daily_mean_oracle(self, spark):
        b = _ts(spark, ["2020-01-01", "2020-01-05"], col="d")
        df = _ts(spark, ["2020-01-01 03:00", "2020-01-01 09:00", "2020-01-02 12:00"],
                 extra={"w": [1.0, 3.0, 5.0]})
        out = _resampled(b, "d", df, "t")
        assert_equivalent(
            out,
            """SELECT date_trunc('day', t) AS d, avg(w) AS "W__w"
               FROM src GROUP BY 1""",
            src=df)

    def test_row_count_after_resample(self, spark):
        b = _ts(spark, ["2020-01-01", "2020-01-05"], col="d")
        df = _ts(spark, ["2020-01-01 03:00", "2020-01-01 09:00", "2020-01-02 12:00"],
                 extra={"w": [1.0, 3.0, 5.0]})
        assert _resampled(b, "d", df, "t").count() == 2

    def test_align_resamples_finer_foreign(self, spark):
        b = _ts(spark, ["2020-01-01", "2020-01-02"], col="d")
        f = _ts(spark, ["2020-01-01 03:00", "2020-01-01 09:00", "2020-01-02 12:00"],
                col="ts", extra={"w": [1.0, 3.0, 5.0]})
        out = _resampled(b, "d", f, "ts").toPandas().sort_values("d")
        assert out["W__w"].tolist() == [2.0, 5.0]

    def test_align_keeps_coarser_foreign(self, spark):
        b = _ts(spark, ["2020-01-01 03:00"], col="d")
        f = _ts(spark, ["2020-01-01"], col="ts", extra={"w": [1.0]})
        out = align_time_tables(b, f, "d", "ts")
        assert out.count() == 1 and set(out.columns) == {"ts", "w"}

    def test_daily_foreign_on_hourly_base_unchanged(self, spark):
        # truncating a daily key to the hour leaves it as it is, for
        # timestamp and date keys alike
        b = _ts(spark, ["2020-01-01 03:00", "2020-01-02 09:00"], col="d")
        f = _ts(spark, ["2020-01-01", "2020-01-02", "2020-01-03"], col="ts",
                extra={"w": [1.0, 2.0, 4.0]})
        for foreign in (f, f.withColumn("ts", f["ts"].cast("date"))):
            out = align_time_tables(b, foreign, "d", "ts")
            assert out.schema == foreign.schema
            pd.testing.assert_frame_equal(out.toPandas(), foreign.toPandas())


class TestImpute:
    def test_numeric_median_fill(self):
        df = pd.DataFrame({"a": [1.0, None, 3.0, 100.0], "b": [None, 2.0, 2.0, 2.0]})
        out = impute(df)
        assert out["a"].tolist().count(3.0) == 2  # lower median of 1,3,100
        assert not out.isna().any().any()

    def test_categorical_fill_from_domain(self):
        df = pd.DataFrame({"c": ["x", None, "y", None, "x"]})
        out = impute(df, seed=1)
        assert out["c"].isin(["x", "y"]).all()

    def test_all_null_categorical_fallback(self):
        df = pd.DataFrame({"c": pd.Series([None, None], dtype="string"),
                           "n": [1.0, 2.0]})
        out = impute(df)
        assert (out["c"] == "__missing__").all()

    def test_no_missing_is_identity(self):
        pdf = pd.DataFrame({"a": [1.0, 2.0], "c": ["p", "q"]})
        out = impute(pdf).sort_values("a")
        pd.testing.assert_frame_equal(out.reset_index(drop=True), pdf)

    def test_bool_column_fill(self):
        df = pd.DataFrame({"f": [True, None, False]}).astype({"f": "boolean"})
        out = impute(df)
        assert not out["f"].isna().any()

    def test_object_bool_fill_is_bool(self):
        # Spark collects a boolean column with NULLs as objects; once filled
        # it is a bool column again, which the encoder reads as a number
        out = impute(pd.DataFrame({"f": [True, None, False]}, dtype=object))
        assert out["f"].dtype == bool
