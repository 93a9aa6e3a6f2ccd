"""Soft-join tests: nearest-neighbour semantics vs pandas merge_asof,
two-way interpolation arithmetic, timestamp keys."""
import numpy as np
import pandas as pd
import pytest

from repro.joins.soft import soft_left_join


@pytest.fixture()
def base(spark):
    return spark.createDataFrame(pd.DataFrame({
        "t": [1.0, 2.5, 4.0, 7.9, 9.0], "x": [1, 2, 3, 4, 5]}))


@pytest.fixture()
def foreign(spark):
    return spark.createDataFrame(pd.DataFrame({
        "k": [1.0, 3.0, 8.0], "val": [10.0, 30.0, 80.0],
        "cat": ["lo", "mid", "hi"]}))


class TestNearest:
    def test_matches_pandas_merge_asof(self, spark, base, foreign):
        out = (soft_left_join(base, foreign, "t", "k", "W", mode="nearest")
               .toPandas().sort_values("t").reset_index(drop=True))
        want = pd.merge_asof(
            base.toPandas().sort_values("t"),
            foreign.toPandas().sort_values("k").rename(columns={"val": "W__val"}),
            left_on="t", right_on="k", direction="nearest")
        np.testing.assert_allclose(out["W__val"], want["W__val"])

    def test_exact_match_prefers_itself(self, spark, foreign):
        b = spark.createDataFrame(pd.DataFrame({"t": [3.0], "x": [1]}))
        out = soft_left_join(b, foreign, "t", "k", "W", mode="nearest").toPandas()
        assert out["W__val"].iloc[0] == 30.0

    def test_tie_goes_to_floor(self, spark, foreign):
        b = spark.createDataFrame(pd.DataFrame({"t": [2.0], "x": [1]}))
        out = soft_left_join(b, foreign, "t", "k", "W", mode="nearest").toPandas()
        assert out["W__val"].iloc[0] == 10.0  # |2-1| == |2-3| -> floor

    def test_preserves_base_rows(self, base, foreign):
        out = soft_left_join(base, foreign, "t", "k", "W", mode="nearest")
        assert out.count() == 5

    def test_duplicate_base_keys_join_same_row(self, spark, foreign):
        b = spark.createDataFrame(pd.DataFrame({"t": [2.5, 2.5], "x": [1, 2]}))
        out = soft_left_join(b, foreign, "t", "k", "W", mode="nearest").toPandas()
        assert out.shape[0] == 2 and out["W__val"].nunique() == 1

    def test_empty_foreign_gives_nulls(self, spark, base):
        f = spark.createDataFrame([], schema="k double, val double")
        out = soft_left_join(base, f, "t", "k", "W", mode="nearest").toPandas()
        assert out["W__val"].isna().all() and len(out) == 5


class TestTwoWay:
    def test_interpolation_arithmetic(self, spark, base, foreign):
        out = (soft_left_join(base, foreign, "t", "k", "W", mode="two_way")
               .toPandas().sort_values("t").reset_index(drop=True))
        # x = lam*y_lo + (1-lam)*y_hi  =>  value = lam*v_lo + (1-lam)*v_hi.
        # foreign values are 10*key, so interpolation gives exactly 10*t
        # inside the key range and the boundary value outside it.
        np.testing.assert_allclose(out["W__val"], [10.0, 25.0, 40.0, 79.0, 80.0])

    def test_below_range_uses_ceiling(self, spark, foreign):
        b = spark.createDataFrame(pd.DataFrame({"t": [0.2], "x": [1]}))
        out = soft_left_join(b, foreign, "t", "k", "W", mode="two_way").toPandas()
        assert out["W__val"].iloc[0] == 10.0

    def test_above_range_uses_floor(self, spark, foreign):
        b = spark.createDataFrame(pd.DataFrame({"t": [99.0], "x": [1]}))
        out = soft_left_join(b, foreign, "t", "k", "W", mode="two_way").toPandas()
        assert out["W__val"].iloc[0] == 80.0

    def test_categorical_picks_one_endpoint(self, base, foreign):
        out = soft_left_join(base, foreign, "t", "k", "W", mode="two_way").toPandas()
        assert out["W__cat"].isin(["lo", "mid", "hi"]).all()

    def test_exact_key_no_interpolation(self, spark, foreign):
        b = spark.createDataFrame(pd.DataFrame({"t": [3.0], "x": [1]}))
        out = soft_left_join(b, foreign, "t", "k", "W", mode="two_way").toPandas()
        assert out["W__val"].iloc[0] == 30.0


class TestTimestampKeys:
    def test_nearest_on_timestamps(self, spark):
        b = spark.createDataFrame(pd.DataFrame({
            "when": pd.to_datetime(["2020-01-01 12:00", "2020-01-02 06:00"]),
            "x": [1, 2]}))
        f = spark.createDataFrame(pd.DataFrame({
            "obs": pd.to_datetime(["2020-01-01 11:40", "2020-01-02 12:00"]),
            "temp": [5.0, 9.0]}))
        out = (soft_left_join(b, f, "when", "obs", "W", mode="nearest")
               .toPandas().sort_values("x"))
        assert out["W__temp"].tolist() == [5.0, 9.0]

    def test_two_way_on_timestamps_interpolates(self, spark):
        b = spark.createDataFrame(pd.DataFrame({
            "when": pd.to_datetime(["2020-01-01 12:00"]), "x": [1]}))
        f = spark.createDataFrame(pd.DataFrame({
            "obs": pd.to_datetime(["2020-01-01 00:00", "2020-01-02 00:00"]),
            "temp": [0.0, 24.0]}))
        out = soft_left_join(b, f, "when", "obs", "W", mode="two_way").toPandas()
        assert out["W__temp"].iloc[0] == pytest.approx(12.0)

    def test_foreign_duplicates_preaggregated(self, spark):
        b = spark.createDataFrame(pd.DataFrame({"t": [5.0], "x": [1]}))
        f = spark.createDataFrame(pd.DataFrame({
            "k": [5.0, 5.0], "val": [10.0, 30.0]}))
        out = soft_left_join(b, f, "t", "k", "W", mode="nearest").toPandas()
        assert out["W__val"].iloc[0] == pytest.approx(20.0)

    def test_bad_mode_raises(self, base, foreign):
        with pytest.raises(ValueError):
            soft_left_join(base, foreign, "t", "k", "W", mode="fuzzy")
