"""Soft-join tests: nearest-neighbour semantics vs pandas merge_asof,
two-way interpolation arithmetic, timestamp keys, and the Spark side a
soft candidate shares with a hard one (pre-aggregation, resampling)."""
import numpy as np
import pandas as pd
import pytest

from repro.core import arda
from repro.experiments.common import load
from repro.joins.plan import CandidateJoin
from repro.joins.soft import soft_match
from repro.repository.repo import Scenario


def match(base, foreign, mode, bkey="t", fkey="k", seed=0):
    """``foreign`` as its collected key table (key renamed ``bkey``, other
    columns prefixed ``W__``), matched onto ``base[bkey]`` and attached to
    every base row, as ``arda._augment`` does."""
    table = foreign.rename(columns=lambda c: bkey if c == fkey else f"W__{c}")
    part = soft_match(base[bkey], table, bkey, mode, seed)
    return base.join(part.set_index(bkey), on=bkey, validate="m:1")


def augment(spark, base, foreign, mode):
    """``base`` with ``foreign`` soft-joined on ``t`` ~ ``k`` by ``arda._augment``."""
    cand = CandidateJoin(table="W", base_keys=["t"], foreign_keys=["k"], soft=mode)
    sc = Scenario(name="soft", task="reg", base=spark.createDataFrame(base),
                  target="x", repo={"W": spark.createDataFrame(foreign)},
                  candidates=[cand])
    return arda._augment(sc, [cand], seed=0).frame


@pytest.fixture()
def base():
    return pd.DataFrame({"t": [1.0, 2.5, 4.0, 7.9, 9.0], "x": [1, 2, 3, 4, 5]})


@pytest.fixture()
def foreign():
    return pd.DataFrame({"k": [1.0, 3.0, 8.0], "val": [10.0, 30.0, 80.0],
                         "cat": ["lo", "mid", "hi"]})


class TestNearest:
    def test_matches_pandas_merge_asof(self, base, foreign):
        out = match(base, foreign, "nearest")
        want = pd.merge_asof(
            base, foreign.rename(columns={"val": "W__val"}),
            left_on="t", right_on="k", direction="nearest")
        np.testing.assert_allclose(out["W__val"], want["W__val"])

    def test_exact_match_prefers_itself(self, foreign):
        out = match(pd.DataFrame({"t": [3.0], "x": [1]}), foreign, "nearest")
        assert out["W__val"].iloc[0] == 30.0

    def test_tie_goes_to_floor(self, foreign):
        out = match(pd.DataFrame({"t": [2.0], "x": [1]}), foreign, "nearest")
        assert out["W__val"].iloc[0] == 10.0  # |2-1| == |2-3| -> floor

    def test_preserves_base_rows(self, base, foreign):
        out = match(base, foreign, "nearest")
        assert len(out) == 5 and out["x"].tolist() == [1, 2, 3, 4, 5]

    def test_duplicate_base_keys_join_same_row(self, foreign):
        out = match(pd.DataFrame({"t": [2.5, 2.5], "x": [1, 2]}), foreign, "nearest")
        assert out.shape[0] == 2 and out["W__val"].nunique() == 1

    def test_empty_foreign_gives_nulls(self, base):
        f = pd.DataFrame({"k": pd.Series([], dtype=float),
                          "val": pd.Series([], dtype=float)})
        out = match(base, f, "nearest")
        assert out["W__val"].isna().all() and len(out) == 5


class TestTwoWay:
    def test_interpolation_arithmetic(self, base, foreign):
        out = match(base, foreign, "two_way")
        # x = lam*y_lo + (1-lam)*y_hi  =>  value = lam*v_lo + (1-lam)*v_hi.
        # foreign values are 10*key, so interpolation gives exactly 10*t
        # inside the key range and the boundary value outside it.
        np.testing.assert_allclose(out["W__val"], [10.0, 25.0, 40.0, 79.0, 80.0])

    def test_below_range_uses_ceiling(self, foreign):
        out = match(pd.DataFrame({"t": [0.2], "x": [1]}), foreign, "two_way")
        assert out["W__val"].iloc[0] == 10.0

    def test_above_range_uses_floor(self, foreign):
        out = match(pd.DataFrame({"t": [99.0], "x": [1]}), foreign, "two_way")
        assert out["W__val"].iloc[0] == 80.0

    def test_categorical_picks_one_endpoint(self, base, foreign):
        out = match(base, foreign, "two_way")
        assert out["W__cat"].isin(["lo", "mid", "hi"]).all()

    def test_categorical_pick_per_key_and_seed(self, foreign):
        # one draw per distinct base key: duplicate keys pick the same
        # endpoint, and the same seed draws the same picks
        b = pd.DataFrame({"t": np.tile(np.linspace(1.1, 7.9, 20), 3), "x": 0})
        out = match(b, foreign, "two_way", seed=3)
        picks = out["W__cat"].to_numpy().reshape(3, 20)
        assert (picks == picks[0]).all() and len(set(picks[0])) == 3
        pd.testing.assert_frame_equal(out, match(b, foreign, "two_way", seed=3))

    def test_exact_key_no_interpolation(self, foreign):
        out = match(pd.DataFrame({"t": [3.0], "x": [1]}), foreign, "two_way")
        assert out["W__val"].iloc[0] == 30.0


class TestTimestampKeys:
    def test_nearest_on_timestamps(self):
        b = pd.DataFrame({
            "when": pd.to_datetime(["2020-01-01 12:00", "2020-01-02 06:00"]),
            "x": [1, 2]})
        f = pd.DataFrame({
            "obs": pd.to_datetime(["2020-01-01 11:40", "2020-01-02 12:00"]),
            "temp": [5.0, 9.0]})
        out = match(b, f, "nearest", bkey="when", fkey="obs")
        assert out["W__temp"].tolist() == [5.0, 9.0]

    def test_two_way_on_timestamps_interpolates(self):
        b = pd.DataFrame({"when": pd.to_datetime(["2020-01-01 12:00"]), "x": [1]})
        f = pd.DataFrame({
            "obs": pd.to_datetime(["2020-01-01 00:00", "2020-01-02 00:00"]),
            "temp": [0.0, 24.0]})
        out = match(b, f, "two_way", bkey="when", fkey="obs")
        assert out["W__temp"].iloc[0] == pytest.approx(12.0)

    def test_two_way_on_dates(self, spark):
        # Spark dates collect as datetime.date objects
        day = pd.to_datetime(["2020-01-01", "2020-01-02", "2020-01-05"]).date
        out = augment(spark, pd.DataFrame({"t": day[1:2], "x": [1.0]}),
                      pd.DataFrame({"k": day[::2], "val": [0.0, 40.0]}), "two_way")
        assert out["W__val"].iloc[0] == pytest.approx(10.0)

    def test_foreign_duplicates_preaggregated(self, spark):
        out = augment(spark, pd.DataFrame({"t": [5.0], "x": [1.0]}),
                      pd.DataFrame({"k": [5.0, 5.0], "val": [10.0, 30.0]}), "nearest")
        assert out["W__val"].iloc[0] == pytest.approx(20.0)

    def test_numeric_keys_not_resampled(self, spark):
        # numbers are not times: 60 would read as whole minutes and 61 as
        # seconds, and resampling would average both foreign rows into one
        out = augment(spark, pd.DataFrame({"t": [60.0, 120.0], "x": [1.0, 2.0]}),
                      pd.DataFrame({"k": [61.0, 100.0], "val": [10.0, 30.0]}), "nearest")
        assert out["W__val"].tolist() == [10.0, 30.0]


class TestScenarioSoftKeys:
    @pytest.mark.parametrize("name,table", [("taxi", "weather"),
                                            ("pickup", "lga_weather")])
    def test_resampled_table_holds_every_base_key(self, spark, name, table):
        # Both scenario soft tables are finer than their base key, so once
        # resampled every base key value is one of their keys: the soft
        # match is an equality match (distance 0, lambda 1), and the
        # floor/ceil arithmetic is reached only by the tests above.
        sc = load(spark, name, quick=True)
        cand = next(c for c in sc.candidates if c.table == table)
        key = cand.base_keys[0]
        keys = set(arda.join_candidate(sc.base, cand, sc.repo[table])
                   .toPandas()[key])
        base = set(sc.base.select(key).distinct().toPandas()[key])
        assert base and base <= keys
