"""Scenario-generator tests: shapes, table counts, planted signal,
determinism, and agreement between declared candidates and discovery."""
import numpy as np
import pandas as pd
import pytest

from repro.repository import datasets
from repro.repository.discovery import discover_joins


@pytest.fixture(scope="module")
def small_taxi(spark):
    return datasets.taxi(spark, n_days=60, n_zones=2)


@pytest.fixture(scope="module")
def small_school(spark):
    return datasets.school_s(spark, n_schools=300)


class TestTaxi:
    def test_table_count_full_size(self, spark):
        sc = datasets.taxi(spark, n_days=40, n_zones=2)
        assert len(sc.repo) == 29  # paper: 29 joinable tables

    def test_task_and_target(self, small_taxi):
        assert small_taxi.task == "reg" and small_taxi.target == "trips"

    def test_base_rows(self, small_taxi):
        assert small_taxi.base.count() == 120

    def test_weather_is_soft_candidate(self, small_taxi):
        w = [c for c in small_taxi.candidates if c.table == "weather"][0]
        assert w.soft == "two_way"

    def test_signal_tables_exist_in_repo(self, small_taxi):
        assert small_taxi.signal_tables <= set(small_taxi.repo)

    def test_weather_hourly_granularity(self, small_taxi):
        from repro.joins.resample import detect_granularity
        assert detect_granularity(small_taxi.repo["weather"], "obs_time") == "hour"

    def test_base_keys_are_columns(self, spark, small_taxi, small_school):
        # the keys are the candidates' base keys, in first-seen order;
        # pickup's only key is that of its soft weather join
        pickup = datasets.pickup(spark, n_hours=24)
        for sc, keys in [(small_taxi, ["date", "zone_id"]),
                         (pickup, ["pickup_hour"]),
                         (small_school, ["school_id"])]:
            assert sc.key_cols == keys
            assert set(keys) <= set(sc.base.columns)


class TestPickup:
    def test_table_count(self, spark):
        sc = datasets.pickup(spark, n_hours=200)
        assert len(sc.repo) == 23

    def test_weather_offset_defeats_hard_join(self, spark):
        sc = datasets.pickup(spark, n_hours=100)
        w = sc.repo["lga_weather"].toPandas()
        assert (w["obs_time"].dt.minute == 17).all()

    def test_partial_coverage_noise_tables(self, spark):
        # partial coverage gives the noise tables Tuple Ratios above 1, so
        # Table 4's quantile threshold has tables to remove
        sc = datasets.pickup(spark, n_hours=200)
        n_keys = [df.count() for t, df in sc.repo.items() if t.startswith("pickup_noise")]
        assert min(n_keys) < 200


class TestPoverty:
    def test_table_count(self, spark):
        sc = datasets.poverty(spark, n_counties=200)
        assert len(sc.repo) == 39
        assert sc.key_cols == ["fips"]

    def test_partial_coverage_noise_tables(self, spark):
        sc = datasets.poverty(spark, n_counties=200)
        n_keys = [df.count() for t, df in sc.repo.items() if t.startswith("county_noise")]
        assert min(n_keys) < 200  # some noise tables cover part of the domain


class TestSchool:
    def test_s_table_count(self, spark):
        assert len(datasets.school_s(spark, n_schools=100).repo) == 16

    def test_l_table_count(self, spark):
        sc = datasets.school_l(spark, n_schools=50)
        assert len(sc.repo) == 350
        assert sc.key_cols == ["school_id"]

    def test_l_has_more_signal_than_s(self, spark):
        s = datasets.school_s(spark, n_schools=50)
        l = datasets.school_l(spark, n_schools=50)
        assert s.signal_tables < l.signal_tables

    def test_binary_labels(self, small_school):
        labs = set(r[0] for r in small_school.base.select("performance").distinct().collect())
        assert labs == {"pass", "fail"}

    def test_signal_feature_correlates_with_label(self, small_school):
        base = small_school.base.toPandas()
        fund = small_school.repo["funding"].toPandas()
        merged = base.merge(fund, on="school_id")
        y = (merged["performance"] == "pass").astype(float)
        r = np.corrcoef(merged["fund_sig"], y)[0, 1]
        assert r > 0.2

    def test_discovery_agrees_with_declared_candidates(self, small_school):
        found = discover_joins(small_school.base, small_school.repo,
                               ["school_id"], min_score=0.3)
        declared = {c.table for c in small_school.candidates}
        assert {c.table for c in found} == declared


class TestMicro:
    def test_kraken_label_split(self, spark):
        sc = datasets.kraken(spark)
        pdf = sc.base.toPandas()
        assert (pdf["failure"] == 0).sum() == 568  # paper's exact split
        assert (pdf["failure"] == 1).sum() == 432

    def test_kraken_noise_factor(self, spark):
        sc = datasets.kraken(spark)
        cols = sc.base.columns
        n_noise = sum(c.startswith("noise_") for c in cols)
        n_orig = sum(c.startswith("sensor_") for c in cols)
        assert n_noise == 10 * n_orig  # paper: 10x noise append

    def test_kraken_base_features_are_weak(self, spark):
        sc = datasets.kraken(spark)
        pdf = sc.base.toPandas()
        y = pdf["failure"].to_numpy()
        for c in sc.base_feature_cols:
            assert abs(np.corrcoef(pdf[c], y)[0, 1]) < 0.1

    def test_digits_classes(self, spark):
        sc = datasets.digits(spark)
        pdf = sc.base.toPandas()
        counts = pdf["digit"].value_counts()
        assert len(counts) == 10
        assert counts.min() >= 170 and counts.max() <= 190

    def test_digits_noise_factor(self, spark):
        sc = datasets.digits(spark)
        cols = sc.base.columns
        assert sum(c.startswith("noise_") for c in cols) == 640
        assert sc.key_cols == []

    def test_digits_pixel_range(self, spark):
        sc = datasets.digits(spark)
        pdf = sc.base.toPandas()
        px = pdf[[c for c in pdf.columns if c.startswith("px_")]].to_numpy()
        assert px.min() >= 0 and px.max() <= 16

    def test_micro_ground_truth_recorded(self, spark):
        sc = datasets.kraken(spark)
        assert len(sc.original_features) == 20
        assert sc.base_feature_cols is not None
        assert sc.key_cols == []


class TestRegistry:
    def test_load_scenario(self, spark):
        sc = datasets.load_scenario(spark, "school_s", n_schools=60)
        assert sc.name == "school_s"

    def test_unknown_raises(self, spark):
        with pytest.raises(KeyError):
            datasets.load_scenario(spark, "imagenet")

    def test_determinism(self, spark):
        a = datasets.poverty(spark, n_counties=100).base.toPandas()
        b = datasets.poverty(spark, n_counties=100).base.toPandas()
        pd.testing.assert_frame_equal(a, b)
