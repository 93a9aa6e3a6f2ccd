"""End-to-end ARDA pipeline integration tests (paper §3 workflow).

These run the full coreset -> plan -> join -> select -> estimate loop on
shrunken scenarios and assert the paper's qualitative claims: augmentation
beats the baseline, RIFS prunes noise tables, every strategy runs, and the
TR prefilter removes tables.
"""
import dataclasses

import numpy as np
import pandas as pd
import pytest

from repro.core import arda
from repro.core.arda import (ArdaConfig, final_estimate, prepare_batches,
                             run_selector)
from repro.joins.plan import CandidateJoin
from repro.repository import datasets
from repro.repository.repo import Scenario


@pytest.fixture(scope="module")
def school(spark):
    return datasets.school_s(spark, n_schools=600)


@pytest.fixture(scope="module")
def school_cfg():
    return ArdaConfig(coreset_size=400, rifs_k=6, eval_trees=15,
                      final_trees=40)


@pytest.fixture(scope="module")
def school_batches(spark, school, school_cfg):
    return prepare_batches(spark, school, school_cfg)


class TestPrepare:
    def test_batches_encode_coreset(self, school_batches, school_cfg):
        batches, info = school_batches
        assert info["n_batches"] >= 1
        for b in batches:
            assert b.X.shape[0] == school_cfg.coreset_size
            assert len(b.names) == b.X.shape[1]
            assert set(b.base_idx) & set(b.aug_idx) == set()

    def test_key_columns_not_encoded(self, school_batches):
        batches, _ = school_batches
        assert all("school_id" not in nm for b in batches for nm in b.names)

    def test_no_nans_after_impute(self, school_batches):
        batches, _ = school_batches
        for b in batches:
            assert np.isfinite(b.X).all()

    def test_aug_columns_prefixed_with_table(self, school, school_batches):
        batches, _ = school_batches
        tables = set(school.repo)
        for b in batches:
            for j in b.aug_idx:
                assert b.names[j].split("__", 1)[0] in tables

    def test_sketched_batches_slice_one_encoding(self, spark, school):
        # each batch is its own columns of the union's encode-and-sketch
        # (the one batch of the full plan), rows and values bit for bit
        cfg = ArdaConfig(coreset_size=300, coreset_method="sketch", budget=40)
        batches, info = prepare_batches(spark, school, cfg)
        assert info["n_batches"] > 1
        cfg.join_strategy = "full"
        (union,), _ = prepare_batches(spark, school, cfg)
        for b in batches:
            cols = [union.names.index(nm) for nm in b.names]
            np.testing.assert_array_equal(b.X, union.X[:, cols])
            np.testing.assert_array_equal(b.y, union.y)
            assert b.col_tables == [union.col_tables[j] for j in cols]

    def test_sketch_reduces_every_joined_row(self, spark, school, monkeypatch):
        # the sketch maps all 600 joined rows to the coreset size, not a
        # 300-row sample to 300 rows
        seen = []
        sketch = arda.sketch_dataset

        def recorded_sketch(X, *a, **kw):
            seen.append(X.shape[0])
            return sketch(X, *a, **kw)

        monkeypatch.setattr(arda, "sketch_dataset", recorded_sketch)
        cfg = ArdaConfig(coreset_size=300, coreset_method="sketch")
        batches, _ = prepare_batches(spark, school, cfg)
        assert seen == [600]
        assert abs(batches[0].X.shape[0] - 300) <= 2

    def test_prepare_on_joined_scenario_runs_no_spark(self, spark, monkeypatch):
        # once a scenario is joined, drawing another coreset runs no Spark
        # action: the rows are positions in the collected table
        from pyspark.sql.classic.dataframe import DataFrame
        sc = datasets.school_s(spark, n_schools=200)
        cfg = ArdaConfig(coreset_size=100)
        prepare_batches(spark, sc, cfg)
        calls = []
        for name in ("collect", "toPandas", "count"):
            method = getattr(DataFrame, name)
            monkeypatch.setattr(DataFrame, name, lambda self, *a, _m=method, **kw:
                                calls.append(1) or _m(self, *a, **kw))
        batches, _ = prepare_batches(
            spark, sc, dataclasses.replace(cfg, coreset_method="stratified"))
        assert calls == []
        assert batches[0].X.shape[0] == 100

    def test_stratified_regression_fails_loudly(self, spark):
        # stratification needs class labels; a regression target has none
        sc = _stamp_scenario(spark)
        with pytest.raises(ValueError, match="stratified"):
            prepare_batches(spark, sc, ArdaConfig(coreset_size=80,
                                                  coreset_method="stratified"))

    def test_empty_base_fails_loudly(self, spark):
        sc = _stamp_scenario(spark)
        sc = dataclasses.replace(sc, base=sc.base.limit(0))
        with pytest.raises(ValueError, match="no rows"):
            prepare_batches(spark, sc, ArdaConfig(coreset_size=80))

    def test_missing_table_fails_loudly(self, spark):
        # a candidate whose table is not in the repository is refused when
        # the scenario is built, naming every such table, before any join
        sc = _stamp_scenario(spark)
        ghosts = [CandidateJoin(table=t, base_keys=["id"], foreign_keys=["id"])
                  for t in ("ghost_a", "ghost_b")]
        with pytest.raises(ValueError, match=r"\['ghost_a', 'ghost_b'\]"):
            dataclasses.replace(sc, candidates=sc.candidates + ghosts)


class TestSelectors:
    def test_augmentation_beats_baseline(self, spark, school, school_cfg,
                                         school_batches):
        batches, _ = school_batches
        base_score, base_tables = final_estimate(spark, school, [], school_cfg)
        assert base_tables == 0
        kept, _, _ = run_selector(batches, "rifs", "cls", school_cfg)
        rifs_score, _ = final_estimate(spark, school, kept, school_cfg)
        assert rifs_score > base_score + 0.05

    def test_rifs_prunes_most_noise_tables(self, spark, school, school_cfg,
                                           school_batches):
        batches, _ = school_batches
        kept, _, _ = run_selector(batches, "rifs", "cls", school_cfg)
        kept_tables = {nm.split("__", 1)[0] for nm in kept}
        noise_kept = kept_tables - school.signal_tables
        # at this shrunken scale a handful of spurious tables may survive;
        # the paper-shape claim is that MOST of the 12 noise tables go
        assert len(noise_kept) <= 6

    def test_all_features_keeps_everything(self, school, school_cfg,
                                           school_batches):
        batches, _ = school_batches
        kept, _, _ = run_selector(batches, "all_features", "cls", school_cfg)
        n_aug = sum(len(b.aug_idx) for b in batches)
        assert len(kept) == n_aug

    def test_baseline_selector_keeps_nothing(self, school, school_cfg,
                                             school_batches):
        batches, _ = school_batches
        kept, secs, fits = run_selector(batches, "baseline", "cls", school_cfg)
        assert kept == [] and fits == 0

    def test_ranking_selector_runs(self, school, school_cfg, school_batches):
        batches, _ = school_batches
        kept, _, fits = run_selector(batches, "f_test", "cls", school_cfg)
        assert fits > 0

    def test_inapplicable_selector_raises(self, school_cfg, school_batches):
        batches, _ = school_batches
        with pytest.raises(ValueError):
            run_selector(batches, "lasso", "cls", school_cfg)


class TestStrategies:
    @pytest.mark.parametrize("strategy", ["table", "budget", "full"])
    def test_each_join_strategy_runs(self, spark, school, strategy):
        cfg = ArdaConfig(coreset_size=300, join_strategy=strategy, budget=40,
                         rifs_k=3, eval_trees=10, final_trees=20)
        batches, info = prepare_batches(spark, school, cfg)
        expect = {"table": len(school.candidates), "full": 1}
        if strategy in expect:
            assert info["n_batches"] == expect[strategy]
        else:
            assert 1 < info["n_batches"] < len(school.candidates)

    def test_tr_prefilter_removes_tables(self, spark, school):
        # noise tables cover 50-100% of the key domain, so TR = 1/coverage;
        # tau=1.2 removes those covering < ~83%
        cfg = ArdaConfig(coreset_size=300, tr_tau=1.2, rifs_k=3,
                         eval_trees=10)
        batches, info = prepare_batches(spark, school, cfg)
        assert info["tr_removed"] > 0

    def test_tr_prefilter_removing_every_table_keeps_base(self, spark):
        # tau = 0 removes every candidate: the coreset is one batch with no
        # joins, every base feature is force-kept and nothing is selectable
        sc = datasets.school_s(spark, n_schools=300)
        cfg = ArdaConfig(coreset_size=200, tr_tau=0.0, rifs_k=3,
                         eval_trees=10)
        batches, info = prepare_batches(spark, sc, cfg)
        assert info["tr_removed"] == len(sc.candidates)
        assert info["n_batches"] == len(batches) == 1
        b = batches[0]
        assert len(b.aug_idx) == 0 and len(b.base_idx) == len(b.names) > 0
        kept, _, _ = run_selector(batches, "rifs", "cls", cfg)
        assert kept == []


class TestSoftJoinIntegration:
    def test_taxi_pipeline_with_soft_weather_join(self, spark):
        sc = datasets.taxi(spark, n_days=80, n_zones=2)
        cfg = ArdaConfig(coreset_size=150, rifs_k=3, eval_trees=10,
                         final_trees=25)
        batches, _ = prepare_batches(spark, sc, cfg)
        names = [nm for b in batches for nm in b.names]
        assert any(nm.startswith("weather__") for nm in names)
        base_mae, _ = final_estimate(spark, sc, [], cfg)
        kept, _, _ = run_selector(batches, "random_forest", "reg", cfg)
        aug_mae, _ = final_estimate(spark, sc, kept, cfg)
        assert aug_mae < base_mae  # MAE: lower is better


class TestMicroPipeline:
    def test_kraken_rifs_beats_all_features(self, spark):
        sc = datasets.kraken(spark)
        cfg = ArdaConfig(coreset_size=900, rifs_k=5, eval_trees=20,
                         final_trees=40)
        batches, _ = prepare_batches(spark, sc, cfg)
        assert len(batches) == 1
        all_kept, _, _ = run_selector(batches, "all_features", "cls", cfg)
        s_all, _ = final_estimate(spark, sc, all_kept, cfg)
        kept, _, _ = run_selector(batches, "rifs", "cls", cfg)
        s_rifs, _ = final_estimate(spark, sc, kept, cfg)
        assert s_rifs > s_all  # noise filtering pays off on kraken

    def test_micro_base_idx_matches_base_feature_cols(self, spark):
        sc = datasets.kraken(spark)
        cfg = ArdaConfig(coreset_size=500, rifs_k=3)
        batches, _ = prepare_batches(spark, sc, cfg)
        b = batches[0]
        assert {b.names[j] for j in b.base_idx} == set(sc.base_feature_cols)


class TestJoinOnce:
    def test_each_table_joined_once_per_scenario(self, spark, monkeypatch):
        sc = datasets.school_s(spark, n_schools=300)
        cfg = ArdaConfig(coreset_size=200, rifs_k=3, eval_trees=10,
                         final_trees=20)
        joins, rows = [], []
        join, assemble = arda.join_candidate, arda.assemble

        def counted_join(*a, **kw):
            joins.append(a[1].table)
            return join(*a, **kw)

        def counted_assemble(*a, **kw):
            out = assemble(*a, **kw)
            rows.append(out[0].shape[0])
            return out

        monkeypatch.setattr(arda, "join_candidate", counted_join)
        monkeypatch.setattr(arda, "assemble", counted_assemble)
        batches, _ = prepare_batches(spark, sc, cfg)
        n_base = sc.base.count()
        for selector in ("rifs", "all_features"):
            kept, _, _ = run_selector(batches, selector, "cls", cfg)
            final_estimate(spark, sc, kept, cfg)
            assert rows[-1] == n_base  # LEFT joins keep every base row
        assert sorted(joins) == sorted(c.table for c in sc.candidates)

    def test_table_plan_encodes_once(self, spark, school, monkeypatch):
        calls = []
        assemble = arda.assemble

        def counted_assemble(*a, **kw):
            calls.append(1)
            return assemble(*a, **kw)

        monkeypatch.setattr(arda, "assemble", counted_assemble)
        cfg = ArdaConfig(coreset_size=300, join_strategy="table")
        batches, info = prepare_batches(spark, school, cfg)
        assert info["n_batches"] == len(school.candidates) > 1
        assert len(calls) == 1


def _stamp_scenario(spark) -> Scenario:
    """A base datetime column named like a candidate table ("stamp")."""
    rng = np.random.default_rng(0)
    n = 120
    base = pd.DataFrame({"id": np.arange(n), "x": rng.normal(size=n),
                         "stamp": pd.date_range("2020-01-01", periods=n, freq="h")})
    base["y"] = base["x"] + rng.normal(size=n)
    repo = {"stamp": spark.createDataFrame(
        pd.DataFrame({"id": np.arange(n), "v": rng.normal(size=n)}))}
    cand = CandidateJoin(table="stamp", base_keys=["id"], foreign_keys=["id"],
                         n_features=1)
    return Scenario(name="stamp", task="reg", base=spark.createDataFrame(base),
                    target="y", repo=repo, candidates=[cand])


class TestProvenance:
    def test_base_datetime_named_like_a_table_stays_base(self, spark):
        sc = _stamp_scenario(spark)
        cfg = ArdaConfig(coreset_size=80, final_trees=10)
        batches, _ = prepare_batches(spark, sc, cfg)
        b = batches[0]
        stamp = {f"stamp__{part}" for part in ("epoch", "month", "dow", "hour")}
        assert {b.names[j] for j in b.base_idx} == stamp | {"x"}
        assert {b.names[j] for j in b.aug_idx} == {"stamp__v"}
        _, _, names, tables = arda.final_matrix(sc, ["stamp__v"], cfg.seed)
        assert stamp | {"x", "stamp__v"} == set(names)
        assert dict(zip(names, tables))["stamp__v"] == "stamp"
        assert all(dict(zip(names, tables))[nm] is None for nm in stamp)

    def test_final_estimate_needs_prepared_joins(self, spark):
        # a kept name from no prepared batch fails loudly instead of being
        # dropped from the final matrix
        sc = _stamp_scenario(spark)
        cfg = ArdaConfig(coreset_size=80, final_trees=10)
        with pytest.raises(ValueError, match="prepare_batches"):
            final_estimate(spark, sc, ["stamp__v"], cfg)
        # so does a partial match: one kept name in no joined column
        prepare_batches(spark, sc, cfg)
        with pytest.raises(ValueError, match="prepare_batches"):
            final_estimate(spark, sc, ["stamp__v", "stamp__w"], cfg)


def _keyed_scenario(spark, base: pd.DataFrame, tables: dict[str, tuple[str, pd.DataFrame]]
                    ) -> Scenario:
    """A regression scenario whose tables are hard-joined, each on one key:
    ``tables`` maps a name to (key column, table)."""
    repo = {name: spark.createDataFrame(pdf) for name, (_, pdf) in tables.items()}
    cands = [CandidateJoin(table=name, base_keys=[key], foreign_keys=[key])
             for name, (key, _) in tables.items()]
    return Scenario(name="keyed", task="reg", base=spark.createDataFrame(base),
                    target="y", repo=repo, candidates=cands)


def _half_covered_scenario(spark) -> Scenario:
    """Two tables on different keys, each covering half its key domain, so
    the LEFT join leaves NULLs in both and imputation draws categoricals."""
    rng = np.random.default_rng(0)
    n = 200
    base = pd.DataFrame({"k1": rng.integers(0, 20, n), "k2": rng.integers(0, 20, n),
                         "x": rng.normal(size=n)})
    base["y"] = base["x"] + rng.normal(size=n)
    keys = np.arange(0, 20, 2)
    return _keyed_scenario(spark, base, {
        t: (k, pd.DataFrame({k: keys, "c": rng.choice(list("pqrs"), len(keys)),
                             "v": rng.normal(size=len(keys))}))
        for t, k in (("ta", "k1"), ("tb", "k2"))})


class TestFlatJoins:
    def test_no_candidate_query_runs_a_join(self, spark):
        # every candidate's Spark side, a soft one included, is its
        # pre-aggregated foreign table alone: no Spark join, and one
        # groupBy at most (a resampled soft key is aggregated once)
        sc = datasets.taxi(spark, n_days=30, n_zones=2)
        assert any(c.soft for c in sc.candidates)
        for cand in sc.candidates:
            out = arda.join_candidate(sc.base, cand, sc.repo[cand.table])
            plan = out._jdf.queryExecution().optimizedPlan().toString()
            assert "Join" not in plan, cand.table
            nodes = [line.lstrip(" :+-") for line in plan.splitlines()]
            assert sum(n.startswith("Aggregate") for n in nodes) <= 1, cand.table

    def test_null_and_unmatched_keys_per_row(self, spark):
        # a NULL key matches the foreign NULL key; an unmatched row gets the
        # median over base rows (10: key "a" holds three of five matched
        # rows), not over keys (20)
        base = pd.DataFrame({"k": ["a", "a", "a", "b", None, "d"],
                             "k2": ["p", "p", "p", "q", None, "s"],
                             "x": np.arange(6.0), "y": np.arange(6.0)})
        v = [10.0, 20.0, 30.0, 99.0]
        sc = _keyed_scenario(spark, base, {
            "f": ("k", pd.DataFrame({"k": ["a", "b", None, "z"], "v": v})),
            "g": ("k2", pd.DataFrame({"k2": ["p", "q", None, "w"], "v": v}))})
        frame = arda._augment(sc, sc.candidates, seed=0).frame
        for col in ("f__v", "g__v"):
            assert frame[col].tolist() == [10.0, 10.0, 10.0, 20.0, 30.0, 10.0]

    def test_fill_independent_of_other_tables(self, spark):
        # a table's imputed columns are the same whether or not another
        # table, on another key, was joined in the same pass
        sc = _half_covered_scenario(spark)
        both = arda._augment(sc, sc.candidates, seed=0)
        sc = _half_covered_scenario(spark)
        alone = arda._augment(sc, sc.candidates[1:], seed=0)
        cols = ["tb__c", "tb__v"]
        assert both.frame[cols].isna().sum().sum() == 0
        pd.testing.assert_frame_equal(both.frame[cols], alone.frame[cols])
