"""Tests for the experiments layer (the table-reproduction jobs).

Full-scale runs live in benchmarks/; here the helpers are unit-tested and
each run() path is exercised at quick scale with shrunken selector lists.
"""
import numpy as np
import pandas as pd
import pytest

from repro.core.arda import final_matrix
from repro.experiments import common, table1, table2, table3, table4, table5, table6
from repro.selectors.tuple_ratio import tuple_ratios


class TestHelpers:
    def test_pct_change_cls_is_points(self):
        assert common.pct_change_score("cls", 0.85, 0.80) == pytest.approx(5.0)

    def test_pct_change_reg_is_error_reduction(self):
        assert common.pct_change_score("reg", 8.0, 10.0) == pytest.approx(20.0)
        assert common.pct_change_score("reg", 12.0, 10.0) == pytest.approx(-20.0)

    def test_pct_change_zero_ref(self):
        assert common.pct_change_score("reg", 1.0, 0.0) == 0.0

    def test_selector_lists_match_paper_applicability(self):
        assert "lasso" in common.REG_SELECTORS
        assert "lasso" not in common.CLS_SELECTORS
        assert {"linear_svc", "logistic_reg"} <= set(common.CLS_SELECTORS)
        assert not {"linear_svc", "logistic_reg"} & set(common.REG_SELECTORS)

    def test_scenario_sizes_quick_smaller(self):
        full = common.scenario_sizes("poverty", quick=False)["n_counties"]
        quick = common.scenario_sizes("poverty", quick=True)["n_counties"]
        assert quick < full

    def test_make_cfg_overrides(self):
        cfg = common.make_cfg(True, coreset_method="sketch", budget=99)
        assert cfg.coreset_method == "sketch" and cfg.budget == 99

    def test_make_cfg_misspelt_override_raises(self):
        with pytest.raises(TypeError):
            common.make_cfg(False, coreset_methd="sketch")

    def test_scenario_sizes_unknown_profile_raises(self):
        with pytest.raises(ValueError, match="mediun"):
            common.scenario_sizes("taxi", False, "mediun")

    def test_broadcast_joins_restores(self, spark):
        key = "spark.sql.autoBroadcastJoinThreshold"
        before = spark.conf.get(key)
        with common.broadcast_joins(spark):
            assert spark.conf.get(key) != before
        assert spark.conf.get(key) == before

    def test_save_table(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        p = common.save_table(pd.DataFrame({"a": [1]}), "unit")
        assert pd.read_csv(p)["a"].tolist() == [1]

    def test_tr_rule_keeps_categorical_features(self, spark, monkeypatch):
        monkeypatch.setattr(common, "automl_best_score", lambda X, y, task, seed: 0.0)
        sc = common.load(spark, "taxi", quick=True)
        cfg = common.make_cfg(True)
        tau = table1.TR_TAU["taxi"]
        rows = common.method_rows(spark, sc, cfg, [], tau)
        res = next(r for r in rows if r.method == "tr_rule")
        ratios = tuple_ratios(sc.base.count(), sc.candidates, sc.repo)
        passing = {t for t, r in ratios.items() if r <= tau}
        _, _, names, tables = final_matrix(sc, res.kept, cfg.seed)
        table_of = dict(zip(names, tables))
        onehot = [nm for nm in res.kept if "==" in nm]
        assert onehot and {table_of[nm] for nm in onehot} <= passing
        assert {table_of[nm] for nm in res.kept} == passing

    def test_method_result_row_drops_kept(self):
        r = common.MethodResult("d", "m", 0.5, 1.0, 1, 1, kept=["x"])
        assert "kept" not in r.row()


class TestRunsQuick:
    """Each table path end-to-end at smoke scale (selector lists shrunk)."""

    def test_table6_kraken(self, spark, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(table6, "selector_list", lambda task: ["rifs", "f_test"])
        df = table6.run(spark, quick=True, only=["kraken"])
        by = df.set_index("method")
        assert by.loc["rifs", "metric"] > by.loc["baseline", "metric"]
        assert by.loc["rifs", "n_noise_kept"] <= by.loc["rifs", "n_selected"]
        assert {"baseline", "all_features", "automl_base", "automl_all"} <= set(df["method"])

    def test_table1_rows_taxi(self, spark, monkeypatch):
        # every row, AutoML included, trains on the full joined base
        seen_rows = []

        def record(X, y, task, seed):
            seen_rows.append(X.shape[0])
            return 0.0

        monkeypatch.setattr(common, "automl_best_score", record)
        sc = common.load(spark, "taxi", quick=True)
        n_base = sc.base.count()
        cfg = common.make_cfg(True, coreset_size=100)
        rows = common.method_rows(spark, sc, cfg, ["f_test"], table1.TR_TAU["taxi"])
        by = {r.method: r for r in rows}
        assert list(by) == ["baseline", "all_features", "automl_base",
                            "automl_all", "tr_rule", "f_test"]
        assert (by["automl_all"].n_selected, by["automl_all"].n_tables) == \
            (by["all_features"].n_selected, by["all_features"].n_tables)
        assert n_base == 180 and seen_rows == [n_base, n_base]

    def test_table2_kraken(self, spark, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(table2, "SELECTORS", ["f_test"])
        df = table2.run(spark, quick=True, only=["kraken"])
        assert list(df.columns) == ["dataset", "method", "uniform_acc",
                                    "stratified_delta_pp", "sketch_delta_pp"]
        assert df["method"].tolist() == ["f_test"]
        assert np.isfinite(df[["stratified_delta_pp", "sketch_delta_pp"]]).all(axis=None)

    def test_table3_taxi(self, spark, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(table3, "SELECTORS", ["f_test"])
        df = table3.run(spark, quick=True, only=["taxi"])
        assert list(df.columns) == ["dataset", "method", "uniform_mae",
                                    "sketch_mae", "sketch_delta_pct"]
        assert df["method"].tolist() == ["f_test"]
        assert np.isfinite(df["sketch_delta_pct"]).all()

    def test_table5_poverty_single_selector(self, spark, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(table5, "SELECTORS", ["random_forest"])
        df = table5.run(spark, quick=True, only=["poverty"])
        assert set(df.columns) >= {"table_delta_pct", "fullmat_delta_pct"}
        assert len(df) == 1

    def test_table4_school(self, spark, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        df = table4.run(spark, quick=True, only=["school_s"])
        row = df.iloc[0]
        assert row["tables_removed"] > 0
        assert np.isfinite(row["speedup_x"]) and row["speedup_x"] > 0
