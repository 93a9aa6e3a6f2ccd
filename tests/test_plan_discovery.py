"""Join-plan, Tuple-Ratio and join-discovery tests."""
import numpy as np
import pandas as pd
import pytest

from repro.core.arda import tr_kept_tables
from repro.joins.plan import CandidateJoin, make_plan, order_candidates
from repro.repository.discovery import discover_joins, intersection_score
from repro.repository.repo import Scenario
from repro.selectors.tuple_ratio import tuple_ratio, tuple_ratios


def _cand(name, score, nf):
    return CandidateJoin(table=name, base_keys=["k"], foreign_keys=["k"],
                         score=score, n_features=nf)


class TestOrdering:
    def test_score_desc_then_name(self):
        cands = [_cand("b", 0.5, 1), _cand("a", 0.9, 1), _cand("c", 0.5, 1)]
        assert [c.table for c in order_candidates(cands)] == ["a", "b", "c"]


class TestMakePlan:
    def test_table_strategy_one_per_batch(self):
        plan = make_plan([_cand("a", 1, 3), _cand("b", 0.5, 3)], "table")
        assert [len(b) for b in plan] == [1, 1]

    def test_full_strategy_single_batch(self):
        plan = make_plan([_cand("a", 1, 3), _cand("b", 0.5, 3)], "full")
        assert len(plan) == 1 and len(plan[0]) == 2

    def test_budget_packs_by_feature_count(self):
        cands = [_cand(f"t{i}", 1 - i * 0.01, 4) for i in range(10)]
        plan = make_plan(cands, "budget", budget=12)
        assert [len(b) for b in plan] == [3, 3, 3, 1]

    def test_budget_respects_priority_order(self):
        cands = [_cand("low", 0.1, 2), _cand("high", 0.9, 2)]
        plan = make_plan(cands, "budget", budget=2)
        assert plan[0][0].table == "high"

    def test_wide_table_ships_alone(self):
        cands = [_cand("wide", 0.9, 100), _cand("a", 0.8, 2), _cand("b", 0.7, 2)]
        plan = make_plan(cands, "budget", budget=10)
        assert [c.table for c in plan[0]] == ["wide"]
        assert {c.table for c in plan[1]} == {"a", "b"}

    def test_empty_candidates(self):
        assert make_plan([], "budget", budget=5) == []
        assert make_plan([], "full") == []

    def test_unknown_strategy_raises(self):
        with pytest.raises(ValueError):
            make_plan([_cand("a", 1, 1)], "spiral", budget=1)

    def test_budget_requires_positive(self):
        with pytest.raises(ValueError):
            make_plan([_cand("a", 1, 1)], "budget", budget=0)


class TestTupleRatio:
    def test_ratio_value(self, spark):
        f = spark.createDataFrame(pd.DataFrame({"k": [1, 1, 2, 3], "v": [0.0] * 4}))
        assert tuple_ratio(30, f, ["k"]) == pytest.approx(10.0)

    def test_filter_keeps_small_ratio(self, spark):
        big_dom = spark.createDataFrame(pd.DataFrame({"k": range(100), "v": [0.0] * 100}))
        small_dom = spark.createDataFrame(pd.DataFrame({"k": [1, 2], "v": [0.0, 0.0]}))
        cands = [_cand("big", 1, 1), _cand("small", 1, 1)]
        repo = {"big": big_dom, "small": small_dom}
        ratios = tuple_ratios(50, cands, repo)
        assert ratios == pytest.approx({"big": 0.5, "small": 25.0})
        base = spark.createDataFrame(pd.DataFrame({"k": range(50), "y": [0.0] * 50}))
        sc = Scenario("tr", "reg", base, "y", repo, cands)
        assert tr_kept_tables(sc, tau=5.0) == {"big"}  # TR 0.5 <= 5 < 25

    def test_composite_key_domain(self, spark):
        f = spark.createDataFrame(pd.DataFrame({
            "a": [1, 1, 2], "b": ["x", "y", "x"], "v": [0.0] * 3}))
        assert tuple_ratio(6, f, ["a", "b"]) == pytest.approx(2.0)

    def test_null_key_is_one_value(self, spark):
        f = spark.createDataFrame(pd.DataFrame({
            "a": [1.0, 1.0, None, None], "b": ["x", "x", None, None]}))
        assert tuple_ratio(6, f, ["a"]) == tuple_ratio(6, f, ["a", "b"]) == pytest.approx(3.0)


class TestDiscovery:
    @pytest.fixture()
    def setup(self, spark):
        base = spark.createDataFrame(pd.DataFrame({
            "id": [1, 2, 3, 4, 5],
            "name": ["a", "b", "c", "d", "e"],
            "val": [0.1, 0.2, 0.3, 0.4, 0.5],
        }))
        repo = {
            "good": spark.createDataFrame(pd.DataFrame(
                {"id": [1, 2, 3, 4], "f": [1.0, 2.0, 3.0, 4.0]})),
            "partial": spark.createDataFrame(pd.DataFrame(
                {"key": [1, 9, 8], "f": [1.0, 2.0, 3.0]})),
            "unrelated": spark.createDataFrame(pd.DataFrame(
                {"zz": [100, 200], "f": [1.0, 2.0]})),
        }
        return base, repo

    def test_intersection_score(self, setup):
        base, repo = setup
        assert intersection_score(base, "id", repo["good"], "id") == pytest.approx(0.8)
        assert intersection_score(base, "id", repo["partial"], "key") == pytest.approx(0.2)

    def test_discover_ranks_by_overlap(self, setup):
        base, repo = setup
        cands = discover_joins(base, repo, ["id"])
        assert [c.table for c in cands] == ["good", "partial"]
        assert cands[0].score > cands[1].score

    def test_min_score_filters(self, setup):
        base, repo = setup
        cands = discover_joins(base, repo, ["id"], min_score=0.5)
        assert [c.table for c in cands] == ["good"]

    def test_unrelated_table_not_discovered(self, setup):
        base, repo = setup
        cands = discover_joins(base, repo, ["id"])
        assert all(c.table != "unrelated" for c in cands)

    def test_float_columns_not_probed(self, setup):
        base, repo = setup
        cands = discover_joins(base, repo, ["val"])
        assert cands == []

    def test_time_keys_marked_soft(self, spark):
        base = spark.createDataFrame(pd.DataFrame({
            "d": pd.to_datetime(["2020-01-01", "2020-01-02"]), "x": [1.0, 2.0]}))
        repo = {"w": spark.createDataFrame(pd.DataFrame({
            "ts": pd.to_datetime(["2020-01-01 05:00", "2020-01-02 07:00"]),
            "temp": [1.0, 2.0]}))}
        cands = discover_joins(base, repo, ["d"])
        assert len(cands) == 1 and cands[0].soft == "two_way"
        assert cands[0].score == pytest.approx(1.0)

    def test_n_features_excludes_key(self, setup):
        base, repo = setup
        cands = discover_joins(base, repo, ["id"])
        assert cands[0].n_features == 1

