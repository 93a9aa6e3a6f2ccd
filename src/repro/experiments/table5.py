"""Table 5 — table grouping: table-join and full materialization vs the
default budget-join, per selector.

Entries are the change in final score relative to budget-join (negative =
worse than budget-join), the paper's evidence for co-predictors split
across tables.
"""
from __future__ import annotations

import pandas as pd

from repro.experiments.common import pct_change_score, run_table, score_grid

DATASETS = ["taxi", "pickup", "poverty", "school_s"]
SELECTORS = ["rifs", "forward_selection", "random_forest", "sparse_regression"]
STRATEGIES = ["budget", "table", "full"]


def _rows(spark, scenario, quick: bool) -> list[dict]:
    grid = score_grid(spark, scenario, quick,
                      {s: {"join_strategy": s} for s in STRATEGIES}, SELECTORS)
    budget = grid["budget"]
    return [{"dataset": scenario.name, "method": sel,
             "budget_metric": budget[sel],
             "table_delta_pct": pct_change_score(
                 scenario.task, grid["table"][sel], budget[sel]),
             "fullmat_delta_pct": pct_change_score(
                 scenario.task, grid["full"][sel], budget[sel])}
            for sel in SELECTORS]


def run(spark, quick: bool = False, only: list[str] | None = None) -> pd.DataFrame:
    return run_table(spark, "table5_grouping", only or DATASETS, quick, _rows,
                     profile="medium")
