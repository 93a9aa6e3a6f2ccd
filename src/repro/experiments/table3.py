"""Table 3 — sketching vs uniform sampling on the regression datasets.

Entries are the paper-style %-change of each selector's result under the
count-sketch coreset relative to uniform sampling (positive = sketching
reduced the error).
"""
from __future__ import annotations

import pandas as pd

from repro.experiments.common import pct_change_score, run_table, score_grid

DATASETS = ["taxi", "pickup", "poverty"]
SELECTORS = ["rifs", "sparse_regression", "f_test", "lasso", "mutual_info",
             "relief", "all_features", "random_forest", "forward_selection"]


def _rows(spark, scenario, quick: bool) -> list[dict]:
    grid = score_grid(spark, scenario, quick,
                      {m: {"coreset_method": m} for m in ("uniform", "sketch")},
                      SELECTORS)
    return [{"dataset": scenario.name, "method": sel,
             "uniform_mae": grid["uniform"][sel],
             "sketch_mae": grid["sketch"][sel],
             "sketch_delta_pct": pct_change_score(
                 "reg", grid["sketch"][sel], grid["uniform"][sel])}
            for sel in SELECTORS]


def run(spark, quick: bool = False, only: list[str] | None = None) -> pd.DataFrame:
    return run_table(spark, "table3_sketching", only or DATASETS, quick, _rows,
                     profile="medium")
