"""Table 2 — coreset strategies on classification datasets.

For School (S), Digits and Kraken, compare stratified sampling and
sketching against uniform sampling: the table entries are accuracy change
(percentage points) of each strategy over uniform, per selector.
"""
from __future__ import annotations

import pandas as pd

from repro.experiments.common import run_table, score_grid

DATASETS = ["school_s", "digits", "kraken"]
SELECTORS = ["f_test", "mutual_info", "random_forest", "sparse_regression",
             "all_features", "rifs", "forward_selection", "linear_svc", "relief"]
METHODS = ["uniform", "stratified", "sketch"]


def _rows(spark, scenario, quick: bool) -> list[dict]:
    grid = score_grid(spark, scenario, quick,
                      {m: {"coreset_method": m} for m in METHODS}, SELECTORS)
    uniform = grid["uniform"]
    return [{"dataset": scenario.name, "method": sel,
             "uniform_acc": uniform[sel],
             "stratified_delta_pp": 100 * (grid["stratified"][sel] - uniform[sel]),
             "sketch_delta_pp": 100 * (grid["sketch"][sel] - uniform[sel])}
            for sel in SELECTORS]


def run(spark, quick: bool = False, only: list[str] | None = None) -> pd.DataFrame:
    return run_table(spark, "table2_coresets", only or DATASETS, quick, _rows,
                     profile="medium")
