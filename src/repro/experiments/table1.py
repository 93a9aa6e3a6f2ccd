"""Table 1 — real-world datasets x feature selectors: metric + time.

Paper rows: baseline / all-features (our estimator), AutoML comparators,
TR rule standalone, then every selector. Columns per dataset: MAE
(regression) or accuracy (classification), plus selection+evaluation time
in seconds. The MAE is raw: the paper prints it x10^k, and nothing here
rescales it.
"""
from __future__ import annotations

import pandas as pd

from repro.experiments.common import make_cfg, method_rows, run_table, selector_list

DATASETS = ["taxi", "pickup", "poverty", "school_s", "school_l"]
# TR standalone threshold per dataset (Table 4 tunes tau per dataset; at
# our scale TR = n_base / key-domain-size lands near 1-4 for date/id keys)
TR_TAU = {"taxi": 5.0, "pickup": 2.0, "poverty": 1.5,
          "school_s": 1.5, "school_l": 1.5}


def _rows(spark, scenario, quick: bool) -> list[dict]:
    return [r.row() for r in method_rows(spark, scenario, make_cfg(quick),
                                         selector_list(scenario.task),
                                         TR_TAU[scenario.name])]


def run(spark, quick: bool = False, only: list[str] | None = None) -> pd.DataFrame:
    return run_table(spark, "table1_real_world", only or DATASETS, quick, _rows)
