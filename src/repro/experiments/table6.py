"""Table 6 — micro benchmarks (Kraken, Digits): accuracy + time per
selector under 10x planted synthetic noise.

Also emits the Figure-6-style noise-recovery counts (how many selected
features are original vs planted noise) since ground truth is known.
"""
from __future__ import annotations

import pandas as pd

from repro.experiments.common import make_cfg, method_rows, run_table, selector_list

DATASETS = ["kraken", "digits"]


def _rows(spark, scenario, quick: bool) -> list[dict]:
    selectors = selector_list(scenario.task)
    originals = set(scenario.original_features)
    rows = []
    for r in method_rows(spark, scenario, make_cfg(quick, coreset_size=1024),
                         selectors, None):
        row = r.row()
        if r.method in selectors:
            row["n_original_kept"] = sum(1 for nm in r.kept if nm in originals)
            row["n_noise_kept"] = sum(1 for nm in r.kept if nm.startswith("noise_"))
        rows.append(row)
    return rows


def run(spark, quick: bool = False, only: list[str] | None = None) -> pd.DataFrame:
    return run_table(spark, "table6_micro", only or DATASETS, quick, _rows)
