"""Table 6 — micro benchmarks (Kraken, Digits): accuracy + time per
selector under 10x planted synthetic noise.

Also emits the Figure-6-style noise-recovery counts (how many selected
features are original vs planted noise) since ground truth is known.
"""
from __future__ import annotations

import pandas as pd

from repro.core.arda import prepare_batches
from repro.experiments.common import (automl_rows, make_cfg, run_method,
                                      run_table, selector_list)

DATASETS = ["kraken", "digits"]


def _rows(spark, scenario, quick: bool) -> list[dict]:
    cfg = make_cfg(quick, coreset_size=1024)
    batches, _ = prepare_batches(spark, scenario, cfg)
    originals = set(scenario.original_features)
    rows = [run_method(spark, scenario, batches, "baseline", cfg).row(),
            run_method(spark, scenario, batches, "all_features", cfg).row()]
    for r in automl_rows(spark, scenario, batches, cfg, budget_s=5 if quick else 20):
        rows.append(r.row())
    for sel in selector_list(scenario.task):
        r = run_method(spark, scenario, batches, sel, cfg)
        row = r.row()
        kept = r.kept or []
        row["n_original_kept"] = sum(1 for nm in kept if nm in originals)
        row["n_noise_kept"] = sum(1 for nm in kept if nm.startswith("noise_"))
        rows.append(row)
    return rows


def run(spark, quick: bool = False, only: list[str] | None = None) -> pd.DataFrame:
    return run_table(spark, "table6_micro", only or DATASETS, quick, _rows)
