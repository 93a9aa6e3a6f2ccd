"""Table 4 — the Tuple-Ratio rule as a prefilter before RIFS.

Per dataset: score change vs unfiltered RIFS, end-to-end speed-up factor,
number of tables removed, and the tau used. The paper optimizes tau per
dataset; we pick tau as a quantile of the observed TR distribution so a
meaningful fraction of tables is removed at every scale (recorded in the
output).
"""
from __future__ import annotations

import dataclasses
import time

import numpy as np
import pandas as pd

from repro.core.arda import final_estimate, prepare_batches, run_selector
from repro.experiments.common import make_cfg, pct_change_score, run_table
from repro.selectors.tuple_ratio import tuple_ratios

DATASETS = ["taxi", "pickup", "poverty", "school_s", "school_l"]


def _rows(spark, scenario, quick: bool) -> list[dict]:
    ratios = tuple_ratios(scenario.base.count(), scenario.candidates, scenario.repo)
    tau = float(np.quantile(list(ratios.values()), 0.45))  # removes the worst ~55%

    def pipeline(tr_tau):
        # Each pipeline joins its own tables: a fresh copy of the scenario
        # starts without the other pipeline's joined table.
        sc = dataclasses.replace(scenario)
        t0 = time.perf_counter()
        c = make_cfg(quick, tr_tau=tr_tau)
        batches, info = prepare_batches(spark, sc, c)
        kept, _, _ = run_selector(batches, "rifs", sc.task, c)
        score, _ = final_estimate(spark, sc, kept, c)
        return score, time.perf_counter() - t0, info.get("tr_removed", 0)

    base_score, base_t, _ = pipeline(None)
    filt_score, filt_t, removed = pipeline(tau)
    return [{
        "dataset": scenario.name,
        "score_change_pct": pct_change_score(scenario.task, filt_score, base_score),
        "speedup_x": base_t / max(filt_t, 1e-9),
        "tables_removed": removed,
        "tau": tau,
        "unfiltered_metric": base_score,
        "filtered_metric": filt_score,
    }]


def run(spark, quick: bool = False, only: list[str] | None = None) -> pd.DataFrame:
    return run_table(spark, "table4_tuple_ratio", only or DATASETS, quick, _rows,
                     profile="medium")
