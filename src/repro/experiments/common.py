"""Shared machinery for the table-reproduction jobs (Tables 1–6).

Each ``repro.experiments.tableN`` module exposes ``run(spark, quick=False)
-> pandas.DataFrame`` returning the rows of the corresponding paper table.
``quick=True`` shrinks data sizes and iteration counts for smoke runs;
benchmarks and jobs default to the full container-scale settings.

No pipeline query runs a Spark join: each candidate's Spark side is its
pre-aggregated key table, and the join onto the base rows runs in pandas
(``repro.core.arda``). So the jobs leave the session's broadcast
threshold as it is.
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, replace

import pandas as pd

from repro.core.arda import (ArdaConfig, final_estimate, final_matrix,
                             prepare_batches, run_selector, tr_kept_tables)
from repro.ml.automl import automl_best_score
from repro.repository import datasets
from repro.repository.repo import Scenario
from repro.selectors import applicable

__all__ = ["broadcast_joins", "make_cfg", "scenario_sizes", "load",
           "REG_SELECTORS", "CLS_SELECTORS", "selector_list", "method_rows",
           "score_grid", "run_table", "save_table"]

# Paper Table 1 / Table 6 selector rows (``method_rows`` adds the rest)
_METHODS = ["rifs", "backward_selection", "forward_selection", "rfe",
            "sparse_regression", "random_forest", "f_test", "mutual_info",
            "relief", "lasso", "linear_svc", "logistic_reg"]
REG_SELECTORS = [m for m in _METHODS if applicable(m, "reg")]
CLS_SELECTORS = [m for m in _METHODS if applicable(m, "cls")]


def selector_list(task: str) -> list[str]:
    return REG_SELECTORS if task == "reg" else CLS_SELECTORS


# Foreign tables up to this size are broadcast inside ``broadcast_joins``.
_BROADCAST_BYTES = 8 << 20


@contextmanager
def broadcast_joins(spark):
    """Set Spark's broadcast-join threshold to ``_BROADCAST_BYTES`` for the
    block, then restore it. No pipeline query contains a join, so this
    changes no plan; it is kept for ``perfbench/run.py``, which enters it."""
    key = "spark.sql.autoBroadcastJoinThreshold"
    old = spark.conf.get(key)
    spark.conf.set(key, str(_BROADCAST_BYTES))
    try:
        yield
    finally:
        spark.conf.set(key, old)


def scenario_sizes(name: str, quick: bool, profile: str | None = None) -> dict:
    """Generator kwargs per scenario.

    Profiles: ``bench`` (Table 1 flagship scale), ``medium`` (sensitivity
    tables 2–5: the entries are *relative* deltas, so a smaller base keeps
    the full sweep inside the container's wall-clock budget), ``quick``
    (smoke runs). ``quick=True`` overrides any profile; any other profile
    name raises ``ValueError``.
    """
    if profile not in (None, "bench", "medium"):
        raise ValueError(f"unknown profile {profile!r}; have 'bench', 'medium'")
    bench = {"taxi": {"n_days": 375, "n_zones": 4},
             "pickup": {"n_hours": 2000},
             "poverty": {"n_counties": 3000},
             "school_s": {"n_schools": 2000},
             "school_l": {"n_schools": 2000},
             "kraken": {}, "digits": {}}
    medium = {"taxi": {"n_days": 250, "n_zones": 3},
              "pickup": {"n_hours": 1200},
              "poverty": {"n_counties": 1500},
              "school_s": {"n_schools": 1200},
              "school_l": {"n_schools": 1200},
              "kraken": {}, "digits": {}}
    quick_kw = {"taxi": {"n_days": 90, "n_zones": 2},
                "pickup": {"n_hours": 400},
                "poverty": {"n_counties": 500},
                "school_s": {"n_schools": 500},
                "school_l": {"n_schools": 400},
                "kraken": {}, "digits": {}}
    table = quick_kw if quick else medium if profile == "medium" else bench
    return table[name]


def load(spark, name: str, quick: bool, profile: str | None = None) -> Scenario:
    return datasets.load_scenario(spark, name,
                                  **scenario_sizes(name, quick, profile))


def make_cfg(quick: bool, **overrides) -> ArdaConfig:
    """The jobs' config; ``overrides`` replace fields by name (a name that
    is not an ``ArdaConfig`` field raises ``TypeError``)."""
    cfg = ArdaConfig(
        coreset_size=384 if quick else 768,
        budget=256 if quick else 512,
        rifs_k=4 if quick else 6,
        eval_trees=15 if quick else 25,
        final_trees=30 if quick else 60,
        wrapper_max_features=8 if quick else 12,
        wrapper_pool=24 if quick else 32,
    )
    return replace(cfg, **overrides)


@dataclass
class MethodResult:
    dataset: str
    method: str
    metric: float  # accuracy in [0,1] or raw MAE
    time_s: float
    n_selected: int
    n_tables: int
    kept: list  # kept augmented feature names (not serialized)

    def row(self) -> dict:
        d = vars(self).copy()
        d.pop("kept")
        return d


# AutoML rows: the selection whose final matrix the search trains on
_AUTOML_DATA = {"automl_base": "baseline", "automl_all": "all_features"}


def method_rows(spark, scenario: Scenario, cfg: ArdaConfig,
                selectors: list[str], tau: float | None) -> list[MethodResult]:
    """The Table-1/6 rows of one scenario: baseline, all_features, the
    AutoML rows on those two matrices, the TR rule at ``tau`` (skipped when
    None), then every selector.

    Every row trains on the full joined base, and one clock times its
    selection and estimate (the paper's 'feature selection and evaluation
    time'); preparing the shared batches is not part of any row.
    """
    batches, _ = prepare_batches(spark, scenario, cfg)
    methods = ["baseline", "all_features", *_AUTOML_DATA]
    methods += ([] if tau is None else ["tr_rule"]) + selectors
    rows = []
    for method in methods:
        t0 = time.perf_counter()
        if method == "tr_rule":  # every feature of the tables the rule keeps
            keep_tables = tr_kept_tables(scenario, tau)
            kept = [b.names[j] for b in batches for j in b.aug_idx
                    if b.col_tables[j] in keep_tables]
        else:
            kept, _, _ = run_selector(batches, _AUTOML_DATA.get(method, method),
                                      scenario.task, cfg)
        if method in _AUTOML_DATA:
            X, y, _, col_tables = final_matrix(scenario, kept, cfg.seed)
            score = automl_best_score(X, y, scenario.task, cfg.seed)
            metric = score if scenario.task == "cls" else -score
            n_tables = len(set(col_tables) - {None})
        else:
            metric, n_tables = final_estimate(spark, scenario, kept, cfg)
        rows.append(MethodResult(scenario.name, method, metric,
                                 time.perf_counter() - t0, len(kept), n_tables,
                                 kept))
    return rows


def score_grid(spark, scenario: Scenario, quick: bool, variants: dict[str, dict],
               selectors: list[str]) -> dict[str, dict[str, float]]:
    """Final metric per (config variant, selector) — the sweep behind
    Tables 2, 3 and 5. ``variants`` maps a name to ``make_cfg`` overrides;
    each variant prepares its batches once and every selector reuses them."""
    grid: dict[str, dict[str, float]] = {}
    for variant, overrides in variants.items():
        cfg = make_cfg(quick, **overrides)
        batches, _ = prepare_batches(spark, scenario, cfg)
        grid[variant] = {}
        for sel in selectors:
            kept, _, _ = run_selector(batches, sel, scenario.task, cfg)
            grid[variant][sel], _ = final_estimate(spark, scenario, kept, cfg)
    return grid


def run_table(spark, table: str, names: list[str], quick: bool, rows_fn,
              profile: str | None = None) -> pd.DataFrame:
    """Per-dataset driver of every table job: load each scenario, collect
    ``rows_fn(spark, scenario, quick)``, and rewrite ``results/<table>.csv``
    after each dataset so a long run keeps its finished rows."""
    rows: list[dict] = []
    for name in names:
        scenario = load(spark, name, quick, profile)
        rows.extend(rows_fn(spark, scenario, quick))
        save_table(pd.DataFrame(rows), table)
        print(f"[{table}] {name}: done ({len(rows)} rows so far)", flush=True)
    return pd.DataFrame(rows)


def save_table(df: pd.DataFrame, name: str) -> str:
    """Persist job output under results/ and return the path."""
    import os
    os.makedirs("results", exist_ok=True)
    path = os.path.join("results", f"{name}.csv")
    df.to_csv(path, index=False)
    return path


def pct_change_score(task: str, metric: float, ref: float) -> float:
    """Paper-style %-change vs a reference: positive = better than ref.

    Classification: accuracy delta in points. Regression: % reduction in
    error relative to the reference MAE."""
    if task == "cls":
        return 100.0 * (metric - ref)
    if ref == 0:
        return 0.0
    return 100.0 * (ref - metric) / abs(ref)
