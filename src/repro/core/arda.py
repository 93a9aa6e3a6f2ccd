"""End-to-end ARDA pipeline (paper §3 workflow).

Stages, matching Figure 1: join plan -> joins -> coreset -> feature
selection (per batch) -> final estimate.

Every join is a LEFT join onto a pre-aggregated, many-to-one table (§4),
so a base row's joined values depend only on its key tuple. Spark reduces
each candidate table to one row per key tuple, once per scenario and
seed, and runs no join; the driver matches a soft key's values onto that
table, LEFT-joins it onto the collected base rows by key and imputes
them with full-base statistics (``AugmentedTable``, cached on the
``Scenario``). A coreset is a row sample of that table, encoded
once; a batch is a column slice of that matrix, and the final matrix an
encoded column projection of the table.

The pipeline is factored into three reusable pieces so experiment jobs
can amortize the expensive parts across the many selectors they compare:

* ``prepare_batches``  — join the plan's tables (soft keys, resampling,
  pre-aggregation, imputation), sample the coreset rows, encode them into
  one numpy matrix and slice each batch's columns out of it.
* ``run_selector``     — run one named selection method over the encoded
  batches, always force-keeping the base-table features; returns the kept
  augmented feature names.
* ``final_estimate``   — encode the full joined base, keep the base
  features plus the kept ones, train the paper's lightly auto-optimized
  Random-Forest estimator, and report the holdout score.

Jobs compose them: ``prepare_batches`` once per config, then
``run_selector`` and ``final_estimate`` per method row.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core.rifs import rifs_fractions, rifs_select
from repro.core.search import exponential_search
from repro.coreset.sampling import build_coreset
from repro.coreset.sketch import sketch_dataset
from repro.joins.executor import align_time_tables, key_table
from repro.joins.impute import impute
from repro.joins.plan import CandidateJoin, make_plan
from repro.joins.soft import soft_match
from repro.ml.encode import assemble
from repro.ml.evaluate import Evaluator, holdout_score, make_estimator
from repro.selectors import rank_scores
from repro.selectors.tuple_ratio import tuple_ratios
from repro.selectors.wrappers import backward_elimination, forward_selection, rfe
from repro.repository.repo import Scenario

__all__ = ["ArdaConfig", "prepare_batches", "run_selector", "final_estimate",
           "final_matrix", "Batch", "AugmentedTable", "tr_kept_tables"]

_EVAL_DEPTH = 8
# Wrapper methods fit the eval model hundreds of times per batch; they get
# a lighter forest (the paper's point is their cost ORDER, which a cheaper
# inner model preserves).
_WRAPPER_TREES = 10
_WRAPPER_DEPTH = 6


@dataclass
class ArdaConfig:
    coreset_size: int = 768
    coreset_method: str = "uniform"  # uniform | stratified | sketch
    join_strategy: str = "budget"  # table | budget | full
    budget: int | None = None  # feature budget; default = coreset_size
    rifs_k: int = 10  # RIFS injection rounds k (Alg. 1)
    tr_tau: float | None = None  # TR-rule prefilter threshold (None = off)
    seed: int = 0
    eval_trees: int = 25
    final_trees: int = 60
    wrapper_max_features: int = 20  # forward-selection add cap
    wrapper_pool: int = 32  # forward-selection candidate pool


@dataclass
class Batch:
    """One encoded join batch: base features + this batch's augmentations."""

    X: np.ndarray
    y: np.ndarray
    names: list[str]
    base_idx: np.ndarray  # columns encoding base-table features (force-keep)
    aug_idx: np.ndarray  # columns encoding augmented features (selectable)
    col_tables: list[str | None]  # table each column came from; None = base


@dataclass
class AugmentedTable:
    """The full base with candidate tables LEFT-joined and imputed.

    ``frame`` is a pandas frame whose row ``i`` is base row ``i`` (the
    base's collect order): the collected base plus each table's columns,
    attached by key and imputed over these rows.
    ``source`` maps every joined raw column to its table and is the only
    record of provenance — base columns are absent from it.
    """

    seed: int
    frame: pd.DataFrame
    source: dict[str, str] = field(default_factory=dict)
    tables: set[str] = field(default_factory=set)


def join_candidate(base: DataFrame, cand: CandidateJoin, foreign: DataFrame
                   ) -> DataFrame:
    """One candidate's Spark side: its ``key_table``, one ``groupBy`` to
    one row per foreign key tuple, keyed by ``cand.base_keys``. A soft
    time key is first truncated to the base key's granularity, so that
    ``groupBy`` also resamples it (§4); the base is read only through its
    granularity aggregate, and no candidate's query runs a join."""
    if cand.soft:
        foreign = align_time_tables(base, foreign, cand.base_keys[0],
                                    cand.foreign_keys[0])
    return key_table(foreign, cand.foreign_keys, cand.base_keys, cand.table)


def _augment(scenario: Scenario, cands: list[CandidateJoin],
             seed: int) -> AugmentedTable:
    """Join every candidate in ``cands`` not joined yet, impute the new
    columns over the base rows, and add them to the scenario's cached
    table (rebuilt when ``seed`` changes). Returns the cached table.

    Each candidate gets one join: its collected ``join_candidate`` table
    is LEFT-joined onto the base rows by key (pandas matches NULL keys,
    as ``eqNullSafe`` does), so a row gets exactly what its key tuple
    gets, or NULLs when the table lacks that tuple. A soft key's table is
    first matched onto the base's distinct key values (``soft_match``).
    """
    aug = scenario.augmented
    if aug is None or aug.seed != seed:
        aug = scenario.augmented = AugmentedTable(seed, scenario.base.toPandas())
    new = [c for c in cands if c.table not in aug.tables]
    if not new:
        return aug
    parts = []
    for cand in new:
        keys = cand.base_keys
        part = join_candidate(scenario.base, cand, scenario.repo[cand.table]).toPandas()
        if cand.soft:
            part = soft_match(aug.frame[keys[0]], part, keys[0], cand.soft, seed)
        parts.append(aug.frame[keys].join(part.set_index(keys), on=keys,
                                          validate="m:1").drop(columns=keys))
    aug.frame = aug.frame.join(impute(pd.concat(parts, axis=1), seed=seed))
    aug.source.update({c: cand.table for cand, p in zip(new, parts) for c in p})
    aug.tables.update(c.table for c in new)
    return aug


def _encode(scenario: Scenario, aug: AugmentedTable, tables: set[str],
            rows: np.ndarray | None = None
            ) -> tuple[np.ndarray, np.ndarray, list[str], list[str | None], np.ndarray]:
    """Encode the base columns (keys dropped) plus the joined columns of
    ``tables``, for the row positions ``rows`` (every row by default).

    Returns ``(X, y, names, col_tables, is_base)``: ``col_tables[j]`` is
    the table feature ``j`` was joined from (None for the base), and
    ``is_base[j]`` marks the user's base-table features — in
    micro-benchmark scenarios (no repository) only those encoding one of
    ``scenario.base_feature_cols``; every other base column there is
    augmentation to select over.
    """
    keys = set(scenario.key_cols)
    cols = [c for c in aug.frame.columns if c not in keys
            and (c not in aug.source or aug.source[c] in tables)]
    frame = aug.frame if rows is None else aug.frame.take(rows)
    X, y, names, sources = assemble(frame[cols].reset_index(drop=True),
                                    scenario.target, scenario.task)
    col_tables = [aug.source.get(src) for src in sources]
    keep = scenario.base_feature_cols
    is_base = np.array([t is None and (keep is None or src in keep)
                        for src, t in zip(sources, col_tables)], dtype=bool)
    return X, y, names, col_tables, is_base


def tr_kept_tables(scenario: Scenario, tau: float) -> set[str]:
    """The candidate tables the Tuple-Ratio rule keeps: TR <= ``tau``."""
    ratios = tuple_ratios(scenario.base.count(), scenario.candidates, scenario.repo)
    return {table for table, ratio in ratios.items() if ratio <= tau}


def prepare_batches(spark: SparkSession, scenario: Scenario, cfg: ArdaConfig
                    ) -> tuple[list[Batch], dict]:
    """Join plan + joins + coreset + encoding. Returns (batches, info)."""
    info: dict = {}
    size = cfg.coreset_size
    candidates = scenario.candidates
    if cfg.tr_tau is not None:
        keep = tr_kept_tables(scenario, cfg.tr_tau)
        candidates = [c for c in candidates if c.table in keep]
        info["tr_removed"] = len(scenario.candidates) - len(candidates)
    budget = cfg.budget or size
    # An empty plan (no repository, or a TR prefilter that removed every
    # candidate) still yields one batch: the coreset itself, with no joins.
    plan = make_plan(candidates, cfg.join_strategy, budget=budget) or [[]]
    info["n_batches"] = len(plan)

    cands = [cand for batch in plan for cand in batch]
    aug = _augment(scenario, cands, cfg.seed)
    labels = aug.frame[scenario.target].to_numpy() if scenario.task == "cls" else None
    # Every batch matrix shares these rows, so the cross-batch pruning pass
    # can hstack kept columns from different batches.
    rows = build_coreset(len(aug.frame), size, cfg.coreset_method,
                         labels=labels, seed=cfg.seed)
    if not len(rows):
        raise ValueError(f"empty coreset for scenario {scenario.name!r} "
                         f"(coreset_size={size}): the base table has no rows")
    # Encoding is per column and a sketch mixes only rows, so the plan's
    # tables are encoded (and sketched) once and each batch is a column
    # slice: the base columns plus those of its own tables.
    X, y, names, col_tables, is_base = _encode(
        scenario, aug, {cand.table for cand in cands}, rows)
    if cfg.coreset_method == "sketch":  # every row, sketched to the coreset size
        X, y = sketch_dataset(X, y, ell=size, task=scenario.task, seed=cfg.seed)
    batches: list[Batch] = []
    for batch in plan:
        tables = {cand.table for cand in batch}
        cols = [j for j, t in enumerate(col_tables) if t is None or t in tables]
        base = is_base[cols]
        # take, unlike X[:, cols], returns a row-major copy, as assemble does
        batches.append(Batch(X.take(cols, axis=1), y, [names[j] for j in cols],
                             np.flatnonzero(base), np.flatnonzero(~base),
                             [col_tables[j] for j in cols]))
    return batches, info


def _select_in_batch(batch: Batch, selector: str, task: str, cfg: ArdaConfig
                     ) -> tuple[list[str], int]:
    """Run one selector on one batch; returns (kept augmented names, fits)."""
    if selector in ("forward_selection", "backward_selection", "rfe"):
        ev = Evaluator(batch.X, batch.y, task, seed=cfg.seed,
                       n_trees=_WRAPPER_TREES, max_depth=_WRAPPER_DEPTH)
    else:
        ev = Evaluator(batch.X, batch.y, task, seed=cfg.seed,
                       n_trees=cfg.eval_trees, max_depth=_EVAL_DEPTH)
    if selector == "rifs":
        fractions = rifs_fractions(batch.X, batch.y, task, cfg.rifs_k, cfg.seed)
        selected = rifs_select(ev, fractions, force_keep=batch.base_idx)
    elif selector == "forward_selection":
        selected = forward_selection(ev, max_features=cfg.wrapper_max_features,
                                     candidate_pool=cfg.wrapper_pool)
    elif selector == "backward_selection":
        selected = backward_elimination(ev)
    elif selector == "rfe":
        selected = rfe(ev)
    else:  # plain ranking + exponential search (paper §6.3 cut)
        scores = rank_scores(selector, batch.X, batch.y, task, cfg.seed)
        selected = exponential_search(ev, scores, force_keep=batch.base_idx)
    aug = set(batch.aug_idx.tolist())
    kept = [batch.names[j] for j in selected if j in aug]
    return kept, ev.n_evals


def run_selector(batches: list[Batch], selector: str, task: str,
                 cfg: ArdaConfig) -> tuple[list[str], float, int]:
    """Selection across all batches; returns (kept names, seconds, fits).

    ``baseline`` keeps no augmented feature and ``all_features`` keeps
    every one; other names are selectors (a ranker that is n/a for
    ``task`` raises ``ValueError``).
    """
    if selector == "baseline":
        return [], 0.0, 0
    t0 = time.perf_counter()
    if selector == "all_features":
        kept = [b.names[j] for b in batches for j in b.aug_idx]
        return kept, time.perf_counter() - t0, 0
    kept: list[str] = []
    fits = 0
    for b in batches:
        k, f = _select_in_batch(b, selector, task, cfg)
        kept.extend(k)
        fits += f
    if len(batches) > 1 and kept:
        # Cross-batch pruning pass: each batch's selection saw only its own
        # tables, so every all-noise batch can leak a few spurious features
        # (the join plan is "iteratively executed", §4 — this is the final
        # iteration). Re-select once over base + everything kept so far.
        union = _union_batch(batches, kept)
        kept, f = _select_in_batch(union, selector, task, cfg)
        fits += f
    return kept, time.perf_counter() - t0, fits


def _union_batch(batches: list[Batch], kept_names: list[str]) -> Batch:
    """Base features (from batch 0) + kept augmented columns of every batch,
    hstacked in the coreset row order every batch shares."""
    b0 = batches[0]
    keep = set(kept_names)
    idx = [(b0, list(b0.base_idx))]
    idx += [(b, [j for j in b.aug_idx if b.names[j] in keep]) for b in batches]
    X = np.hstack([b.X[:, cols] for b, cols in idx])
    names = [b.names[j] for b, cols in idx for j in cols]
    col_tables = [b.col_tables[j] for b, cols in idx for j in cols]
    n_base = len(b0.base_idx)
    return Batch(X, b0.y, names, np.arange(n_base),
                 np.arange(n_base, X.shape[1]), col_tables)


def final_matrix(scenario: Scenario, kept_names: list[str], seed: int
                 ) -> tuple[np.ndarray, np.ndarray, list[str], list[str | None]]:
    """The full base's base features plus ``kept_names``, encoded from the
    scenario's joined table: (X, y, names, table of each column). The
    final estimator trains on it, and so do the AutoML rows of Tables 1
    and 6."""
    aug = _augment(scenario, [], seed)
    X, y, names, col_tables, keep = _encode(scenario, aug, aug.tables)
    kept = set(kept_names)
    missing = kept - set(names)
    if missing:
        raise ValueError(f"{len(missing)} kept features are not in the joined "
                         f"table (e.g. {sorted(missing)[:3]}): call "
                         "prepare_batches with the same scenario and seed first")
    keep |= np.array([nm in kept for nm in names], dtype=bool)
    cols = np.flatnonzero(keep)
    return (X[:, cols], y, [names[j] for j in cols],
            [col_tables[j] for j in cols])


def final_estimate(spark: SparkSession, scenario: Scenario,
                   kept_names: list[str], cfg: ArdaConfig) -> tuple[float, int]:
    """Train the final estimator on the full base's base features plus the
    kept ones; returns (holdout metric, tables contributing a feature).

    The matrix is a projection of the table ``prepare_batches`` joined for
    this scenario and seed, so this function runs no join; its imputed
    values come from full-base statistics. The metric is raw: accuracy for
    classification, unscaled MAE for regression (the paper prints MAE
    x10^k; nothing here rescales it).
    """
    X, y, _, col_tables = final_matrix(scenario, kept_names, cfg.seed)
    n_tables = len(set(col_tables) - {None})
    return _estimate_from_matrix(scenario, X, y, cfg), n_tables


def _estimate_from_matrix(scenario: Scenario, Xs: np.ndarray, y: np.ndarray,
                          cfg: ArdaConfig) -> float:
    # Average over two holdout splits to damp split noise; within each,
    # "lightly auto-optimized": two capacities, keep the better (paper §7).
    split_scores = []
    for split_seed in (cfg.seed, cfg.seed + 1000):
        split_scores.append(max(
            holdout_score(Xs, y, scenario.task,
                          make_estimator(scenario.task, seed=cfg.seed,
                                         n_trees=cfg.final_trees, max_depth=depth),
                          seed=split_seed)
            for depth in (8, 12)))
    avg = float(np.mean(split_scores))
    return float(avg if scenario.task == "cls" else -avg)

