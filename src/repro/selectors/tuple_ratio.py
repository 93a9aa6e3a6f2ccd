"""Kumar et al. Tuple-Ratio (TR) decision rule [42].

TR = n_S / n_R, where n_S is the number of training examples in the base
table and n_R the size of the foreign table's join-key domain (its number
of distinct key values). The VC-dimension analysis of [42] says a foreign
table is "safe to avoid" when TR exceeds a threshold tau — the foreign
key itself already embeds everything the join could add.

ARDA uses the rule two ways (paper §7, Table 4):
* standalone: keep only tables that *fail* the rule (TR <= tau) and join
  them with no feature selection, and
* as a prefilter before RIFS, trading a little accuracy for speed.

``n_R`` is counted in the driver on the collected key columns (a NULL key
is one value): a Spark shuffle per table would cost about what its join does.
``tuple_ratios`` collects every candidate's key columns concurrently,
through the one pool that also collects the key tables
(``repro.joins.executor.collect_all``).
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.joins.executor import collect_all

__all__ = ["tuple_ratio", "tuple_ratios"]


def _ratio(n_base: int, keys: pd.DataFrame) -> float:
    return float(n_base) / max(1, len(keys.drop_duplicates()))


def tuple_ratio(n_base: int, foreign: DataFrame, key_cols: list[str]) -> float:
    return _ratio(n_base, foreign.select(*key_cols).toPandas())


def tuple_ratios(n_base: int, candidates, tables: dict[str, DataFrame]
                 ) -> dict[str, float]:
    """TR of every candidate join, by table name; the rule keeps a table
    when its ratio is at most tau (``repro.core.arda.tr_kept_tables``)."""
    keys = collect_all(SparkSession.active(),
                       lambda cand: tables[cand.table].select(*cand.foreign_keys),
                       candidates)
    return {cand.table: _ratio(n_base, k) for cand, k in zip(candidates, keys)}
