"""Pre-aggregation of foreign tables for LEFT joins (paper §4).

Every join is a LEFT join onto a many-to-one table, so every base-table
row survives exactly once — training examples are never added or
removed. One-to-many / many-to-many joins are reduced to many-to-one by
pre-aggregating the foreign table on its join keys (mean for numerics,
min for everything else — deterministic). Foreign columns are prefixed
``<table>__`` so repeated augmentation never collides.

``key_table`` is every candidate's whole Spark side: one row per foreign
key tuple, keyed by the base's key names. It reads no base rows and runs
no join; ``repro.core.arda._augment`` collects it and attaches it to the
base rows by key, after matching a soft key's values onto it
(``repro.joins.soft``).
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql import types as T

__all__ = ["preaggregate", "key_table", "prefix_columns"]

# Spark types pre-aggregated by their mean (everything else by its min).
NUMERIC_TYPES = (T.IntegerType, T.LongType, T.FloatType, T.DoubleType,
                 T.ShortType, T.ByteType, T.DecimalType)


def preaggregate(foreign: DataFrame, keys: list[str]) -> DataFrame:
    """Collapse the foreign table to one row per key tuple."""
    aggs = []
    for f in foreign.schema.fields:
        if f.name in keys:
            continue
        if isinstance(f.dataType, NUMERIC_TYPES):
            aggs.append(F.avg(F.col(f.name)).alias(f.name))
        else:
            aggs.append(F.min(F.col(f.name)).alias(f.name))
    if not aggs:
        return foreign.select(*keys).distinct()
    return foreign.groupBy(*keys).agg(*aggs)


def prefix_columns(df: DataFrame, prefix: str, exclude: list[str]) -> DataFrame:
    """Rename every column not in ``exclude`` to ``<prefix>__<name>``."""
    sel = [F.col(c).alias(c if c in exclude else f"{prefix}__{c}")
           for c in df.columns]
    return df.select(*sel)


def key_table(foreign: DataFrame, foreign_keys: list[str], base_keys: list[str],
              prefix: str) -> DataFrame:
    """``foreign`` pre-aggregated to one row per key tuple, its keys
    renamed to ``base_keys`` and every other column prefixed."""
    df = prefix_columns(preaggregate(foreign, foreign_keys), prefix,
                        exclude=foreign_keys)
    rename = dict(zip(foreign_keys, base_keys))
    return df.toDF(*(rename.get(c, c) for c in df.columns))
