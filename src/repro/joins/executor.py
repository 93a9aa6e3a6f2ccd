"""Every candidate's Spark side: its key table (paper §4).

Every join is a LEFT join onto a many-to-one table, so every base-table
row survives exactly once — training examples are never added or
removed. One-to-many / many-to-many joins are reduced to many-to-one by
pre-aggregating the foreign table on its join keys (mean for numerics,
min for everything else — deterministic). Foreign columns are prefixed
``<table>__`` so repeated augmentation never collides.

``key_table`` is that pre-aggregation, one ``groupBy`` per candidate:
one row per foreign key tuple, keyed by the base's key names. It reads
no base rows and runs no join; ``repro.core.arda._augment`` collects it
and attaches it to the base rows by key, after matching a soft key's
values onto it (``repro.joins.soft``).

``collect_all`` is the one place that collects many small queries at
once: each builds and collects one candidate's query, and the driver's
wait per query, not Spark work, dominates such a round trip, so it runs
them on a pool of ``defaultParallelism`` threads. ``_augment`` and the
Tuple-Ratio counts (``repro.selectors.tuple_ratio``) go through it.

Time resampling (§4, "Time-Resampling"): when the base keys time at day
granularity and the foreign table at hour or minute granularity, "all
rows that correspond to the same day would be resampled (aggregated) in
the foreign table before the join". ``align_time_tables`` only truncates
the foreign key to the base key's granularity; ``key_table``'s
``groupBy`` on the truncated key is the aggregation.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql import types as T
from pyspark.util import inheritable_thread_target

__all__ = ["key_table", "collect_all", "detect_granularity", "align_time_tables"]

Item = TypeVar("Item")

# Spark types pre-aggregated by their mean (everything else by its min).
NUMERIC_TYPES = (T.IntegerType, T.LongType, T.FloatType, T.DoubleType,
                 T.ShortType, T.ByteType, T.DecimalType)


def key_table(foreign: DataFrame, foreign_keys: list[str], base_keys: list[str],
              prefix: str) -> DataFrame:
    """``foreign`` pre-aggregated to one row per key tuple, its keys
    renamed to ``base_keys`` and every other column ``<prefix>__<name>``."""
    keys = [F.col(f).alias(b) for f, b in zip(foreign_keys, base_keys)]
    aggs = [(F.avg if isinstance(f.dataType, NUMERIC_TYPES) else F.min)(f.name)
            .alias(f"{prefix}__{f.name}")
            for f in foreign.schema.fields if f.name not in foreign_keys]
    if not aggs:
        return foreign.select(*keys).distinct()
    return foreign.groupBy(*keys).agg(*aggs)


def collect_all(spark: SparkSession, build: Callable[[Item], DataFrame],
                items: Sequence[Item]) -> list[pd.DataFrame]:
    """``build(item).toPandas()`` for every item, in ``items`` order.

    The round trips, plan and collect, run on a pool of
    ``spark.sparkContext.defaultParallelism`` threads. Each thread runs
    with the caller's local properties (job group, scheduler pool) and
    tags, as captured here. The first failing item's exception is
    raised, after the collects already running finish; the queued ones
    are cancelled."""
    collect = inheritable_thread_target(spark)(lambda item: build(item).toPandas())
    with ThreadPoolExecutor(spark.sparkContext.defaultParallelism) as pool:
        return list(pool.map(collect, items))


def detect_granularity(df: DataFrame, col: str) -> str:
    """Coarsest calendar unit (month, day, hour, minute or second) at which
    every non-null value of ``col`` has zero sub-unit components, computed
    from distributed aggregates."""
    c = F.col(col).cast("timestamp")
    row = df.select(
        F.max((F.second(c) != 0).cast("int")).alias("has_sec"),
        F.max((F.minute(c) != 0).cast("int")).alias("has_min"),
        F.max((F.hour(c) != 0).cast("int")).alias("has_hour"),
        F.max((F.dayofmonth(c) != 1).cast("int")).alias("has_day"),
    ).collect()[0]
    if row["has_sec"]:
        return "second"
    if row["has_min"]:
        return "minute"
    if row["has_hour"]:
        return "hour"
    if row["has_day"]:
        return "day"
    return "month"


def align_time_tables(base: DataFrame, foreign: DataFrame,
                      base_key: str, foreign_key: str) -> DataFrame:
    """``foreign`` with ``foreign_key`` truncated to the base key's
    granularity when both keys are times or dates; otherwise unchanged
    (the base table is never modified — its rows are the training
    examples). Truncating a value to a unit no coarser than its own
    leaves it unchanged, so a foreign table as coarse as the base, or
    coarser, passes through."""
    times = (T.TimestampType, T.DateType)
    key_type = foreign.schema[foreign_key].dataType
    if not (isinstance(base.schema[base_key].dataType, times)
            and isinstance(key_type, times)):
        return foreign
    trunc = F.date_trunc(detect_granularity(base, base_key),
                         F.col(foreign_key).cast("timestamp"))
    if isinstance(key_type, T.DateType):
        trunc = trunc.cast("date")
    return foreign.withColumn(foreign_key, trunc)
