"""Time-granularity detection and resampling (paper §4, "Time-Resampling").

When the base table keys time at day granularity and the foreign table at
minute granularity, a hard join finds nothing and a naive nearest-
neighbour join keeps one arbitrary row per day. ARDA instead detects the
coarser granularity and *aggregates* the finer table over each coarse
bucket before joining ("all rows that correspond to the same day would be
resampled (aggregated) in the foreign table before the join").

Granularity is detected from distributed aggregates: the coarsest
calendar unit at which every non-null value has zero sub-unit components.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql import types as T

from repro.joins.executor import preaggregate

__all__ = ["detect_granularity", "resample_to", "align_time_tables", "GRANULARITIES"]

# coarse -> fine; index comparisons rely on this order
GRANULARITIES = ["month", "day", "hour", "minute", "second"]


def detect_granularity(df: DataFrame, col: str) -> str:
    """Coarsest unit whose finer components are all zero for ``col``."""
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


def resample_to(df: DataFrame, col: str, gran: str) -> DataFrame:
    """Truncate ``col`` to ``gran`` and aggregate rows per truncated key
    (mean for numerics, min for other columns — the pre-aggregation rule)."""
    if gran not in GRANULARITIES:
        raise ValueError(f"unknown granularity {gran!r}")
    trunc = F.date_trunc(gran, F.col(col).cast("timestamp"))
    orig_type = df.schema[col].dataType
    if isinstance(orig_type, T.DateType):
        trunc = trunc.cast("date")
    out = df.withColumn(col, trunc)
    return preaggregate(out, [col])


def align_time_tables(base: DataFrame, foreign: DataFrame,
                      base_key: str, foreign_key: str) -> DataFrame:
    """Resample the foreign table to the base key's granularity when both
    keys are times or dates and the foreign key is strictly finer;
    otherwise return it unchanged (the base table is never modified — its
    rows are the training examples)."""
    times = (T.TimestampType, T.DateType)
    if not (isinstance(base.schema[base_key].dataType, times)
            and isinstance(foreign.schema[foreign_key].dataType, times)):
        return foreign
    bg = detect_granularity(base, base_key)
    fg = detect_granularity(foreign, foreign_key)
    if GRANULARITIES.index(fg) > GRANULARITIES.index(bg):
        return resample_to(foreign, foreign_key, bg)
    return foreign
