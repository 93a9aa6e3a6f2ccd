"""Soft-key joins (paper §4): nearest-neighbour and two-way NN.

A soft key (time, GPS, age, ...) joins on *closest* value rather than
exact match. Implementation is pure Catalyst:

1. the foreign table is pre-aggregated to one row per key;
2. the distinct base key values and the foreign key values are unioned
   into one ordered stream, and two window passes compute, for every base
   key, the greatest foreign key <= x ("floor") and the smallest foreign
   key >= x ("ceil") — the classic as-of join via ``last/first`` with
   ``ignoreNulls`` over an ordering that puts foreign rows on the correct
   side of equal base keys;
3. base rows join back to the foreign rows at their floor/ceil keys.

``mode="nearest"`` keeps the closer of the two (ties -> floor).
``mode="two_way"`` linearly interpolates: x = lam*y_low + (1-lam)*y_high,
joined row = lam*r_low + (1-lam)*r_high for numerics; categoricals pick
r_low with probability lam (paper: "selected uniformly at random" in
proportion).
"""
from __future__ import annotations

from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F
from pyspark.sql import types as T

from repro.joins.executor import NUMERIC_TYPES, preaggregate, prefix_columns

__all__ = ["soft_left_join"]


def _as_double(col, dtype) -> "F.Column":
    if isinstance(dtype, (T.TimestampType, T.DateType)):
        return F.unix_timestamp(col.cast("timestamp")).cast("double")
    return col.cast("double")


def soft_left_join(base: DataFrame, foreign: DataFrame, base_key: str,
                   foreign_key: str, prefix: str, mode: str = "nearest",
                   seed: int = 0) -> DataFrame:
    """LEFT soft-join preserving every base row exactly once."""
    if mode not in ("nearest", "two_way"):
        raise ValueError(f"unknown soft-join mode {mode!r}")
    fagg = preaggregate(foreign, [foreign_key])
    fkd = _as_double(F.col(foreign_key), foreign.schema[foreign_key].dataType)
    fagg = fagg.withColumn("__fk", fkd).drop(foreign_key)

    bkd = _as_double(F.col(base_key), base.schema[base_key].dataType)
    bkeys = base.select(bkd.alias("__bk")).where(F.col("__bk").isNotNull()).distinct()

    # Ordered union of base and foreign key values.
    stream = (bkeys.select(F.col("__bk").alias("__k"), F.lit(None).cast("double").alias("__fk"),
                           F.lit(1).alias("__is_base"))
              .unionByName(fagg.select(F.col("__fk").alias("__k"), F.col("__fk"),
                                       F.lit(0).alias("__is_base"))))
    w_floor = (Window.orderBy(F.col("__k").asc(), F.col("__is_base").asc())
               .rowsBetween(Window.unboundedPreceding, Window.currentRow))
    w_ceil = (Window.orderBy(F.col("__k").asc(), F.col("__is_base").desc())
              .rowsBetween(Window.currentRow, Window.unboundedFollowing))
    lut = (stream
           .withColumn("__floor", F.last("__fk", ignorenulls=True).over(w_floor))
           .withColumn("__ceil", F.first("__fk", ignorenulls=True).over(w_ceil))
           .where(F.col("__is_base") == 1)
           .select(F.col("__k").alias("__bk"), "__floor", "__ceil"))

    low = prefix_columns(fagg, "__lo", exclude=["__fk"]).withColumnRenamed("__fk", "__lofk")
    high = prefix_columns(fagg, "__hi", exclude=["__fk"]).withColumnRenamed("__fk", "__hifk")
    lut = (lut.join(low, lut["__floor"] == low["__lofk"], "left")
              .join(high, lut["__ceil"] == high["__hifk"], "left"))

    val_cols = [c for c in fagg.columns if c != "__fk"]
    x = F.col("__bk")
    lo_k, hi_k = F.col("__floor"), F.col("__ceil")
    if mode == "nearest":
        d_lo = F.when(lo_k.isNull(), F.lit(float("inf"))).otherwise(F.abs(x - lo_k))
        d_hi = F.when(hi_k.isNull(), F.lit(float("inf"))).otherwise(F.abs(x - hi_k))
        use_lo = d_lo <= d_hi
        picks = [F.when(use_lo, F.col(f"__lo__{c}")).otherwise(F.col(f"__hi__{c}"))
                 .alias(f"{prefix}__{c}") for c in val_cols]
        lut_out = lut.select("__bk", *picks)
    else:  # two_way
        span = hi_k - lo_k
        lam = (F.when(lo_k.isNull(), F.lit(0.0))
                .when(hi_k.isNull() | (span == 0), F.lit(1.0))
                .otherwise((hi_k - x) / span))
        picks = []
        for c in val_cols:
            lo_v, hi_v = F.col(f"__lo__{c}"), F.col(f"__hi__{c}")
            if isinstance(fagg.schema[c].dataType, NUMERIC_TYPES):
                v = (F.when(lo_v.isNull(), hi_v).when(hi_v.isNull(), lo_v)
                      .otherwise(lam * lo_v + (F.lit(1.0) - lam) * hi_v))
            else:
                v = (F.when(lo_v.isNull(), hi_v).when(hi_v.isNull(), lo_v)
                      .otherwise(F.when(F.rand(seed) < lam, lo_v).otherwise(hi_v)))
            picks.append(v.alias(f"{prefix}__{c}"))
        lut_out = lut.select("__bk", *picks)

    out = base.withColumn("__bk_join", bkd).join(
        lut_out, F.col("__bk_join").eqNullSafe(lut_out["__bk"]), "left")
    return out.drop("__bk", "__bk_join")
