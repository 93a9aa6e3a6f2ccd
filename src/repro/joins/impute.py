"""Imputation for post-join missing values (paper §4, "Imputation").

LEFT JOIN semantics leave NULLs wherever a base row found no match; the
paper fills numerics with the column median and categoricals with a
uniformly random sample from the column's observed values. Medians come
from ``percentile_approx`` and categorical domains from a distinct scan —
both distributed; the random pick is a seeded ``rand()`` indexing into
the (small) collected domain.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql import types as T

from repro.joins.executor import NUMERIC_TYPES

__all__ = ["impute"]

_MAX_CAT_DOMAIN = 200


def impute(df: DataFrame, cols: list[str] | None = None, seed: int = 0) -> DataFrame:
    """Fill NULLs: numeric -> median, string/bool -> uniform random observed
    value (or a constant fallback when a column is entirely NULL)."""
    target = set(cols) if cols is not None else {f.name for f in df.schema.fields}
    num_cols = [f.name for f in df.schema.fields
                if f.name in target and isinstance(f.dataType, NUMERIC_TYPES)]
    cat_cols = [f.name for f in df.schema.fields
                if f.name in target and isinstance(f.dataType, (T.StringType, T.BooleanType))]
    if not num_cols and not cat_cols:
        return df
    # One aggregation pass computes every median and every (capped)
    # categorical domain, so imputation costs a single Spark job however
    # many columns need filling.
    aggs = [F.percentile_approx(F.col(c), 0.5).alias(f"__med_{i}")
            for i, c in enumerate(num_cols)]
    aggs += [F.slice(F.collect_set(F.col(c)), 1, _MAX_CAT_DOMAIN).alias(f"__dom_{i}")
             for i, c in enumerate(cat_cols)]
    row = df.agg(*aggs).collect()[0]
    out = df
    med = {c: (0.0 if row[f"__med_{i}"] is None else float(row[f"__med_{i}"]))
           for i, c in enumerate(num_cols)}
    if med:
        out = out.fillna(med)
    for i, c in enumerate(cat_cols):
        vals = row[f"__dom_{i}"] or []
        if not vals:
            fallback = False if isinstance(df.schema[c].dataType, T.BooleanType) else "__missing__"
            out = out.fillna({c: fallback})
            continue
        arr = F.array(*[F.lit(v) for v in vals])
        pick = arr[(F.floor(F.rand(seed) * len(vals))).cast("int")]
        out = out.withColumn(c, F.coalesce(F.col(c), pick))
    return out
