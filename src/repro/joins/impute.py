"""Imputation for post-join missing values (paper §4, "Imputation").

LEFT JOIN semantics leave NULLs wherever a base row found no match; the
paper fills numerics with the column median and categoricals with a
uniformly random sample from the column's observed values. The joined
columns are collected into pandas, one row per base row in base order,
before they are imputed: a statistic counts a key once per row that
carries it, and a fill depends only on its column's values, the row's
position and the seed — never on how the join that made the column ran.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pandas.api import types as ptypes

__all__ = ["impute"]

_MAX_CAT_DOMAIN = 200


def impute(df: pd.DataFrame, seed: int = 0) -> pd.DataFrame:
    """Fill NULLs: numeric -> lower median, string/bool -> uniform random
    pick from the first observed values (or a constant fallback when a
    column is entirely NULL). Returns a new frame.

    Row ``i`` of every column draws the same uniform, the ``i``-th of
    ``default_rng(seed)``, so filling one column never shifts another's.
    """
    u = np.random.default_rng(seed).random(len(df))
    filled = {}
    for c in df.columns:
        col = df[c]
        miss = col.isna().to_numpy()
        if not miss.any():
            continue
        seen = col[~miss]
        is_bool = ptypes.is_bool_dtype(col)
        if ptypes.is_numeric_dtype(col) and not is_bool:
            fill = (np.quantile(seen.to_numpy(float), 0.5, method="inverted_cdf")
                    if len(seen) else 0.0)
        elif is_bool or ptypes.is_object_dtype(col) or ptypes.is_string_dtype(col):
            domain = pd.unique(seen)[:_MAX_CAT_DOMAIN]
            if len(domain):
                fill = domain[(u[miss] * len(domain)).astype(int)]
            else:
                fill = False if is_bool else "__missing__"
        else:
            continue
        col = col.copy()
        col[miss] = fill
        filled[c] = col.infer_objects()  # Spark booleans with NULLs arrive as objects
    return df.assign(**filled)
