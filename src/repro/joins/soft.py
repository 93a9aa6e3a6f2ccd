"""Soft-key matching (paper §4): nearest-neighbour and two-way NN.

A soft key (time, GPS, age, ...) joins on the *closest* value rather than
an equal one. Like a hard key, a soft candidate's foreign table is
pre-aggregated to one row per key by Spark
(``repro.joins.executor.key_table``) and collected; ``soft_match`` then
maps each distinct non-NULL base key value x onto its sorted keys with
``np.searchsorted``: the greatest key <= x ("floor") and the smallest key
>= x ("ceil"). Keys compare as doubles; times and dates count whole epoch
seconds, as Spark's ``unix_timestamp`` does (naive times read as UTC).

``mode="nearest"`` keeps the closer of the two (ties -> floor).
``mode="two_way"`` linearly interpolates: x = lam*y_low + (1-lam)*y_high,
joined row = lam*r_low + (1-lam)*r_high for numerics; categoricals pick
r_low with probability lam (paper: "selected uniformly at random" in
proportion), one draw per distinct base key.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pandas.api import types as ptypes

__all__ = ["soft_match"]


def _seconds(keys: pd.Series) -> np.ndarray:
    """``keys`` as doubles: numbers as they are, times in whole epoch seconds."""
    if keys.dtype == object:  # Spark dates collect as datetime.date objects
        keys = pd.to_datetime(keys)
    if ptypes.is_datetime64_any_dtype(keys):
        return (keys.to_numpy("datetime64[ns]").view("i8") // 10**9).astype(float)
    return keys.to_numpy(float)


def soft_match(keys: pd.Series, table: pd.DataFrame, key: str, mode: str,
               seed: int) -> pd.DataFrame:
    """``table`` (one row per value of its column ``key``) matched onto the
    distinct non-NULL values of ``keys``: one row per such value, column
    ``key`` holding it and ``table``'s other columns its match. A value
    with no foreign key on either side gets NULLs."""
    table = table[table[key].notna()]
    fk = _seconds(table[key])
    order = np.argsort(fk, kind="stable")
    fk, n = fk[order], len(fk)
    # row n is all-NULL: the match of a missing floor or ceil
    vals = table.drop(columns=key).iloc[order].reset_index(drop=True).reindex(range(n + 1))
    distinct = pd.Series(keys.dropna().unique())
    x = _seconds(distinct)
    lo = np.searchsorted(fk, x, side="right") - 1
    hi = np.searchsorted(fk, x, side="left")
    has_lo, has_hi = lo >= 0, hi < n
    lo, hi = np.where(has_lo, lo, n), np.where(has_hi, hi, n)
    y = np.append(fk, np.nan)
    y_lo, y_hi = y[lo], y[hi]
    if mode == "nearest":
        d_lo = np.where(has_lo, np.abs(x - y_lo), np.inf)
        d_hi = np.where(has_hi, np.abs(x - y_hi), np.inf)
        out = vals.iloc[np.where(d_lo <= d_hi, lo, hi)].reset_index(drop=True)
    else:  # two_way
        span = y_hi - y_lo
        with np.errstate(divide="ignore", invalid="ignore"):
            lam = np.where(has_hi & (span != 0), (y_hi - x) / span, 1.0)
        lam = np.where(has_lo, lam, 0.0)
        u = np.random.default_rng(seed).random(len(x))
        low = vals.iloc[lo].reset_index(drop=True)
        high = vals.iloc[hi].reset_index(drop=True)
        cols = {}
        for c in vals.columns:
            a, b = low[c], high[c]
            if ptypes.is_numeric_dtype(a) and not ptypes.is_bool_dtype(a):
                v = lam * a + (1.0 - lam) * b
            else:
                v = a.where(u < lam, b)
            cols[c] = v.mask(b.isna(), a).mask(a.isna(), b)
        out = pd.DataFrame(cols, index=low.index)
    out.insert(0, key, distinct)
    return out
