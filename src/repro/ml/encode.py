"""Feature-matrix assembly: pandas DataFrame -> numpy (X, y, names).

ARDA "binarizes categorical features into a set of numerical features"
(§3.1) before sketching / feature selection; this module is that step.
Datetime columns are expanded into numeric calendar components instead of
being dropped, since time often carries signal in the paper's scenarios.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

__all__ = ["assemble"]

_MAX_ONEHOT = 20


def assemble(pdf: pd.DataFrame, target: str, task: str
             ) -> tuple[np.ndarray, np.ndarray, list[str], list[str]]:
    """Encode a pandas DataFrame.

    Numerics pass through (median-imputed); categoricals one-hot encode
    their ``<= _MAX_ONEHOT`` most frequent values (rest fall into no
    column, i.e. an implicit "other" of all-zeros); datetimes expand to
    (epoch-days, month, dayofweek, hour). Every column is encoded on its
    own, from its own values only.

    Returns ``(X, y, feature_names, sources)``: ``sources[j]`` is the raw
    column feature ``j`` encodes, so callers never parse feature names.
    """
    blocks: list[np.ndarray] = []
    names: list[str] = []
    sources: list[str] = []
    for col in pdf.columns:
        if col == target:
            continue
        s = pdf[col]
        if pd.api.types.is_datetime64_any_dtype(s):
            s = pd.to_datetime(s)
            epoch = s.astype("int64").to_numpy().astype(float) / 86_400e9
            blocks.append(np.column_stack([
                np.where(s.isna().to_numpy(), 0.0, epoch),
                s.dt.month.fillna(0).to_numpy(dtype=float),
                s.dt.dayofweek.fillna(0).to_numpy(dtype=float),
                s.dt.hour.fillna(0).to_numpy(dtype=float),
            ]))
            new = [f"{col}__epoch", f"{col}__month", f"{col}__dow", f"{col}__hour"]
        elif pd.api.types.is_numeric_dtype(s) or pd.api.types.is_bool_dtype(s):
            v = pd.to_numeric(s, errors="coerce")
            med = float(v.median())
            blocks.append(np.nan_to_num(v.to_numpy(dtype=float),
                                        nan=0.0 if np.isnan(med) else med)[:, None])
            new = [col]
        else:
            sv = s.astype("string")
            top = sv.value_counts().index[:_MAX_ONEHOT].tolist()
            blocks.append(np.column_stack(
                [(sv == v).fillna(False).to_numpy(dtype=float) for v in top]
            ) if top else np.zeros((len(pdf), 0)))
            new = [f"{col}=={v}" for v in top]
        names += new
        sources += [col] * len(new)
    X = np.hstack(blocks) if blocks else np.zeros((len(pdf), 0))
    y = pdf[target]
    y = (pd.to_numeric(y, errors="coerce").to_numpy(dtype=float) if task == "reg"
         else y.to_numpy())
    return X, y, names, sources
