"""Feature-matrix assembly: Spark/pandas DataFrame -> numpy (X, y, names).

ARDA "binarizes categorical features into a set of numerical features"
(§3.1) before sketching / feature selection; this module is that step.
Datetime columns are expanded into numeric calendar components instead of
being dropped, since time often carries signal in the paper's scenarios.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd

__all__ = ["FeatureEncoder", "assemble"]

_MAX_ONEHOT = 20


@dataclass
class FeatureEncoder:
    """Fit on one table, re-apply to another with identical columns.

    Numerics pass through (median-imputed); categoricals one-hot encode
    their ``<= _MAX_ONEHOT`` most frequent values (rest fall into no
    column, i.e. an implicit "other" of all-zeros); datetimes expand to
    (epoch-days, month, dayofweek, hour). ``sources_[j]`` is the raw column
    feature ``j`` encodes, so callers never parse feature names.
    """

    target: str
    numeric_cols: list[str] = field(default_factory=list)
    cat_maps: dict[str, list] = field(default_factory=dict)
    dt_cols: list[str] = field(default_factory=list)
    medians: dict[str, float] = field(default_factory=dict)
    feature_names_: list[str] = field(default_factory=list)
    sources_: list[str] = field(default_factory=list)  # raw column per feature

    def fit(self, pdf: pd.DataFrame) -> "FeatureEncoder":
        names: list[str] = []
        sources: list[str] = []
        for col in pdf.columns:
            if col == self.target:
                continue
            s = pdf[col]
            if pd.api.types.is_datetime64_any_dtype(s):
                self.dt_cols.append(col)
                new = [f"{col}__epoch", f"{col}__month", f"{col}__dow", f"{col}__hour"]
            elif pd.api.types.is_numeric_dtype(s) or pd.api.types.is_bool_dtype(s):
                self.numeric_cols.append(col)
                med = float(pd.to_numeric(s, errors="coerce").median())
                self.medians[col] = 0.0 if np.isnan(med) else med
                new = [col]
            else:
                top = s.astype("string").value_counts().index[:_MAX_ONEHOT].tolist()
                self.cat_maps[col] = top
                new = [f"{col}=={v}" for v in top]
            names += new
            sources += [col] * len(new)
        self.feature_names_ = names
        self.sources_ = sources
        return self

    def transform(self, pdf: pd.DataFrame) -> np.ndarray:
        blocks: list[np.ndarray] = []
        for col in pdf.columns:
            if col == self.target:
                continue
            if col in self.dt_cols:
                s = pd.to_datetime(pdf[col])
                epoch = s.astype("int64").to_numpy().astype(float) / 86_400e9
                epoch = np.where(s.isna().to_numpy(), 0.0, epoch)
                blocks.append(np.column_stack([
                    epoch,
                    s.dt.month.fillna(0).to_numpy(dtype=float),
                    s.dt.dayofweek.fillna(0).to_numpy(dtype=float),
                    s.dt.hour.fillna(0).to_numpy(dtype=float),
                ]))
            elif col in self.numeric_cols:
                v = pd.to_numeric(pdf[col], errors="coerce").to_numpy(dtype=float)
                blocks.append(np.nan_to_num(v, nan=self.medians[col])[:, None])
            elif col in self.cat_maps:
                sv = pdf[col].astype("string")
                blocks.append(np.column_stack(
                    [(sv == v).fillna(False).to_numpy(dtype=float) for v in self.cat_maps[col]]
                ) if self.cat_maps[col] else np.zeros((len(pdf), 0)))
        X = np.hstack(blocks) if blocks else np.zeros((len(pdf), 0))
        assert X.shape[1] == len(self.feature_names_), (
            f"{X.shape[1]} cols vs {len(self.feature_names_)} names — "
            "transform() input must have the fit() columns"
        )
        return X

    def target_values(self, pdf: pd.DataFrame, task: str) -> np.ndarray:
        y = pdf[self.target]
        if task == "reg":
            return pd.to_numeric(y, errors="coerce").to_numpy(dtype=float)
        return y.to_numpy()


def assemble(df, target: str, task: str) -> tuple[np.ndarray, np.ndarray, list[str], FeatureEncoder]:
    """Collect a Spark (or accept a pandas) DataFrame and encode it.

    Returns ``(X, y, feature_names, encoder)``. The encoder can re-encode
    another table with the same schema (e.g. the full base table after
    selection ran on the coreset).
    """
    pdf = df if isinstance(df, pd.DataFrame) else df.toPandas()
    enc = FeatureEncoder(target=target).fit(pdf)
    X = enc.transform(pdf)
    y = enc.target_values(pdf, task)
    return X, y, enc.feature_names_, enc
