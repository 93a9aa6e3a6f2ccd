"""Embedded-model rankers: random forest, lasso, logistic regression, SVC.

Scores are importances (forest) or coefficient magnitudes on standardized
features (linear models, column L2 norm across classes) — the quantities
the paper's exponential search cuts into a feature subset.
"""
from __future__ import annotations

import numpy as np

from repro.ml.forest import RandomForest
from repro.ml.linear import Lasso, LinearSVC, LogisticRegression

__all__ = ["random_forest_scores", "lasso_scores", "logistic_scores", "svc_scores"]

_RF_TREES = 40  # forest ranker, also the wrappers' and RIFS's importance model
_RF_DEPTH = 8
_LASSO_ALPHA = 0.01  # L1 weight of the lasso ranker


def random_forest_scores(X: np.ndarray, y: np.ndarray, task: str,
                         seed: int = 0) -> np.ndarray:
    rf = RandomForest(task=task, n_trees=_RF_TREES, max_depth=_RF_DEPTH,
                      min_samples_leaf=3, seed=seed)
    return rf.fit(X, y).feature_importances_


def lasso_scores(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.abs(Lasso(alpha=_LASSO_ALPHA).fit(X, y).coef_)


def logistic_scores(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    m = LogisticRegression().fit(X, y)
    return np.linalg.norm(m.coef_, axis=0)


def svc_scores(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    m = LinearSVC().fit(X, y)
    return np.linalg.norm(m.coef_, axis=0)
