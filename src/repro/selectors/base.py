"""The ranker table used by jobs and ARDA.

Paper §7 distinguishes *ranking* methods (random forest, sparse
regression, mutual info, logistic regression, lasso, relief, linear SVM,
f-test) — which produce per-feature scores that are then cut with the
exponential doubling + binary search of §6.3 — from *wrapper* methods
(forward/backward selection, RFE) that drive the model loop themselves,
and from RIFS. ``rank_scores`` runs a ranker of the ``RANKERS`` table;
every selector returns the sorted indices of the columns it keeps.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from repro.selectors.embedded import (lasso_scores, logistic_scores,
                                      random_forest_scores, svc_scores)
from repro.selectors.filters import f_scores, mutual_info_scores
from repro.selectors.relief import relief_scores
from repro.selectors.sparse_regression import sparse_regression_scores

__all__ = ["RANKERS", "rank_scores", "applicable"]

# name -> callable(X, y, task, seed) -> scores (len d, higher = better)
RANKERS: dict[str, Callable] = {
    "random_forest": random_forest_scores,
    "lasso": lambda X, y, task, seed: lasso_scores(X, y),
    "logistic_reg": lambda X, y, task, seed: logistic_scores(X, y),
    "linear_svc": lambda X, y, task, seed: svc_scores(X, y),
    "f_test": lambda X, y, task, seed: f_scores(X, y, task),
    "mutual_info": lambda X, y, task, seed: mutual_info_scores(X, y, task),
    "relief": relief_scores,
    "sparse_regression": lambda X, y, task, seed: sparse_regression_scores(X, y, task),
}


def rank_scores(name: str, X: np.ndarray, y: np.ndarray, task: str, seed: int = 0) -> np.ndarray:
    if name not in RANKERS:
        raise KeyError(f"unknown ranker {name!r}; have {sorted(RANKERS)}")
    if not applicable(name, task):
        raise ValueError(f"ranker {name!r} is n/a for task {task!r}")
    s = np.asarray(RANKERS[name](X, y, task, seed), dtype=float)
    if s.shape != (X.shape[1],):
        raise ValueError(f"ranker {name} returned shape {s.shape} for d={X.shape[1]}")
    return np.nan_to_num(s, nan=-np.inf)


def applicable(name: str, task: str) -> bool:
    """Paper Table 1 marks lasso n/a on classification and logistic
    regression / linear SVC n/a on regression; mirror that."""
    if task == "cls":
        return name != "lasso"
    return name not in ("logistic_reg", "linear_svc")
