"""The ranker registry used by jobs and ARDA.

Paper §7 distinguishes *ranking* methods (random forest, sparse
regression, mutual info, logistic regression, lasso, relief, linear SVM,
f-test) — which produce per-feature scores that are then cut with the
exponential doubling + binary search of §6.3 — from *wrapper* methods
(forward/backward selection, RFE) that drive the model loop themselves,
and from RIFS. ``rank_scores`` runs a registered ranker; every selector
returns the sorted indices of the columns it keeps.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["RANKERS", "register_ranker", "rank_scores", "applicable"]

# name -> callable(X, y, task, seed) -> scores (len d, higher = better)
RANKERS: dict[str, Callable] = {}


def register_ranker(name: str):
    def deco(fn):
        RANKERS[name] = fn
        return fn
    return deco


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
