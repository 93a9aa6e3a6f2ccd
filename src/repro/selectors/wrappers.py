"""Wrapper-model selectors: forward selection, backward elimination, RFE.

These drive the learning model directly (paper §5): forward selection
greedily adds the feature whose addition most improves holdout score,
backward elimination greedily removes, and RFE repeatedly drops the
lowest-importance fraction using the Random-Forest ranker (the paper uses
the RF ranker for all three, §7). They are the slow-but-strong baselines
of Tables 1 and 6 — cost is O(d) model fits per step.
"""
from __future__ import annotations

import numpy as np

from repro.ml.evaluate import Evaluator
from repro.selectors.embedded import random_forest_scores

__all__ = ["forward_selection", "backward_elimination", "rfe"]

_PATIENCE = 2  # forward selection: non-improving adds before it stops
_MAX_START = 48  # backward elimination: RF-ranked features it starts from
_DROP_FRAC = 0.5  # RFE: share of the surviving features dropped per round
_MIN_FEATURES = 2  # backward elimination and RFE never go below this
_MAX_ROUNDS = 12  # backward elimination: elimination rounds at most


def forward_selection(ev: Evaluator, max_features: int = 24,
                      candidate_pool: int | None = 64) -> np.ndarray:
    """Greedy add; stop after ``_PATIENCE`` consecutive non-improving adds.

    ``candidate_pool`` pre-truncates the search to the top-N RF-ranked
    features when d is large — the literal O(d) scan per add is what makes
    the paper's forward-selection runtimes hit 10^4–10^5 seconds; capping
    the pool preserves the method's behaviour (greedy, model-driven,
    slowest-but-strong) at container scale.
    """
    d = ev.X.shape[1]
    if candidate_pool is not None and d > candidate_pool:
        imp = random_forest_scores(ev.X, ev.y, ev.task, ev.seed)
        remaining = list(np.argsort(imp)[::-1][:candidate_pool])
    else:
        remaining = list(range(d))
    chosen: list[int] = []
    best_total = ev.score([])
    best_set = []
    bad = 0
    while remaining and len(chosen) < max_features and bad < _PATIENCE:
        scores = [(ev.score(chosen + [j]), j) for j in remaining]
        s, j = max(scores)
        chosen.append(j)
        remaining.remove(j)
        if s > best_total:
            best_total, best_set, bad = s, list(chosen), 0
        else:
            bad += 1
    return np.array(sorted(best_set), dtype=int)


def backward_elimination(ev: Evaluator) -> np.ndarray:
    """Greedy remove, starting from the top-``_MAX_START`` RF-ranked features
    (a full backward pass over hundreds of features is quadratic in model
    fits; the paper's own runtimes show this is the most expensive method).
    ``_MAX_ROUNDS`` bounds the elimination rounds at container scale."""
    d = ev.X.shape[1]
    if d > _MAX_START:
        imp = random_forest_scores(ev.X, ev.y, ev.task, ev.seed)
        current = list(np.argsort(imp)[::-1][:_MAX_START])
    else:
        current = list(range(d))
    best_total = ev.score(current)
    best_set = list(current)
    improved, rounds = True, 0
    while improved and len(current) > _MIN_FEATURES and rounds < _MAX_ROUNDS:
        improved = False
        rounds += 1
        scores = [(ev.score([c for c in current if c != j]), j) for j in current]
        s, j = max(scores)
        if s >= best_total:
            current.remove(j)
            best_total, best_set, improved = s, list(current), True
    return np.array(sorted(best_set), dtype=int)


def rfe(ev: Evaluator) -> np.ndarray:
    """Recursive feature elimination: refit the RF ranker on the surviving
    set, drop the weakest ``_DROP_FRAC``, keep the best holdout subset."""
    current = np.arange(ev.X.shape[1])
    best_total, best_set = -np.inf, current
    while len(current) >= _MIN_FEATURES:
        s = ev.score(current)
        if s > best_total:
            best_total, best_set = s, current.copy()
        if len(current) == _MIN_FEATURES:
            break
        imp = random_forest_scores(ev.X[:, current], ev.y, ev.task, ev.seed)
        keep = max(_MIN_FEATURES, int(len(current) * (1 - _DROP_FRAC)))
        current = current[np.argsort(imp)[::-1][:keep]]
    return np.sort(best_set).astype(int)
