"""Holdout evaluation for ARDA's learning loops.

The paper reports accuracy for classification and a *scaled Mean Absolute
Error* for regression. Internally every search (RIFS Alg. 3, exponential
search, wrappers, AutoML) needs a single "higher is better" score, so
regression scores are negated MAE.

``make_estimator`` builds the paper's default fixed estimator: a lightly
auto-optimized Random Forest (§7 — "lightly auto-optimized Random Forest
model for classification and regression tasks").
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ml.forest import RandomForest

__all__ = ["train_test_split", "holdout_score", "Evaluator", "make_estimator",
           "accuracy", "mae"]

_TEST_FRAC = 0.25  # holdout share of every split


def train_test_split(n: int, seed: int = 0, y=None) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic index split; stratified per label when ``y`` is given."""
    rng = np.random.default_rng(seed)
    if y is not None:
        y = np.asarray(y)
        test_idx = []
        for c in np.unique(y):
            idx = np.nonzero(y == c)[0]
            idx = rng.permutation(idx)
            k = max(1, int(round(_TEST_FRAC * len(idx))))
            test_idx.append(idx[:k])
        test = np.sort(np.concatenate(test_idx))
    else:
        perm = rng.permutation(n)
        test = np.sort(perm[: max(1, int(round(_TEST_FRAC * n)))])
    mask = np.zeros(n, dtype=bool)
    mask[test] = True
    return np.nonzero(~mask)[0], test


def accuracy(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    return float(np.mean(np.asarray(y_true) == np.asarray(y_pred)))


def mae(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    return float(np.mean(np.abs(np.asarray(y_true, dtype=float) - np.asarray(y_pred, dtype=float))))


def make_estimator(task: str, seed: int = 0, n_trees: int = 60,
                   max_depth: int = 10) -> RandomForest:
    return RandomForest(task=task, n_trees=n_trees, max_depth=max_depth,
                        min_samples_leaf=3, seed=seed)


@dataclass
class Evaluator:
    """Caches one train/holdout split of (X, y) and scores feature subsets.

    ``score(cols)`` returns a higher-is-better number: accuracy for
    classification, -MAE for regression. This is the eval function every
    selector's search loop consumes; ``n_evals`` counts model trainings
    (used to bound wrapper costs in tests).
    """

    X: np.ndarray
    y: np.ndarray
    task: str
    seed: int = 0
    n_trees: int = 30
    max_depth: int = 8
    n_evals: int = 0

    def __post_init__(self) -> None:
        strat = self.y if self.task == "cls" else None
        self.tr, self.te = train_test_split(len(self.y), self.seed, strat)

    def score(self, cols) -> float:
        cols = np.asarray(cols, dtype=int)
        if cols.size == 0:
            # No features: predict the training majority/mean.
            if self.task == "cls":
                vals, cnt = np.unique(self.y[self.tr], return_counts=True)
                pred = np.full(len(self.te), vals[np.argmax(cnt)])
                return accuracy(self.y[self.te], pred)
            pred = np.full(len(self.te), float(np.mean(self.y[self.tr])))
            return -mae(self.y[self.te], pred)
        self.n_evals += 1
        model = RandomForest(task=self.task, n_trees=self.n_trees,
                             max_depth=self.max_depth, seed=self.seed)
        return holdout_score(self.X[:, cols], self.y, self.task, model, self.seed)


def holdout_score(X: np.ndarray, y: np.ndarray, task: str, model,
                  seed: int = 0) -> float:
    """Fit ``model`` on a split and return accuracy / -MAE on the holdout."""
    strat = y if task == "cls" else None
    tr, te = train_test_split(len(y), seed, strat)
    model.fit(X[tr], y[tr])
    pred = model.predict(X[te])
    return accuracy(y[te], pred) if task == "cls" else -mae(y[te], pred)
