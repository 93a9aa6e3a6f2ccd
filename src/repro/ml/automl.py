"""Random-search AutoML — the Azure AutoML / Alpine Meadow stand-in.

The paper uses hour-budget commercial AutoML systems as comparator
estimators (Table 1/6 rows "Azure AutoML", "Alpine Meadow"). Those are
closed services; per DESIGN.md §2 we substitute a random search of
``_MAX_TRIALS`` configurations over our own model zoo (random forests of
varying capacity + linear models) with holdout model selection — the same
interface: data in, best-found model's holdout score out. The search
stops on its trial count, never on a clock, so a fixed seed gives the
same score on any machine.
"""
from __future__ import annotations

import numpy as np

from repro.ml.evaluate import holdout_score
from repro.ml.forest import RandomForest
from repro.ml.linear import Lasso, LinearSVC, LogisticRegression, Ridge

__all__ = ["automl_best_score"]

_MAX_TRIALS = 24  # configurations scored per search


def _candidates(task: str, rng: np.random.Generator):
    """Yield an endless stream of model configurations."""
    while True:
        kind = rng.choice(["rf", "rf", "rf", "linear"])  # forest-heavy, like AML leaderboards
        if kind == "rf":
            nt = int(rng.choice([20, 40, 60, 80]))
            md = int(rng.choice([4, 6, 8, 10, 12]))
            msl = int(rng.choice([1, 3, 5]))
            yield RandomForest(task=task, n_trees=nt, max_depth=md,
                               min_samples_leaf=msl, seed=int(rng.integers(1e6)))
        elif task == "reg":
            if rng.random() < 0.5:
                yield Ridge(alpha=float(rng.choice([0.1, 1.0, 10.0])))
            else:
                yield Lasso(alpha=float(rng.choice([0.001, 0.01, 0.1])))
        else:
            if rng.random() < 0.5:
                yield LogisticRegression(C=float(rng.choice([0.1, 1.0, 10.0])))
            else:
                yield LinearSVC(C=float(rng.choice([0.1, 1.0, 10.0])))


def automl_best_score(X: np.ndarray, y: np.ndarray, task: str, seed: int) -> float:
    """Score ``_MAX_TRIALS`` random configurations on one holdout split and
    return the best score (accuracy, or -MAE for regression)."""
    rng = np.random.default_rng(seed)
    best, trials = -np.inf, 0
    for model in _candidates(task, rng):
        if trials == _MAX_TRIALS:
            break
        try:
            s = holdout_score(X, y, task, model, seed=seed)
        except np.linalg.LinAlgError:  # singular closed-form solve on degenerate X
            continue
        trials += 1
        best = max(best, s)
    return float(best)
