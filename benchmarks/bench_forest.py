"""Layer micro-benchmark: one random-forest fit at n=768, d=200.

The shape is a Taxi budget batch (768-row coreset, ~200 joined features),
fitted with the settings of the RIFS random-forest ranker. Every ARDA
stage reduces to ``RandomForest.fit``, so this times the kernel under
selection and the final estimate. Needs no Spark.
"""
import numpy as np
import pytest

from repro.ml.forest import RandomForest

N, D = 768, 200


def _data(task: str):
    rng = np.random.default_rng(0)
    X = rng.normal(size=(N, D))
    signal = X[:, 0] - 0.7 * X[:, 1] + 0.5 * X[:, 2] * X[:, 3] + 0.3 * rng.normal(size=N)
    return X, (signal > 0).astype(int) if task == "cls" else signal


@pytest.mark.benchmark(group="forest")
@pytest.mark.parametrize("task", ["cls", "reg"])
def test_forest_fit(benchmark, task):
    X, y = _data(task)
    rf = RandomForest(task=task, n_trees=20, max_depth=8, min_samples_leaf=3, seed=0)
    benchmark(rf.fit, X, y)
    assert len(rf.trees) == 20
    assert rf.feature_importances_[:4].sum() > 0.2  # 4 of 200 features carry the signal
