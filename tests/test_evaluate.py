"""Tests for holdout evaluation, splits and the AutoML substitute."""
import itertools
import time

import numpy as np
import pytest

from repro.ml.automl import automl_best_score
from repro.ml.evaluate import (Evaluator, accuracy, holdout_score, mae,
                               make_estimator, train_test_split)


class TestSplit:
    def test_disjoint_and_complete(self):
        tr, te = train_test_split(100, seed=0)
        assert len(set(tr) & set(te)) == 0
        assert len(tr) + len(te) == 100
        assert len(te) == 25

    def test_deterministic(self):
        a = train_test_split(50, seed=3)
        b = train_test_split(50, seed=3)
        np.testing.assert_array_equal(a[0], b[0])

    def test_seed_changes_split(self):
        a = train_test_split(50, seed=1)[1]
        b = train_test_split(50, seed=2)[1]
        assert not np.array_equal(a, b)

    def test_stratified_keeps_label_ratio(self):
        y = np.array([0] * 80 + [1] * 20)
        tr, te = train_test_split(100, seed=0, y=y)
        assert (y[te] == 1).sum() == 5
        assert (y[te] == 0).sum() == 20

    def test_stratified_minimum_one_per_class(self):
        y = np.array([0] * 97 + [1] * 3)
        _, te = train_test_split(100, seed=0, y=y)
        assert (y[te] == 1).sum() >= 1


class TestMetrics:
    def test_accuracy(self):
        assert accuracy(np.array([1, 1, 0]), np.array([1, 0, 0])) == pytest.approx(2 / 3)

    def test_mae(self):
        assert mae(np.array([1.0, 2.0]), np.array([2.0, 4.0])) == pytest.approx(1.5)


class TestEvaluator:
    @pytest.fixture(scope="class")
    def data(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(300, 8))
        y = 2 * X[:, 0] + 0.1 * rng.normal(size=300)
        return X, y

    def test_signal_beats_noise_subset(self, data):
        X, y = data
        ev = Evaluator(X, y, "reg", seed=0)
        assert ev.score([0]) > ev.score([5])

    def test_empty_subset_is_constant_predictor(self, data):
        X, y = data
        ev = Evaluator(X, y, "reg", seed=0)
        s = ev.score([])
        te = ev.te
        assert s == pytest.approx(-np.abs(y[te] - y[ev.tr].mean()).mean())

    def test_empty_subset_cls_majority(self):
        rng = np.random.default_rng(0)
        y = np.array([0] * 70 + [1] * 30)
        ev = Evaluator(rng.normal(size=(100, 2)), y, "cls", seed=0)
        assert ev.score([]) > 0.5

    def test_eval_counter(self, data):
        X, y = data
        ev = Evaluator(X, y, "reg", seed=0)
        ev.score([0])
        ev.score([0, 1])
        ev.score([])  # constant predictor: no model fit
        assert ev.n_evals == 2

    def test_score_deterministic(self, data):
        X, y = data
        ev = Evaluator(X, y, "reg", seed=0)
        assert ev.score([0, 1]) == ev.score([0, 1])


class TestHoldout:
    def test_holdout_score_reg(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(300, 5))
        y = X[:, 0] * 3
        s = holdout_score(X, y, "reg", make_estimator("reg", n_trees=20))
        assert -s < np.abs(y - y.mean()).mean()

    def test_holdout_score_cls(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(300, 5))
        y = (X[:, 0] > 0).astype(int)
        s = holdout_score(X, y, "cls", make_estimator("cls", n_trees=20))
        assert s > 0.8


class TestAutoML:
    def test_beats_predicting_the_mean(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(250, 6))
        y = 2 * X[:, 0] - X[:, 1] + 0.1 * rng.normal(size=250)
        score = automl_best_score(X, y, "reg", 0)
        assert -score < np.abs(y - y.mean()).mean()

    def test_cls_path(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(250, 6))
        y = (X[:, 0] > 0).astype(int)
        assert automl_best_score(X, y, "cls", 0) > 0.7

    def test_deterministic_in_seed(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(150, 4))
        y = X[:, 0]
        assert automl_best_score(X, y, "reg", 5) == automl_best_score(X, y, "reg", 5)

    def test_stops_on_trial_cap_not_clock(self, monkeypatch):
        # a clock that advances an hour per read must not cut the search short
        rng = np.random.default_rng(3)
        X = rng.normal(size=(150, 4))
        y = X[:, 0] - X[:, 2]
        expected = automl_best_score(X, y, "reg", 0)
        hours = itertools.count(step=3600.0)
        monkeypatch.setattr(time, "perf_counter", lambda: next(hours))
        assert automl_best_score(X, y, "reg", 0) == expected
