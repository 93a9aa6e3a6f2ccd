"""Tests for embedded rankers, sparse regression (ℓ2,1), Relief, wrappers
and the ranker table."""
import numpy as np
import pytest

from repro.ml.evaluate import Evaluator
from repro.selectors import RANKERS, applicable, rank_scores
from repro.selectors.embedded import (lasso_scores, logistic_scores,
                                      random_forest_scores, svc_scores)
from repro.selectors.relief import relief_scores
from repro.selectors.sparse_regression import (l21_loss, l21_solve,
                                               sparse_regression_scores)
from repro.selectors.wrappers import backward_elimination, forward_selection, rfe


@pytest.fixture(scope="module")
def reg_data():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(400, 30))
    y = 2 * X[:, 0] - 1.5 * X[:, 1] + X[:, 2] + 0.2 * rng.normal(size=400)
    return X, y


@pytest.fixture(scope="module")
def cls_data():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(400, 30))
    y = (1.5 * X[:, 0] - X[:, 1] + 0.3 * rng.normal(size=400) > 0).astype(int)
    return X, y


class TestRegistry:
    def test_all_expected_rankers_registered(self):
        expect = {"f_test", "mutual_info", "random_forest", "lasso",
                  "logistic_reg", "linear_svc", "sparse_regression", "relief"}
        assert expect <= set(RANKERS)

    def test_unknown_ranker_raises(self, reg_data):
        X, y = reg_data
        with pytest.raises(KeyError):
            rank_scores("nope", X, y, "reg")

    def test_applicability_matrix(self):
        assert not applicable("lasso", "cls")
        assert applicable("lasso", "reg")
        assert not applicable("logistic_reg", "reg")
        assert not applicable("linear_svc", "reg")
        assert applicable("linear_svc", "cls")
        assert applicable("f_test", "reg") and applicable("f_test", "cls")

    def test_task_guards_raise(self, reg_data, cls_data):
        with pytest.raises(ValueError):
            rank_scores("lasso", cls_data[0], cls_data[1], "cls")
        with pytest.raises(ValueError):
            rank_scores("logistic_reg", reg_data[0], reg_data[1], "reg")
        with pytest.raises(ValueError):
            rank_scores("linear_svc", reg_data[0], reg_data[1], "reg")

    @pytest.mark.parametrize("name", ["f_test", "mutual_info", "random_forest",
                                      "sparse_regression", "relief", "lasso"])
    def test_reg_rankers_find_signal(self, name, reg_data):
        X, y = reg_data
        s = rank_scores(name, X, y, "reg")
        assert s.shape == (30,)
        top5 = set(np.argsort(s)[::-1][:5])
        assert {0, 1} <= top5

    @pytest.mark.parametrize("name", ["f_test", "mutual_info", "random_forest",
                                      "sparse_regression", "relief",
                                      "logistic_reg", "linear_svc"])
    def test_cls_rankers_find_signal(self, name, cls_data):
        X, y = cls_data
        s = rank_scores(name, X, y, "cls")
        top5 = set(np.argsort(s)[::-1][:5])
        assert {0, 1} <= top5


class TestSparseRegression:
    def test_irls_decreases_loss(self, reg_data):
        X, y = reg_data
        Y = (y - y.mean())[:, None]
        W0 = np.zeros((30, 1))
        W = l21_solve(X, Y, gamma=0.5)
        assert l21_loss(X, Y, W, 0.5) < l21_loss(X, Y, W0, 0.5)

    def test_support_recovery(self, reg_data):
        X, y = reg_data
        s = sparse_regression_scores(X, y, "reg", gamma=0.5)
        assert set(np.argsort(s)[::-1][:3]) == {0, 1, 2}

    def test_large_gamma_shrinks_rows(self, reg_data):
        X, y = reg_data
        s_small = sparse_regression_scores(X, y, "reg", gamma=0.01)
        s_big = sparse_regression_scores(X, y, "reg", gamma=50.0)
        assert s_big.sum() < s_small.sum()

    def test_multiclass_targets(self, cls_data):
        X, y = cls_data
        s = sparse_regression_scores(X, y, "cls")
        assert s.shape == (30,) and np.argmax(s) in (0, 1)


class TestRelief:
    def test_redundant_vs_noisy(self):
        # Classic Relief property: a feature correlated with the label wins
        # over pure noise even when another correlated feature exists.
        rng = np.random.default_rng(5)
        y = rng.integers(0, 2, 400)
        X = np.column_stack([
            y + 0.3 * rng.normal(size=400),
            y + 0.3 * rng.normal(size=400),
            rng.normal(size=400),
            rng.normal(size=400),
        ])
        w = relief_scores(X, y, "cls", seed=0)
        assert min(w[0], w[1]) > max(w[2], w[3])

    def test_sample_size_cap(self, cls_data):
        X, y = cls_data
        w = relief_scores(X, y, "cls", seed=0, sample_size=50)
        assert w.shape == (30,)

    def test_regression_variant(self, reg_data):
        X, y = reg_data
        w = relief_scores(X, y, "reg", seed=0)
        assert {0, 1} <= set(np.argsort(w)[::-1][:5])

    def test_deterministic(self, cls_data):
        X, y = cls_data
        a = relief_scores(X, y, "cls", seed=2)
        b = relief_scores(X, y, "cls", seed=2)
        np.testing.assert_array_equal(a, b)


class TestWrappers:
    def test_forward_picks_signal(self, reg_data):
        X, y = reg_data
        ev = Evaluator(X, y, "reg", seed=0, n_trees=15)
        sel = forward_selection(ev, max_features=6)
        assert {0, 1} <= set(sel.tolist())
        assert ev.n_evals > 10

    def test_forward_candidate_pool(self, reg_data):
        X, y = reg_data
        ev = Evaluator(X, y, "reg", seed=0, n_trees=10)
        sel = forward_selection(ev, max_features=4, candidate_pool=8)
        assert len(sel) <= 4

    def test_backward_keeps_signal(self, reg_data):
        X, y = reg_data
        ev = Evaluator(X[:, :10], y, "reg", seed=0, n_trees=10)
        sel = backward_elimination(ev, max_rounds=6)
        assert {0, 1} <= set(sel.tolist())

    def test_rfe_keeps_signal(self, reg_data):
        X, y = reg_data
        ev = Evaluator(X, y, "reg", seed=0, n_trees=10)
        sel = rfe(ev)
        assert {0, 1} <= set(sel.tolist())

    def test_rfe_shrinks(self, reg_data):
        X, y = reg_data
        ev = Evaluator(X, y, "reg", seed=0, n_trees=10)
        sel = rfe(ev)
        assert len(sel) < 30

    def test_results_sorted_and_unique(self, cls_data):
        X, y = cls_data
        ev = Evaluator(X[:, :12], y, "cls", seed=0, n_trees=10)
        sel = forward_selection(ev, max_features=5).tolist()
        assert sel == sorted(set(sel))
