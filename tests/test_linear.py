"""Unit tests for the numpy linear-model substrate."""
import numpy as np
import pytest

from repro.ml import linear
from repro.ml.linear import Lasso, LinearSVC, LogisticRegression, Ridge, Standardizer


@pytest.fixture(scope="module")
def lin_data():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(400, 10))
    y = 2.0 * X[:, 0] - 1.5 * X[:, 1] + 0.1 * rng.normal(size=400)
    return X, y


@pytest.fixture(scope="module")
def cls_data():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(400, 10))
    y = (1.5 * X[:, 0] - X[:, 1] + 0.3 * rng.normal(size=400) > 0).astype(int)
    return X, y


class TestStandardizer:
    def test_zero_mean_unit_var(self):
        rng = np.random.default_rng(0)
        X = rng.normal(3, 5, size=(300, 4))
        Z = Standardizer().fit_transform(X)
        np.testing.assert_allclose(Z.mean(axis=0), 0, atol=1e-9)
        np.testing.assert_allclose(Z.std(axis=0), 1, atol=1e-9)

    def test_constant_column_safe(self):
        X = np.ones((10, 2))
        Z = Standardizer().fit_transform(X)
        assert np.isfinite(Z).all()

    def test_transform_uses_fit_stats(self):
        sc = Standardizer().fit(np.arange(10, dtype=float)[:, None])
        out = sc.transform(np.array([[4.5]]))
        assert out[0, 0] == pytest.approx(0.0)


class TestRidge:
    def test_recovers_coefficients(self, lin_data):
        X, y = lin_data
        m = Ridge(alpha=0.01).fit(X, y)
        # coefficients are on the standardized scale: beta_j * std_j
        expect = np.zeros(10)
        expect[0], expect[1] = 2.0 * X[:, 0].std(), -1.5 * X[:, 1].std()
        np.testing.assert_allclose(m.coef_, expect, atol=0.05)

    def test_predict_close(self, lin_data):
        X, y = lin_data
        m = Ridge(alpha=0.1).fit(X, y)
        assert np.abs(m.predict(X) - y).mean() < 0.15

    def test_heavy_regularization_shrinks(self, lin_data):
        X, y = lin_data
        small = Ridge(alpha=0.01).fit(X, y).coef_
        big = Ridge(alpha=1e4).fit(X, y).coef_
        assert np.abs(big).sum() < np.abs(small).sum()


class TestLasso:
    def test_sparsity(self, lin_data):
        X, y = lin_data
        m = Lasso(alpha=0.1).fit(X, y)
        nnz = (np.abs(m.coef_) > 1e-8).sum()
        assert nnz <= 4
        assert set(np.argsort(np.abs(m.coef_))[::-1][:2]) == {0, 1}

    def test_alpha_zero_close_to_ols(self, lin_data, monkeypatch):
        X, y = lin_data
        monkeypatch.setattr(linear, "_LASSO_MAX_ITER", 2000)
        m = Lasso(alpha=1e-6).fit(X, y)
        r = Ridge(alpha=1e-6).fit(X, y)
        np.testing.assert_allclose(m.coef_, r.coef_, atol=0.02)

    def test_huge_alpha_all_zero(self, lin_data):
        X, y = lin_data
        m = Lasso(alpha=1e3).fit(X, y)
        np.testing.assert_allclose(m.coef_, 0.0)

    def test_predict_shape(self, lin_data):
        X, y = lin_data
        assert Lasso(alpha=0.01).fit(X, y).predict(X[:7]).shape == (7,)


class TestLogisticRegression:
    def test_binary_accuracy(self, cls_data):
        X, y = cls_data
        m = LogisticRegression().fit(X, y)
        assert (m.predict(X) == y).mean() > 0.9

    def test_coef_shape(self, cls_data):
        X, y = cls_data
        m = LogisticRegression().fit(X, y)
        assert m.coef_.shape == (2, 10)

    def test_signal_columns_have_largest_weights(self, cls_data):
        X, y = cls_data
        m = LogisticRegression().fit(X, y)
        w = np.linalg.norm(m.coef_, axis=0)
        assert set(np.argsort(w)[::-1][:2]) == {0, 1}

    def test_multiclass(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(600, 5))
        y = np.digitize(X[:, 0] + 0.3 * X[:, 1], [-0.6, 0.6])
        m = LogisticRegression().fit(X, y)
        assert (m.predict(X) == y).mean() > 0.8

    def test_string_labels(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(200, 3))
        y = np.where(X[:, 0] > 0, "pos", "neg")
        m = LogisticRegression().fit(X, y)
        assert set(m.predict(X)) <= {"pos", "neg"}


class TestLinearSVC:
    def test_binary_accuracy(self, cls_data):
        X, y = cls_data
        m = LinearSVC().fit(X, y)
        assert (m.predict(X) == y).mean() > 0.9

    def test_signal_weights(self, cls_data):
        X, y = cls_data
        m = LinearSVC().fit(X, y)
        w = np.linalg.norm(m.coef_, axis=0)
        assert set(np.argsort(w)[::-1][:2]) == {0, 1}

    def test_multiclass(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(600, 5))
        y = np.digitize(X[:, 0], [-0.6, 0.6])
        m = LinearSVC().fit(X, y)
        assert (m.predict(X) == y).mean() > 0.75

    def test_correlated_columns_stay_finite(self):
        # 200 near-copies of one column: 2||[Xs, 1]||^2 / n is about 400,
        # so a fixed 0.2 step diverges; the 1/L step must not
        rng = np.random.default_rng(0)
        z = rng.normal(size=(120, 1))
        X = z + 0.05 * rng.normal(size=(120, 200))
        y = (z[:, 0] + 0.9 * rng.normal(size=120) > 0).astype(int)
        m = LinearSVC().fit(X, y)
        assert np.isfinite(m.coef_).all() and np.isfinite(m.intercept_).all()
        assert (m.predict(X) == y).mean() > 0.6
