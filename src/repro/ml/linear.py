"""Linear models implemented in numpy (no sklearn/scipy in the container).

These back both ARDA baselines (lasso / logistic-regression / linear-SVC
feature rankers, §7) and internals (ridge for two-way-NN sanity tests,
AutoML candidates). Every model standardizes features internally so the
coefficient magnitudes are comparable across features — that is what the
rankers consume.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Standardizer", "Ridge", "Lasso", "LogisticRegression", "LinearSVC"]

_LASSO_TOL = 1e-6  # FISTA stops when no coefficient moves by more
_LASSO_MAX_ITER = 400  # FISTA steps at most
# Full-batch gradient descent: steps and step size per classifier.
_GD_ITERS = 300
_LOGREG_LR = 0.5
_SVC_LR = 0.2  # LinearSVC's step, capped at 1/L


@dataclass
class Standardizer:
    """Column-wise (x - mean) / std with constant-column protection."""

    mean_: np.ndarray | None = None
    std_: np.ndarray | None = None

    def fit(self, X: np.ndarray) -> "Standardizer":
        self.mean_ = X.mean(axis=0)
        std = X.std(axis=0)
        self.std_ = np.where(std < 1e-12, 1.0, std)
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        return (X - self.mean_) / self.std_

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        return self.fit(X).transform(X)


@dataclass
class Ridge:
    """Closed-form L2-regularized least squares on standardized features."""

    alpha: float = 1.0
    coef_: np.ndarray | None = None
    intercept_: float = 0.0
    _sc: Standardizer = field(default_factory=Standardizer, repr=False)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "Ridge":
        Xs = self._sc.fit_transform(np.asarray(X, dtype=np.float64))
        y = np.asarray(y, dtype=np.float64)
        ym = y.mean()
        d = Xs.shape[1]
        A = Xs.T @ Xs + self.alpha * np.eye(d)
        self.coef_ = np.linalg.solve(A, Xs.T @ (y - ym))
        self.intercept_ = ym
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self._sc.transform(np.asarray(X, dtype=np.float64)) @ self.coef_ + self.intercept_


@dataclass
class Lasso:
    """L1-regularized least squares via FISTA (vectorized proximal gradient).

    ``alpha`` follows the sklearn convention: minimize
    ``(1/2n)||y - Xw||^2 + alpha * ||w||_1``.
    """

    alpha: float = 0.01
    coef_: np.ndarray | None = None
    intercept_: float = 0.0
    _sc: Standardizer = field(default_factory=Standardizer, repr=False)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "Lasso":
        Xs = self._sc.fit_transform(np.asarray(X, dtype=np.float64))
        y = np.asarray(y, dtype=np.float64)
        n, d = Xs.shape
        ym = y.mean()
        yc = y - ym
        # Lipschitz constant of the gradient: largest eigenvalue of X^T X / n.
        L = float(np.linalg.norm(Xs, 2) ** 2) / n + 1e-12
        w = np.zeros(d)
        z, t = w.copy(), 1.0
        thr = self.alpha / L
        for _ in range(_LASSO_MAX_ITER):
            grad = Xs.T @ (Xs @ z - yc) / n
            w_new = z - grad / L
            w_new = np.sign(w_new) * np.maximum(np.abs(w_new) - thr, 0.0)
            t_new = (1 + np.sqrt(1 + 4 * t * t)) / 2
            z = w_new + ((t - 1) / t_new) * (w_new - w)
            if np.max(np.abs(w_new - w)) < _LASSO_TOL:
                w = w_new
                break
            w, t = w_new, t_new
        self.coef_, self.intercept_ = w, ym
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self._sc.transform(np.asarray(X, dtype=np.float64)) @ self.coef_ + self.intercept_


def _one_hot(y_enc: np.ndarray, n_classes: int) -> np.ndarray:
    Y = np.zeros((len(y_enc), n_classes))
    Y[np.arange(len(y_enc)), y_enc] = 1.0
    return Y


@dataclass
class LogisticRegression:
    """Multinomial (softmax) logistic regression, full-batch gradient descent.

    ``coef_`` has shape (n_classes, d); rankers use column L2 norms.
    """

    C: float = 1.0
    classes_: np.ndarray | None = None
    coef_: np.ndarray | None = None
    intercept_: np.ndarray | None = None
    _sc: Standardizer = field(default_factory=Standardizer, repr=False)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LogisticRegression":
        Xs = self._sc.fit_transform(np.asarray(X, dtype=np.float64))
        self.classes_, y_enc = np.unique(y, return_inverse=True)
        n, d = Xs.shape
        c = len(self.classes_)
        Y = _one_hot(y_enc, c)
        W = np.zeros((c, d))
        b = np.zeros(c)
        lam = 1.0 / (self.C * n)
        for _ in range(_GD_ITERS):
            Z = Xs @ W.T + b
            Z -= Z.max(axis=1, keepdims=True)
            P = np.exp(Z)
            P /= P.sum(axis=1, keepdims=True)
            G = (P - Y) / n
            W -= _LOGREG_LR * (G.T @ Xs + lam * W)
            b -= _LOGREG_LR * G.sum(axis=0)
        self.coef_, self.intercept_ = W, b
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        return self._sc.transform(np.asarray(X, dtype=np.float64)) @ self.coef_.T + self.intercept_

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.classes_[np.argmax(self.decision_function(X), axis=1)]


@dataclass
class LinearSVC:
    """One-vs-rest linear SVM with squared hinge loss, gradient descent."""

    C: float = 1.0
    classes_: np.ndarray | None = None
    coef_: np.ndarray | None = None
    intercept_: np.ndarray | None = None
    _sc: Standardizer = field(default_factory=Standardizer, repr=False)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LinearSVC":
        Xs = self._sc.fit_transform(np.asarray(X, dtype=np.float64))
        self.classes_, y_enc = np.unique(y, return_inverse=True)
        n, d = Xs.shape
        c = len(self.classes_)
        S = 2.0 * _one_hot(y_enc, c) - 1.0  # +-1 targets per class
        W = np.zeros((c, d))
        b = np.zeros(c)
        lam = 1.0 / (self.C * n)
        # Lipschitz constant of the gradient in (W, b); a step over 1/L diverges.
        L = 2.0 * float(np.linalg.norm(np.hstack([Xs, np.ones((n, 1))]), 2) ** 2) / n + lam
        lr = min(_SVC_LR, 1.0 / L)
        for _ in range(_GD_ITERS):
            M = Xs @ W.T + b  # (n, c) margins
            viol = np.maximum(0.0, 1.0 - S * M)  # squared-hinge active part
            G = (-2.0 * S * viol) / n  # d loss / d margin
            W -= lr * (G.T @ Xs + lam * W)
            b -= lr * G.sum(axis=0)
        self.coef_, self.intercept_ = W, b
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        return self._sc.transform(np.asarray(X, dtype=np.float64)) @ self.coef_.T + self.intercept_

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.classes_[np.argmax(self.decision_function(X), axis=1)]
