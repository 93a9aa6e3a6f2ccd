"""ℓ2,1-norm sparse-regression ranker (paper §6.2, Eq. 1).

Objective (row-sample form):  min_W  ||X W - Y||_{2,1} + gamma ||W||_{2,1}
with X in R^{n x d}, Y in R^{n x c} (one-hot labels for classification, a
column vector for regression) and ||M||_{2,1} = sum_i ||M_{i,:}||_2.

The paper optimizes this with the efficient gradient-based solver of
Qian & Zhai [56]; we use the equivalent standard IRLS scheme (Nie et al.
2010): alternate W = (X^T D_r X + gamma D_w)^{-1} X^T D_r Y with
D_r = diag(1 / 2||r_i||), D_w = diag(1 / 2||w_j||). Each step solves a
d x d system and monotonically decreases the same (convex) loss
(DESIGN.md §2). Feature score = ||W_{j,:}||_2.
"""
from __future__ import annotations

import numpy as np

from repro.ml.linear import Standardizer, _one_hot

__all__ = ["l21_solve", "l21_loss", "sparse_regression_scores"]

_EPS = 1e-8
_MAX_ITER = 30  # IRLS steps
_TOL = 1e-5  # stop when the loss falls by less than this share


def _one_hot_targets(y: np.ndarray, task: str) -> np.ndarray:
    if task == "reg":
        y = np.asarray(y, dtype=float)
        return (y - y.mean())[:, None]
    classes, enc = np.unique(y, return_inverse=True)
    Y = _one_hot(enc, len(classes))
    return Y - Y.mean(axis=0)


def l21_loss(X: np.ndarray, Y: np.ndarray, W: np.ndarray, gamma: float) -> float:
    R = X @ W - Y
    return float(np.linalg.norm(R, axis=1).sum()
                 + gamma * np.linalg.norm(W, axis=1).sum())


def l21_solve(X: np.ndarray, Y: np.ndarray, gamma: float) -> np.ndarray:
    """IRLS minimization of ||XW - Y||_{2,1} + gamma ||W||_{2,1}."""
    n, d = X.shape
    W = np.zeros((d, Y.shape[1]))
    prev = np.inf
    for _ in range(_MAX_ITER):
        R = X @ W - Y
        dr = 1.0 / (2.0 * np.maximum(np.linalg.norm(R, axis=1), _EPS))
        dw = 1.0 / (2.0 * np.maximum(np.linalg.norm(W, axis=1), _EPS))
        Xw = X * dr[:, None]
        A = X.T @ Xw + gamma * np.diag(dw)
        A[np.diag_indices_from(A)] += 1e-10
        W = np.linalg.solve(A, Xw.T @ Y)
        cur = l21_loss(X, Y, W, gamma)
        if prev - cur < _TOL * max(1.0, abs(prev)):
            break
        prev = cur
    return W


def sparse_regression_scores(X: np.ndarray, y: np.ndarray, task: str,
                             gamma: float = 0.5) -> np.ndarray:
    Xs = Standardizer().fit_transform(np.asarray(X, dtype=float))
    Y = _one_hot_targets(y, task)
    W = l21_solve(Xs, Y, gamma=gamma)
    return np.linalg.norm(W, axis=1)
