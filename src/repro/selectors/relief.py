"""ReliefF (classification) and RReliefF-style (regression) feature weights.

Kira & Rendell's Relief family (paper §5): weight features by how well
they separate each sampled instance from its nearest *misses* versus its
nearest *hits*. Distances use range-normalized features; coresets are
small enough that the full pairwise distance matrix fits comfortably.
The paper uses Relief as one of the noisy-feature-sensitive baselines.
"""
from __future__ import annotations

import numpy as np

__all__ = ["relief_scores"]

_N_NEIGHBORS = 5  # nearest hits / misses per class (regression: twice this)


def _normalize(X: np.ndarray) -> np.ndarray:
    lo = X.min(axis=0)
    rng = X.max(axis=0) - lo
    rng[rng < 1e-12] = 1.0
    return (X - lo) / rng


def relief_scores(X: np.ndarray, y: np.ndarray, task: str, seed: int = 0,
                  sample_size: int = 256) -> np.ndarray:
    X = _normalize(np.asarray(X, dtype=float))
    n, d = X.shape
    rng = np.random.default_rng(seed)
    m = min(sample_size, n)
    picks = rng.choice(n, m, replace=False)

    def dists(i: int) -> np.ndarray:
        # L1 distance from instance i to all rows; O(n*d) per call keeps
        # memory flat instead of materializing an (m, d, n) tensor.
        dv = np.abs(X - X[i]).sum(axis=1)
        dv[i] = np.inf
        return dv

    W = np.zeros(d)
    if task == "cls":
        classes, y_enc = np.unique(y, return_inverse=True)
        priors = np.bincount(y_enc) / n
        for i in picks:
            ci = y_enc[i]
            Di = dists(i)
            for c in range(len(classes)):
                mask = y_enc == c
                idx = np.nonzero(mask)[0]
                if idx.size == 0:
                    continue
                k = min(_N_NEIGHBORS, idx.size)
                nn = idx[np.argpartition(Di[idx], k - 1)[:k]]
                diff = np.abs(X[nn] - X[i]).mean(axis=0)
                if c == ci:
                    W -= diff / m
                else:
                    W += (priors[c] / max(1e-12, 1 - priors[ci])) * diff / m
        return W
    # Regression (RReliefF flavour): nearest neighbours overall, weighted by
    # target difference — features that vary with y among close points win.
    yv = np.asarray(y, dtype=float)
    y_rng = max(yv.max() - yv.min(), 1e-12)
    k = min(_N_NEIGHBORS * 2, n - 1)
    n_dc = 0.0
    n_da = np.zeros(d)
    n_dca = np.zeros(d)
    for i in picks:
        nn = np.argpartition(dists(i), k - 1)[:k]
        dy = np.abs(yv[nn] - yv[i]) / y_rng  # (k,)
        dx = np.abs(X[nn] - X[i])  # (k, d)
        n_dc += dy.sum()
        n_da += dx.sum(axis=0)
        n_dca += (dy[:, None] * dx).sum(axis=0)
    tot = m * k
    with np.errstate(divide="ignore", invalid="ignore"):
        W = n_dca / max(n_dc, 1e-12) - (n_da - n_dca) / max(tot - n_dc, 1e-12)
    return np.nan_to_num(W)
