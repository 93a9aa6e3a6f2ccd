"""RIFS — Random Injection Feature Selection (paper §6, Algorithms 1–3).

Algorithm 2 injects eta*d random features drawn from N(mu, Sigma) where
mu is the empirical mean *feature vector* (average of the columns of the
n x d matrix A) and Sigma the empirical covariance across features —
noise that "looks like" the input. Algorithm 1 ranks [A | N] with the
RF + sparse-regression ensemble k times with fresh noise, and scores each
real feature by the fraction of repeats in which it beat *every* injected
feature. Algorithm 3 sweeps an increasing threshold list over that
fraction, training the estimator per threshold; the paper stops when
holdout accuracy stops increasing monotonically, this keeps the argmax
over the whole threshold grid (DESIGN.md §2).
"""
from __future__ import annotations

import numpy as np

from repro.core.ranking import ensemble_scores
from repro.ml.evaluate import Evaluator

__all__ = ["inject_random_features", "rifs_fractions", "rifs_select"]

_ETA = 0.2  # eta: injected random features per real feature (Alg. 2)
_NU = 0.5  # nu: weight of the forest ranking in the ensemble (§6.2)
_THRESHOLDS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)  # tau grid T (Alg. 3)


def inject_random_features(X: np.ndarray, eta: float = _ETA, seed: int = 0) -> np.ndarray:
    """Algorithm 2: t = ceil(eta * d) synthetic feature columns (n x t).

    Columns are drawn from N(mu, Sigma) with the empirical column moments.
    Sigma = (1/d) Ac Ac^T is rank <= d, so a sample is generated as
    mu + Ac g / sqrt(d) with g ~ N(0, I_d) — exact, and never materializes
    the n x n covariance.
    """
    X = np.asarray(X, dtype=float)
    d = X.shape[1]
    t = max(1, int(np.ceil(eta * d)))
    rng = np.random.default_rng(seed)
    mu = X.mean(axis=1)  # (n,) typical feature vector
    Ac = X - mu[:, None]
    G = rng.normal(size=(d, t))
    return mu[:, None] + (Ac @ G) / np.sqrt(d)


def rifs_fractions(X: np.ndarray, y: np.ndarray, task: str, k: int,
                   seed: int) -> np.ndarray:
    """Algorithm 1 core: r*[j] = fraction of the k injection rounds in
    which feature j ranked ahead of ALL injected random features. Round
    ``it`` draws its noise and its ranking forest from ``seed * 1000 + it``.

    Features are standardized before moment-matching: on heterogeneous
    raw scales the empirical mean feature vector is dominated by the
    widest column, which makes every injected feature a near-copy of it —
    weak, mutually-correlated noise that real irrelevant features beat by
    default (no pruning power). The ranking ensemble is scale-free, so
    standardization changes nothing else.
    """
    X = np.asarray(X, dtype=float)
    std = X.std(axis=0)
    X = (X - X.mean(axis=0)) / np.where(std < 1e-12, 1.0, std)
    n, d = X.shape
    wins = np.zeros(d)
    for it in range(k):
        N = inject_random_features(X, _ETA, seed=seed * 1000 + it)
        Xp = np.hstack([X, N])
        agg = ensemble_scores(Xp, y, task, nu=_NU, seed=seed * 1000 + it)
        noise_max = agg[d:].max()
        wins += agg[:d] > noise_max
    return wins / k


def rifs_select(ev: Evaluator, fractions: np.ndarray,
                force_keep: np.ndarray | None = None) -> np.ndarray:
    """Algorithm 3: sweep increasing tau over the Algorithm-1
    ``fractions``, training the estimator per threshold, and return the
    sorted column indices of the best-scoring subset.

    The paper stops the sweep at the first non-monotone accuracy and
    outputs the previous subset; since |T| is a small constant either
    way, this evaluates the whole grid and returns the argmax — strictly
    more robust to holdout noise at the same O(|T|) model fits.

    ``force_keep`` columns (the user's base-table features in the ARDA
    pipeline) are excluded from pruning and present in every candidate.
    """
    fk = (np.asarray(force_keep, dtype=int)
          if force_keep is not None else np.empty(0, dtype=int))
    fk_set = set(fk.tolist())
    best_subset = fk
    best_score = -np.inf
    prev_sel: np.ndarray | None = None
    for tau in _THRESHOLDS:
        sel = np.array(sorted(fk_set | set(np.nonzero(fractions >= tau)[0].tolist())),
                       dtype=int)
        if prev_sel is not None and np.array_equal(sel, prev_sel):
            continue  # same subset as the previous threshold — skip the fit
        prev_sel = sel
        s = ev.score(sel)
        if s > best_score:
            best_score, best_subset = s, sel
    return best_subset
