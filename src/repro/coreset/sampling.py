"""Coreset construction by row sampling (paper §3.1).

``build_coreset`` draws the coreset as sorted row positions of the joined
table, which the driver already holds:

* ``uniform`` — ``size`` positions without replacement;
* ``stratified`` — proportional allocation per label value: each label's
  rows are shuffled, at most ``ceil(count * size / n)`` of them enter, and
  the ``size`` rows of smallest within-label rank / label count are kept
  (ties broken at random), so no label is overlooked (the paper's
  motivation for stratification);
* ``sketch`` — every position: the sketch itself (``repro.coreset.sketch``)
  reduces the rows after the join.

Each returns ``min(size, n)`` positions (every row for ``sketch``) and is
deterministic in ``seed``.
"""
from __future__ import annotations

import numpy as np

__all__ = ["build_coreset"]


def build_coreset(n: int, size: int, method: str = "uniform",
                  labels: np.ndarray | None = None, seed: int = 0) -> np.ndarray:
    """Sorted positions, out of ``range(n)``, of the coreset rows."""
    if method not in ("uniform", "stratified", "sketch"):
        raise ValueError(f"unknown coreset method {method!r}")
    if method == "stratified" and labels is None:
        raise ValueError("stratified sampling needs labels")
    if method == "sketch" or n <= size:
        return np.arange(n)
    rng = np.random.default_rng(seed)
    if method == "uniform":
        return np.sort(rng.choice(n, size, replace=False))
    _, strata = np.unique(np.asarray(labels), return_inverse=True)
    counts = np.bincount(strata)
    # shuffle, then group by label: rank is the position within the group
    order = rng.permutation(n)
    order = order[np.argsort(strata[order], kind="stable")]
    rank = np.empty(n)
    rank[order] = np.arange(1, n + 1) - np.repeat(np.cumsum(counts) - counts, counts)
    count = counts[strata]
    # ceil keeps at least one row per label; the global cut by rank / count
    # then trims the overshoot so proportions hold
    cand = np.flatnonzero(rank <= np.ceil(count * size / n))
    key = rank[cand] / count[cand]
    tie = rng.random(len(cand))
    return np.sort(cand[np.lexsort((tie, key))[:size]])
