"""Exponential (doubling + binary) subset search over a feature ranking.

Paper §6.3: order features by rank, start with 2 and repeatedly double
the prefix size until model accuracy decreases; if the first decrease is
at 2^k, binary-search between 2^{k-1} and 2^k. This trains the model
O(log d) times instead of the O(d) of forward selection. The best subset
seen anywhere during the search is returned (rankings are "not monotone
in prediction error", so we keep the argmax, not the last prefix).
"""
from __future__ import annotations

import numpy as np

from repro.ml.evaluate import Evaluator

__all__ = ["exponential_search"]


def exponential_search(ev: Evaluator, scores: np.ndarray,
                       force_keep: np.ndarray | None = None) -> np.ndarray:
    """Cut ``scores`` (higher = better) into a subset via doubling + bisection;
    returns the sorted column indices of the best subset.

    ``force_keep`` columns are always part of every evaluated subset (ARDA
    keeps all base-table features in the output; selection is over the
    augmented ones).
    """
    order = np.argsort(scores)[::-1]
    if force_keep is None:
        force_keep = np.empty(0, dtype=int)
    fk = set(force_keep.tolist())
    order = np.array([j for j in order if j not in fk], dtype=int)
    base = np.asarray(force_keep, dtype=int)

    def subset(m: int) -> np.ndarray:
        return np.concatenate([base, order[:m]]).astype(int)

    def evaluate(m: int) -> float:
        return ev.score(subset(m))

    n_rankable = len(order)
    if n_rankable == 0:
        return np.sort(base)

    # Doubling pass: evaluate every 2^i prefix (O(log d) fits). The paper
    # stops at the first accuracy decrease; holdout noise makes that stop
    # too eager in practice (rankings are "not monotone in prediction
    # error", §6.3), so we score the full doubling ladder — same
    # asymptotic cost — and bisect around the argmax.
    sizes = []
    m = min(2, n_rankable)
    while True:
        sizes.append(m)
        if m >= n_rankable:
            break
        m = min(2 * m, n_rankable)
    if len(base):
        sizes = [0] + sizes
    scored = {m: evaluate(m) for m in sizes}
    best_m = max(scored, key=lambda k: scored[k])
    best_s = scored[best_m]
    # Bisect between the argmax and its ladder neighbours.
    i = sizes.index(best_m)
    lo = sizes[i - 1] if i > 0 else best_m
    hi = sizes[i + 1] if i + 1 < len(sizes) else best_m
    for a, b in ((lo, best_m), (best_m, hi)):
        while b - a > 1:
            mid = (a + b) // 2
            s = evaluate(mid)
            if s > best_s:
                best_s, best_m = s, mid
            if s >= scored.get(b, best_s):
                a = mid
            else:
                b = mid
    return np.sort(subset(best_m))
