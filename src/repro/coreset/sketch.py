"""OSNAP / count-sketch subspace embedding over the joined matrix (§3.1).

An OSNAP matrix Pi (ell x n) has one nonzero +-1 per column (count-sketch
with s=1); Pi A approximately preserves the column space of A — Definition
1/2 of the paper. Because a sketch takes linear combinations of *rows*,
it is applied after the join, to every joined row of the binarized numeric
matrix (the embedding needs many more rows than ell), and for
classification it is applied independently within each label so sketched
rows keep a meaningful label (the paper's per-label sketching).

``sketch_rows`` computes Pi A in nnz time via index adds. The paper's
Definition 2 repeats the sketch log(n) times; only the single count-sketch
is implemented.
"""
from __future__ import annotations

import numpy as np

__all__ = ["sketch_rows", "sketch_dataset"]


def sketch_rows(X: np.ndarray, ell: int, seed: int = 0) -> np.ndarray:
    """Pi @ X for a count-sketch Pi: each row of X is added, with a random
    sign, to one random row of the ell-row output."""
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    rng = np.random.default_rng(seed)
    out = np.zeros((ell, X.shape[1]))
    rows = rng.integers(0, ell, n)
    signs = rng.choice([-1.0, 1.0], n)
    np.add.at(out, rows, signs[:, None] * X)
    return out


def sketch_dataset(X: np.ndarray, y: np.ndarray, ell: int, task: str,
                   seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Sketch (X, y) down to ~ell rows.

    Regression: y is sketched with the same Pi as X (the embedding
    preserves ||[X y] v|| norms, so least-squares style objectives — the
    sparse-regression half of RIFS — are preserved). Classification:
    rows are sketched per label with ell split proportionally, and the
    label is attached to its stratum's sketched rows.
    """
    n = len(y)
    ell = min(ell, n)
    if task == "reg":
        M = sketch_rows(np.column_stack([X, np.asarray(y, dtype=float)]), ell, seed)
        return M[:, :-1], M[:, -1]
    y = np.asarray(y)
    classes, counts = np.unique(y, return_counts=True)
    Xs_parts, ys_parts = [], []
    for i, c in enumerate(classes):
        li = max(2, int(round(ell * counts[i] / n)))
        Xi = X[y == c]
        li = min(li, len(Xi))
        Xs_parts.append(sketch_rows(Xi, li, seed + i))
        ys_parts.append(np.full(li, c))
    return np.vstack(Xs_parts), np.concatenate(ys_parts)
