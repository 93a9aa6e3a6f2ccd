"""Histogram-based CART random forest (classification + regression).

Neither sklearn nor scipy is installed in this container, so ARDA's main
ranking / estimation model — a Random Forest — is implemented here from
scratch in numpy (DESIGN.md §2). Design choices:

* Features are quantile-binned once per fit into ``n_bins`` uint8 bins;
  split search then works on histograms, so the per-node cost is a single
  ``np.bincount`` over (samples-in-node x candidate-features) flattened
  codes — no per-feature Python loop.
* Impurity: variance (regression) / Gini (classification). Feature
  importances are impurity-decrease sums, normalized to 1 — the quantity
  RIFS uses as the Random-Forest half of its ranking ensemble (§6.2).
* Trees are fitted in the driver: at coreset scale (a few thousand rows)
  shipping the binned matrix to executors costs more than the fits.

The forest is deterministic in ``seed`` for a fixed thread-free path.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["RandomForest", "Tree"]


@dataclass
class Tree:
    """A single fitted CART tree in flat-array form.

    ``feature[i] < 0`` marks node ``i`` as a leaf; internal nodes send a
    sample left when its bin index for ``feature[i]`` is ``<= thr_bin[i]``.
    ``value`` holds the leaf prediction: a scalar mean for regression or a
    class-probability vector for classification.
    """

    feature: np.ndarray
    thr_bin: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    importances: np.ndarray

    def predict_binned(self, B: np.ndarray) -> np.ndarray:
        """Predict from the pre-binned uint8 matrix ``B`` (n x d)."""
        n = B.shape[0]
        node = np.zeros(n, dtype=np.int32)
        active = self.feature[node] >= 0
        while active.any():
            idx = np.nonzero(active)[0]
            nd = node[idx]
            f = self.feature[nd]
            go_left = B[idx, f] <= self.thr_bin[nd]
            node[idx] = np.where(go_left, self.left[nd], self.right[nd])
            active[idx] = self.feature[node[idx]] >= 0
        return self.value[node]


def _quantile_edges(X: np.ndarray, n_bins: int, rng: np.random.Generator) -> np.ndarray:
    """Per-column interior bin edges from quantiles of a row subsample."""
    n = X.shape[0]
    sub = X if n <= 4096 else X[rng.choice(n, 4096, replace=False)]
    qs = np.linspace(0, 1, n_bins + 1)[1:-1]
    return np.nanquantile(sub, qs, axis=0)  # (n_bins-1, d)


def _bin_matrix(X: np.ndarray, edges: np.ndarray) -> np.ndarray:
    out = np.empty(X.shape, dtype=np.uint8)
    for j in range(X.shape[1]):
        out[:, j] = np.searchsorted(edges[:, j], X[:, j], side="left")
    return out


@dataclass
class RandomForest:
    """Random forest over numeric feature matrices.

    Parameters mirror the usual sklearn knobs at the scale ARDA coresets
    need (n <= a few thousand rows, d <= ~2000 features).
    """

    task: str = "reg"  # "reg" | "cls"
    n_trees: int = 40
    max_depth: int = 8
    min_samples_leaf: int = 4
    max_features: str | int | float = "sqrt"
    n_bins: int = 32
    seed: int = 0
    trees: list[Tree] = field(default_factory=list, repr=False)
    edges_: np.ndarray | None = field(default=None, repr=False)
    classes_: np.ndarray | None = field(default=None, repr=False)

    # ------------------------------------------------------------------ fit
    def _k_features(self, d: int) -> int:
        mf = self.max_features
        if mf == "sqrt":
            k = int(np.sqrt(d)) + 1
        elif mf == "all":
            k = d
        elif isinstance(mf, float):
            k = int(mf * d) + 1
        else:
            k = int(mf)
        return max(1, min(d, k))

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForest":
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[0] != len(y):
            raise ValueError(f"bad shapes X={X.shape} y={np.shape(y)}")
        rng = np.random.default_rng(self.seed)
        self.edges_ = _quantile_edges(X, self.n_bins, rng)
        B = _bin_matrix(X, self.edges_)
        if self.task == "cls":
            self.classes_, y_enc = np.unique(y, return_inverse=True)
            y_work = y_enc.astype(np.int64)
        else:
            self.classes_ = None
            y_work = np.asarray(y, dtype=np.float64)
        seeds = rng.integers(0, 2**31 - 1, self.n_trees)
        self.trees = [self._fit_tree(B, y_work, int(s)) for s in seeds]
        return self

    def _fit_tree(self, B: np.ndarray, y: np.ndarray, seed: int) -> Tree:
        rng = np.random.default_rng(seed)
        n, d = B.shape
        boot = rng.integers(0, n, n)
        k = self._k_features(d)
        n_classes = len(self.classes_) if self.task == "cls" else 0
        max_nodes = 2 ** (self.max_depth + 1) + 1
        feature = np.full(max_nodes, -1, dtype=np.int32)
        thr_bin = np.zeros(max_nodes, dtype=np.int32)
        left = np.zeros(max_nodes, dtype=np.int32)
        right = np.zeros(max_nodes, dtype=np.int32)
        if self.task == "cls":
            value = np.zeros((max_nodes, n_classes))
        else:
            value = np.zeros(max_nodes)
        imp = np.zeros(d)
        n_nodes = 1
        stack = [(0, boot, 0)]
        nb = self.n_bins
        msl = self.min_samples_leaf
        while stack:
            node, idx, depth = stack.pop()
            yn = y[idx]
            m = len(idx)
            if self.task == "cls":
                cnt = np.bincount(yn, minlength=n_classes)
                value[node] = cnt / m
                pure = cnt.max() == m
            else:
                value[node] = yn.mean()
                pure = False
            if depth >= self.max_depth or m < 2 * msl or pure:
                continue
            feats = rng.choice(d, size=k, replace=False)
            sub = B[np.ix_(idx, feats)]  # (m, k)
            offs = np.arange(k, dtype=np.int64) * nb
            if self.task == "cls":
                codes = (sub.astype(np.int64) + offs) * n_classes + yn[:, None]
                hist = np.bincount(codes.ravel(), minlength=k * nb * n_classes)
                hist = hist.reshape(k, nb, n_classes).astype(np.float64)
                cum = hist.cumsum(axis=1)  # (k, nb, C) left counts per threshold
                nl = cum.sum(axis=2)  # (k, nb)
                tot = cum[:, -1, :]  # (k, C)
                nr = m - nl
                # Gini gain proxy: sum_c nl_c^2/nl + nr_c^2/nr  (maximize)
                with np.errstate(divide="ignore", invalid="ignore"):
                    gl = (cum**2).sum(axis=2) / nl
                    gr = ((tot[:, None, :] - cum) ** 2).sum(axis=2) / nr
                score = gl + gr
                parent = (tot**2).sum(axis=1)[0] / m
            else:
                codes = sub.astype(np.int64) + offs
                flat = codes.ravel(order="F")
                w = np.tile(yn, k)
                cnt = np.bincount(flat, minlength=k * nb).reshape(k, nb)
                s = np.bincount(flat, weights=w, minlength=k * nb).reshape(k, nb)
                nl = cnt.cumsum(axis=1)
                sl = s.cumsum(axis=1)
                nr = m - nl
                sr = sl[:, -1:] - sl
                with np.errstate(divide="ignore", invalid="ignore"):
                    score = sl**2 / nl + sr**2 / nr
                parent = sl[0, -1] ** 2 / m
            valid = (nl >= msl) & (nr >= msl)
            score = np.where(valid, score, -np.inf)
            score[:, -1] = -np.inf  # last bin = no split
            fi, ti = np.unravel_index(np.argmax(score), score.shape)
            best = score[fi, ti]
            if not np.isfinite(best) or best - parent <= 1e-12:
                continue
            f_global = int(feats[fi])
            go_left = sub[:, fi] <= ti
            li, ri = n_nodes, n_nodes + 1
            n_nodes += 2
            feature[node] = f_global
            thr_bin[node] = ti
            left[node], right[node] = li, ri
            imp[f_global] += (best - parent) / len(y)
            stack.append((li, idx[go_left], depth + 1))
            stack.append((ri, idx[~go_left], depth + 1))
        tot_imp = imp.sum()
        return Tree(
            feature[:n_nodes].copy(), thr_bin[:n_nodes].copy(),
            left[:n_nodes].copy(), right[:n_nodes].copy(),
            value[:n_nodes].copy(), imp / tot_imp if tot_imp > 0 else imp,
        )

    # -------------------------------------------------------------- predict
    def _check_fitted(self) -> None:
        if not self.trees:
            raise RuntimeError("RandomForest is not fitted")

    def predict(self, X: np.ndarray) -> np.ndarray:
        self._check_fitted()
        B = _bin_matrix(np.asarray(X, dtype=np.float64), self.edges_)
        preds = np.stack([t.predict_binned(B) for t in self.trees])
        if self.task == "cls":
            proba = preds.mean(axis=0)
            return self.classes_[np.argmax(proba, axis=1)]
        return preds.mean(axis=0)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        if self.task != "cls":
            raise ValueError("predict_proba is classification-only")
        self._check_fitted()
        B = _bin_matrix(np.asarray(X, dtype=np.float64), self.edges_)
        return np.stack([t.predict_binned(B) for t in self.trees]).mean(axis=0)

    @property
    def feature_importances_(self) -> np.ndarray:
        self._check_fitted()
        imp = np.mean([t.importances for t in self.trees], axis=0)
        s = imp.sum()
        return imp / s if s > 0 else imp

