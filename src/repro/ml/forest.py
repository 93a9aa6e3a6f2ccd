"""Histogram-based CART random forest (classification + regression).

Neither sklearn nor scipy is installed in this container, so ARDA's main
ranking / estimation model — a Random Forest — is implemented here from
scratch in numpy (DESIGN.md §2). Design choices:

* Features are quantile-binned once per fit into ``_N_BINS`` uint8 bins;
  split search then works on histograms. Trees grow level by level: every
  node of one depth draws its own candidate features, and one
  ``np.bincount`` per tree depth over (node, feature slot, bin[, class])
  codes builds all their histograms — no per-node or per-feature Python
  loop.
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

_N_BINS = 32  # quantile bins per feature; codes fit in uint8


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


# Cap on the (node, slot, bin[, class]) cells one histogram pass builds; a
# wider frontier (10-class data, many candidate features) is scored in
# node chunks so per-depth temporaries stay at a few tens of MB.
_MAX_HIST_CELLS = 1 << 20


def _best_splits(sub: np.ndarray, node: np.ndarray, y: np.ndarray, m: np.ndarray,
                 n_classes: int, msl: int):
    """Best split of every frontier node from one histogram ``bincount``.

    ``sub`` (rows x k) holds each row's bins for the k candidate features
    drawn for its node, ``node`` the row's node in ``[0, len(m))`` and
    ``m`` the node sizes. ``n_classes == 0`` scores variance (regression),
    otherwise Gini. A split needs ``min_samples_leaf`` rows on each side
    and never sits at the last bin. Returns per node the best score, the
    parent score, and the winning candidate slot and threshold bin.
    """
    k = sub.shape[1]
    step = max(1, _MAX_HIST_CELLS // (k * _N_BINS * max(n_classes, 1)))
    out = []
    for a in range(0, len(m), step):
        b = min(len(m), a + step)
        sel = slice(None) if b - a == len(m) else (node >= a) & (node < b)
        mc = m[a:b, None, None]
        codes = ((node[sel, None] - a) * k + np.arange(k)) * _N_BINS + sub[sel]
        size = (b - a) * k * _N_BINS
        if n_classes:
            # Class-major cells. Counts stay integers, so every sum below is
            # exact in any order, and sum_c (tot_c - cum_c)^2 may be expanded.
            codes += y[sel][:, None] * size
            hist = np.bincount(codes.ravel(), minlength=size * n_classes)
            cum = hist.reshape(n_classes, b - a, k, _N_BINS).cumsum(axis=3)
            tot = cum[..., -1]
            nl = cum.sum(axis=0)
            nr = mc - nl
            sq_l = np.einsum("c...,c...->...", cum, cum)
            sq_tot = np.einsum("cns,cns->ns", tot, tot)
            sq_r = sq_tot[..., None] - 2 * np.einsum("cnsb,cns->nsb", cum, tot) + sq_l
            # Gini gain proxy: sum_c nl_c^2/nl + nr_c^2/nr  (maximize)
            with np.errstate(divide="ignore", invalid="ignore"):
                score = sq_l / nl + sq_r / nr
            parent = sq_tot[:, 0] / mc[:, 0, 0]
        else:
            flat = codes.ravel()
            w = np.broadcast_to(y[sel][:, None], codes.shape).ravel()
            nl = np.bincount(flat, minlength=size).reshape(b - a, k, _N_BINS).cumsum(axis=2)
            sl = np.bincount(flat, weights=w, minlength=size).reshape(b - a, k, _N_BINS)
            sl = sl.cumsum(axis=2)
            nr = mc - nl
            sr = sl[:, :, -1:] - sl
            with np.errstate(divide="ignore", invalid="ignore"):
                score = sl**2 / nl + sr**2 / nr
            parent = sl[:, 0, -1] ** 2 / mc[:, 0, 0]
        score = np.where((nl >= msl) & (nr >= msl), score, -np.inf)
        score[:, :, -1] = -np.inf  # last bin = no split
        j = score.reshape(b - a, -1).argmax(axis=1)
        out.append((score.reshape(b - a, -1)[np.arange(b - a), j], parent,
                    j // _N_BINS, j % _N_BINS))
    return tuple(np.concatenate(parts) for parts in zip(*out))


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
    max_features: str = "sqrt"  # "sqrt" | "all" candidate features per node
    seed: int = 0
    trees: list[Tree] = field(default_factory=list, repr=False)
    edges_: np.ndarray | None = field(default=None, repr=False)
    classes_: np.ndarray | None = field(default=None, repr=False)

    # ------------------------------------------------------------------ fit
    def _k_features(self, d: int) -> int:
        k = d if self.max_features == "all" else int(np.sqrt(d)) + 1
        return max(1, min(d, k))

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForest":
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[0] != len(y):
            raise ValueError(f"bad shapes X={X.shape} y={np.shape(y)}")
        rng = np.random.default_rng(self.seed)
        self.edges_ = _quantile_edges(X, _N_BINS, rng)
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
        """Grow one tree on a bootstrap of ``(B, y)``, one depth at a time.

        Every node of the current depth (the frontier) is handled at once:
        one ``bincount`` gives node sizes and leaf values, one draw picks
        each splittable node's candidate features and ``_best_splits``
        scores all their histograms together. Rows keep their bootstrap
        order throughout, so every histogram cell sums its rows in the
        order a node-by-node grower would.
        """
        rng = np.random.default_rng(seed)
        n, d = B.shape
        rows = rng.integers(0, n, n)  # bootstrap; later the frontier's rows
        k = self._k_features(d)
        cls = self.task == "cls"
        n_classes = len(self.classes_) if cls else 0
        msl = self.min_samples_leaf
        yr = y[rows]
        node = np.zeros(n, dtype=np.int64)  # frontier position of each row
        imp = np.zeros(d)
        levels = []  # (feature, thr_bin, left, value) of each depth's nodes
        n_front, first = 1, 0  # frontier size, tree id of its first node
        for depth in range(self.max_depth + 1):
            m = np.bincount(node, minlength=n_front)
            if cls:
                cnt = np.bincount(node * n_classes + yr, minlength=n_front * n_classes)
                cnt = cnt.reshape(n_front, n_classes)
                value = cnt / m[:, None]
                can = cnt.max(axis=1) < m  # not pure
            else:
                value = np.bincount(node, weights=yr, minlength=n_front) / m
                can = np.ones(n_front, dtype=bool)
            can &= (m >= 2 * msl) & (depth < self.max_depth)
            feature = np.full(n_front, -1, dtype=np.int32)
            thr_bin = np.zeros(n_front, dtype=np.int32)
            left = np.zeros(n_front, dtype=np.int32)
            levels.append((feature, thr_bin, left, value))
            sp = np.flatnonzero(can)
            if sp.size == 0:
                break
            keep = can[node]
            rows, yr = rows[keep], yr[keep]
            node = (np.cumsum(can) - 1)[node[keep]]  # position among sp
            # k distinct features per node in random order, like rng.choice;
            # the order decides ties between equally good candidates
            feats = np.argsort(rng.random((sp.size, d)), axis=1)[:, :k]
            sub = B.ravel()[rows[:, None] * d + feats[node]]  # (rows, k) bins
            best, parent, slot, thr = _best_splits(
                sub, node, yr, m[sp], n_classes, msl)
            ok = np.isfinite(best) & (best - parent > 1e-12)
            f_best = feats[np.arange(sp.size), slot]
            child = 2 * np.cumsum(ok) - 2  # next-frontier position of left child
            feature[sp[ok]] = f_best[ok]
            thr_bin[sp[ok]] = thr[ok]
            left[sp[ok]] = first + n_front + child[ok]
            np.add.at(imp, f_best[ok], (best - parent)[ok] / n)
            go_right = sub[np.arange(len(rows)), slot[node]] > thr[node]
            keep = ok[node]
            rows, yr = rows[keep], yr[keep]
            node = (child[node] + go_right)[keep]
            first += n_front
            n_front = 2 * int(ok.sum())
        feature, thr_bin, left, value = (np.concatenate(a) for a in zip(*levels))
        right = np.where(feature >= 0, left + 1, 0).astype(np.int32)
        tot_imp = imp.sum()
        return Tree(feature, thr_bin, left, right, value,
                    imp / tot_imp if tot_imp > 0 else imp)

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

    @property
    def feature_importances_(self) -> np.ndarray:
        self._check_fitted()
        imp = np.mean([t.importances for t in self.trees], axis=0)
        s = imp.sum()
        return imp / s if s > 0 else imp

