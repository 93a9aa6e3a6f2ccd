"""Unit tests for the numpy random-forest substrate."""
import numpy as np
import pytest

from repro.ml import forest
from repro.ml.forest import RandomForest, Tree, _bin_matrix, _quantile_edges


@pytest.fixture(scope="module")
def reg_data():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(600, 20))
    y = 3 * X[:, 0] - 2 * X[:, 1] + 1.0 * X[:, 2] + 0.2 * rng.normal(size=600)
    return X, y


@pytest.fixture(scope="module")
def cls_data():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(600, 20))
    y = (X[:, 0] + X[:, 1] ** 2 > 1).astype(int)
    return X, y


class TestBinning:
    def test_edges_shape(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(100, 5))
        e = _quantile_edges(X, 32, rng)
        assert e.shape == (31, 5)

    def test_edges_monotone(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(500, 3))
        e = _quantile_edges(X, 16, rng)
        assert (np.diff(e, axis=0) >= 0).all()

    def test_bins_in_range(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(200, 4))
        e = _quantile_edges(X, 32, rng)
        B = _bin_matrix(X, e)
        assert B.dtype == np.uint8
        assert B.min() >= 0 and B.max() <= 31

    def test_constant_column(self):
        X = np.ones((50, 2))
        X[:, 1] = np.arange(50)
        rng = np.random.default_rng(0)
        B = _bin_matrix(X, _quantile_edges(X, 8, rng))
        assert len(np.unique(B[:, 0])) == 1


class TestRegression:
    def test_beats_constant_predictor(self, reg_data):
        X, y = reg_data
        rf = RandomForest(task="reg", n_trees=30, seed=0).fit(X, y)
        pred = rf.predict(X)
        assert np.abs(pred - y).mean() < 0.5 * np.abs(y - y.mean()).mean()

    def test_importances_find_signal(self, reg_data):
        X, y = reg_data
        rf = RandomForest(task="reg", n_trees=30, seed=0).fit(X, y)
        top3 = set(np.argsort(rf.feature_importances_)[::-1][:3])
        assert top3 == {0, 1, 2}

    def test_importances_normalized(self, reg_data):
        X, y = reg_data
        rf = RandomForest(task="reg", n_trees=20, seed=0).fit(X, y)
        assert rf.feature_importances_.sum() == pytest.approx(1.0)
        assert (rf.feature_importances_ >= 0).all()

    def test_deterministic_in_seed(self, reg_data):
        X, y = reg_data
        p1 = RandomForest(task="reg", n_trees=10, seed=7).fit(X, y).predict(X[:20])
        p2 = RandomForest(task="reg", n_trees=10, seed=7).fit(X, y).predict(X[:20])
        np.testing.assert_array_equal(p1, p2)

    def test_different_seeds_differ(self, reg_data):
        X, y = reg_data
        p1 = RandomForest(task="reg", n_trees=5, seed=1).fit(X, y).predict(X[:50])
        p2 = RandomForest(task="reg", n_trees=5, seed=2).fit(X, y).predict(X[:50])
        assert not np.array_equal(p1, p2)

    def test_predict_shape(self, reg_data):
        X, y = reg_data
        rf = RandomForest(task="reg", n_trees=5, seed=0).fit(X, y)
        assert rf.predict(X[:17]).shape == (17,)

    def test_min_samples_leaf_respected(self, reg_data):
        X, y = reg_data
        rf = RandomForest(task="reg", n_trees=1, min_samples_leaf=50, seed=0).fit(X, y)
        # one tree with >=50-sample leaves over 600 rows has <= 12 leaves
        assert len(np.unique(rf.predict(X))) <= 12

    def test_max_depth_zero_is_constant(self, reg_data):
        X, y = reg_data
        rf = RandomForest(task="reg", n_trees=3, max_depth=0, seed=0).fit(X, y)
        assert len(np.unique(rf.predict(X))) == 1


class TestClassification:
    def test_accuracy(self, cls_data):
        X, y = cls_data
        rf = RandomForest(task="cls", n_trees=30, seed=0).fit(X, y)
        assert (rf.predict(X) == y).mean() > 0.85

    def test_classes_preserved(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(100, 4))
        y = np.array(["a", "b"] * 50)
        rf = RandomForest(task="cls", n_trees=5, seed=0).fit(X, y)
        assert set(rf.predict(X)) <= {"a", "b"}

    def test_multiclass(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(450, 6))
        y = np.digitize(X[:, 0], [-0.5, 0.5])
        rf = RandomForest(task="cls", n_trees=20, seed=0).fit(X, y)
        assert (rf.predict(X) == y).mean() > 0.8

    def test_importances_cls(self, cls_data):
        X, y = cls_data
        rf = RandomForest(task="cls", n_trees=30, seed=0).fit(X, y)
        top2 = set(np.argsort(rf.feature_importances_)[::-1][:2])
        assert top2 == {0, 1}


class TestEdgeCases:
    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            RandomForest().predict(np.zeros((2, 2)))

    def test_bad_shapes_raise(self):
        with pytest.raises(ValueError):
            RandomForest().fit(np.zeros((10, 2)), np.zeros(5))

    def test_single_feature(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(200, 1))
        y = (X[:, 0] > 0).astype(int)
        rf = RandomForest(task="cls", n_trees=10, seed=0).fit(X, y)
        assert (rf.predict(X) == y).mean() > 0.9

    def test_constant_target(self):
        X = np.random.default_rng(0).normal(size=(50, 3))
        rf = RandomForest(task="reg", n_trees=3, seed=0).fit(X, np.ones(50))
        np.testing.assert_allclose(rf.predict(X), 1.0)

    def test_pure_node_stops_splitting(self):
        X = np.random.default_rng(0).normal(size=(80, 3))
        y = np.zeros(80, dtype=int)
        rf = RandomForest(task="cls", n_trees=3, seed=0).fit(X, y)
        assert (rf.predict(X) == 0).all()

    def test_max_features_variants(self, reg_data):
        X, y = reg_data
        for mf in ("sqrt", "all"):
            rf = RandomForest(task="reg", n_trees=3, max_features=mf, seed=0).fit(X, y)
            assert rf.predict(X[:5]).shape == (5,)



def _reference_tree(rf: RandomForest, B: np.ndarray, y: np.ndarray, seed: int) -> Tree:
    """Node-by-node depth-first grower: the reference the level-wise
    ``RandomForest._fit_tree`` must match. Same rules, one node per step."""
    rng = np.random.default_rng(seed)
    n, d = B.shape
    boot = rng.integers(0, n, n)
    k = rf._k_features(d)
    cls = rf.task == "cls"
    n_classes = len(rf.classes_) if cls else 0
    max_nodes = 2 ** (rf.max_depth + 1) + 1
    feature = np.full(max_nodes, -1, dtype=np.int32)
    thr_bin = np.zeros(max_nodes, dtype=np.int32)
    left = np.zeros(max_nodes, dtype=np.int32)
    right = np.zeros(max_nodes, dtype=np.int32)
    value = np.zeros((max_nodes, n_classes)) if cls else np.zeros(max_nodes)
    imp = np.zeros(d)
    n_nodes, nb, msl = 1, forest._N_BINS, rf.min_samples_leaf
    stack = [(0, boot, 0)]
    while stack:
        node, idx, depth = stack.pop()
        yn, m = y[idx], len(idx)
        if cls:
            cnt = np.bincount(yn, minlength=n_classes)
            value[node], pure = cnt / m, cnt.max() == m
        else:
            value[node], pure = yn.mean(), False
        if depth >= rf.max_depth or m < 2 * msl or pure:
            continue
        feats = rng.choice(d, size=k, replace=False)
        sub = B[np.ix_(idx, feats)]
        offs = np.arange(k, dtype=np.int64) * nb
        if cls:
            codes = (sub.astype(np.int64) + offs) * n_classes + yn[:, None]
            hist = np.bincount(codes.ravel(), minlength=k * nb * n_classes)
            cum = hist.reshape(k, nb, n_classes).astype(np.float64).cumsum(axis=1)
            nl, tot = cum.sum(axis=2), cum[:, -1, :]
            nr = m - nl
            with np.errstate(divide="ignore", invalid="ignore"):
                score = ((cum**2).sum(axis=2) / nl
                         + ((tot[:, None, :] - cum) ** 2).sum(axis=2) / nr)
            parent = (tot**2).sum(axis=1)[0] / m
        else:
            flat = (sub.astype(np.int64) + offs).ravel(order="F")
            nl = np.bincount(flat, minlength=k * nb).reshape(k, nb).cumsum(axis=1)
            sl = np.bincount(flat, weights=np.tile(yn, k), minlength=k * nb)
            sl = sl.reshape(k, nb).cumsum(axis=1)
            nr, sr = m - nl, sl[:, -1:] - sl
            with np.errstate(divide="ignore", invalid="ignore"):
                score = sl**2 / nl + sr**2 / nr
            parent = sl[0, -1] ** 2 / m
        score = np.where((nl >= msl) & (nr >= msl), score, -np.inf)
        score[:, -1] = -np.inf
        fi, ti = np.unravel_index(np.argmax(score), score.shape)
        best = score[fi, ti]
        if not np.isfinite(best) or best - parent <= 1e-12:
            continue
        go_left = sub[:, fi] <= ti
        li, ri = n_nodes, n_nodes + 1
        n_nodes += 2
        feature[node], thr_bin[node] = feats[fi], ti
        left[node], right[node] = li, ri
        imp[feats[fi]] += (best - parent) / len(y)
        stack.append((li, idx[go_left], depth + 1))
        stack.append((ri, idx[~go_left], depth + 1))
    s = imp.sum()
    return Tree(feature[:n_nodes], thr_bin[:n_nodes], left[:n_nodes],
                right[:n_nodes], value[:n_nodes], imp / s if s > 0 else imp)


def _reference_forest(rf: RandomForest, X: np.ndarray, y: np.ndarray) -> RandomForest:
    """``rf`` fitted as ``RandomForest.fit`` does, but with ``_reference_tree``."""
    ref = RandomForest(**{f: getattr(rf, f) for f in
                          ("task", "n_trees", "max_depth", "min_samples_leaf",
                           "max_features", "seed")})
    rng = np.random.default_rng(ref.seed)
    ref.edges_ = _quantile_edges(X, forest._N_BINS, rng)
    B = _bin_matrix(X, ref.edges_)
    if ref.task == "cls":
        ref.classes_, y_work = np.unique(y, return_inverse=True)
    else:
        y_work = np.asarray(y, dtype=np.float64)
    seeds = rng.integers(0, 2**31 - 1, ref.n_trees)
    ref.trees = [_reference_tree(ref, B, y_work, int(s)) for s in seeds]
    return ref


def _proba(rf: RandomForest, X: np.ndarray) -> np.ndarray:
    """Class probabilities: the per-tree leaf distributions, averaged."""
    B = _bin_matrix(X, rf.edges_)
    return np.stack([t.predict_binned(B) for t in rf.trees]).mean(axis=0)


_default_rng = np.random.default_rng


class _AscendingCandidates:
    """A seeded generator whose candidate-feature draws come back in
    ascending feature order; the bootstrap and tree seeds stay random."""

    def __init__(self, seed):
        self._rng = _default_rng(seed)

    def __getattr__(self, name):
        return getattr(self._rng, name)

    def choice(self, d, size, replace=True):  # reference: per-node draw
        return np.arange(size)

    def random(self, size):  # level-wise: uniforms argsorted per node
        return np.broadcast_to(np.arange(size[-1], dtype=np.float64), size)


class TestLevelwiseMatchesReference:
    """With ``max_features="all"`` the candidate *set* is every feature, so
    the bootstrap is the only randomness that shapes a tree. Only the
    candidate *order* still matters: it decides exact ties, which binned
    features and count-based Gini scores produce in small nodes. Both
    growers get their candidates in ascending order, so the level-wise
    forest must rebuild the reference's trees exactly."""

    @pytest.fixture(autouse=True)
    def _pin_candidate_order(self, monkeypatch):
        monkeypatch.setattr(np.random, "default_rng", _AscendingCandidates)

    @pytest.mark.parametrize("task", ["cls", "reg"])
    @pytest.mark.parametrize("msl,depth", [(4, 8), (1, 12), (30, 3)])
    def test_same_forest(self, task, msl, depth):
        rng = _default_rng(11)
        X = rng.normal(size=(400, 9))
        signal = X[:, 0] - 0.7 * X[:, 1] + 0.5 * X[:, 2] * X[:, 3]
        y = (signal > 0).astype(int) if task == "cls" else signal + 0.3 * rng.normal(size=400)
        rf = RandomForest(task=task, n_trees=6, max_depth=depth, min_samples_leaf=msl,
                          max_features="all", seed=5).fit(X, y)
        ref = _reference_forest(rf, X, y)
        for t, r in zip(rf.trees, ref.trees):
            assert (t.feature >= 0).sum() == (r.feature >= 0).sum()
        Xt = rng.normal(size=(300, 9))
        if task == "cls":
            np.testing.assert_array_equal(_proba(rf, Xt), _proba(ref, Xt))
        np.testing.assert_allclose(rf.predict(Xt), ref.predict(Xt), rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(rf.feature_importances_, ref.feature_importances_,
                                   rtol=1e-10, atol=1e-14)

    def test_ten_class_wide_fit_matches(self, monkeypatch):
        """(node, slot, bin, class) histograms at d=700, scored in frontier
        chunks of one node (small cap) and of several nodes (default cap)."""
        rng = _default_rng(3)
        X = rng.normal(size=(500, 700))
        y = np.digitize(X[:, 0] + 0.5 * X[:, 1] + 0.3 * rng.normal(size=500),
                        np.linspace(-1.5, 1.5, 9))
        assert len(np.unique(y)) == 10
        kw = dict(task="cls", n_trees=2, max_depth=6, max_features="all", seed=1)
        ref = _reference_forest(RandomForest(**kw), X, y)
        Xt = rng.normal(size=(200, 700))
        for cap in (1 << 15, forest._MAX_HIST_CELLS):
            monkeypatch.setattr(forest, "_MAX_HIST_CELLS", cap)
            rf = RandomForest(**kw).fit(X, y)
            np.testing.assert_array_equal(_proba(rf, Xt), _proba(ref, Xt))
            np.testing.assert_allclose(rf.feature_importances_, ref.feature_importances_,
                                       rtol=1e-10, atol=1e-14)


def test_ten_class_wide_sqrt_fit():
    """Digits-shaped fit with per-node feature draws learns the signal."""
    rng = np.random.default_rng(4)
    X = rng.normal(size=(900, 700))
    y = np.digitize(X[:, 0], np.linspace(-1.5, 1.5, 9))
    X[:, 1:40] += 0.5 * X[:, [0]]
    rf = RandomForest(task="cls", n_trees=20, seed=0).fit(X, y)
    assert rf.trees[0].value.shape[1] == 10
    assert (rf.predict(X) == y).mean() > 0.5
    assert np.argmax(rf.feature_importances_) == 0
