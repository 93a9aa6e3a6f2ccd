"""Coreset tests: uniform / stratified row positions (numpy) and OSNAP
sketching (numpy, with a hypothesis property for norm preservation)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coreset.sampling import build_coreset
from repro.coreset.sketch import sketch_dataset, sketch_rows

N = 300
LABELS = np.array(["a"] * 200 + ["b"] * 80 + ["c"] * 20)


class TestUniform:
    def test_size(self):
        assert len(build_coreset(N, 50, seed=0)) == 50

    def test_deterministic(self):
        np.testing.assert_array_equal(build_coreset(N, 30, seed=5),
                                      build_coreset(N, 30, seed=5))

    def test_seed_changes_sample(self):
        a = set(build_coreset(N, 30, seed=1))
        b = set(build_coreset(N, 30, seed=2))
        assert a != b

    def test_subset_of_input(self):
        rows = build_coreset(N, 40, seed=0)
        assert set(rows) <= set(range(N))
        assert len(set(rows)) == len(rows)


class TestStratified:
    def test_size(self):
        assert len(build_coreset(N, 60, "stratified", LABELS, seed=0)) == 60

    def test_deterministic(self):
        np.testing.assert_array_equal(build_coreset(N, 60, "stratified", LABELS, seed=5),
                                      build_coreset(N, 60, "stratified", LABELS, seed=5))

    def test_proportions_held(self):
        rows = build_coreset(N, 60, "stratified", LABELS, seed=0)
        labs, counts = np.unique(LABELS[rows], return_counts=True)
        counts = dict(zip(labs, counts))
        assert abs(counts["a"] - 40) <= 2
        assert abs(counts["b"] - 16) <= 2

    def test_rare_label_not_overlooked(self):
        rows = build_coreset(N, 30, "stratified", LABELS, seed=0)
        assert (LABELS[rows] == "c").sum() >= 1

    def test_small_input_passthrough(self):
        assert list(build_coreset(1, 10, "stratified", np.array(["a"]))) == [0]


class TestBuildCoreset:
    def test_dispatch_uniform(self):
        assert len(build_coreset(N, 25, "uniform", seed=0)) == 25

    def test_dispatch_stratified(self):
        assert len(build_coreset(N, 25, "stratified", LABELS, seed=0)) == 25

    def test_positions_sorted(self):
        for method in ("uniform", "stratified"):
            rows = build_coreset(N, 25, method, LABELS, seed=0)
            assert (np.diff(rows) > 0).all()

    def test_sketch_takes_every_row(self):
        # the sketch reduces the joined rows itself (``sketch_dataset``)
        np.testing.assert_array_equal(build_coreset(N, 25, "sketch", seed=0),
                                      np.arange(N))

    def test_stratified_without_label_raises(self):
        with pytest.raises(ValueError):
            build_coreset(N, 25, "stratified")

    def test_unknown_method_raises(self):
        with pytest.raises(ValueError):
            build_coreset(N, 25, "reservoir")

    def test_small_input_identity(self):
        assert list(build_coreset(2, 100, "uniform")) == [0, 1]


class TestSketchRows:
    def test_shape(self):
        X = np.random.default_rng(0).normal(size=(200, 10))
        assert sketch_rows(X, 50, seed=0).shape == (50, 10)

    def test_deterministic(self):
        X = np.random.default_rng(0).normal(size=(100, 5))
        np.testing.assert_array_equal(sketch_rows(X, 20, seed=3),
                                      sketch_rows(X, 20, seed=3))

    def test_column_norms_approximately_preserved(self):
        # count-sketch preserves E||Pi x||^2 = ||x||^2; with ell >> d the
        # relative error on each column norm is modest
        rng = np.random.default_rng(1)
        X = rng.normal(size=(2000, 4))
        S = sketch_rows(X, 500, seed=0)
        ratio = np.linalg.norm(S, axis=0) / np.linalg.norm(X, axis=0)
        assert (np.abs(ratio - 1) < 0.25).all()

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_norm_preservation_property(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(500, 1))
        s = sketch_rows(x, 200, seed=seed)
        ratio = np.linalg.norm(s) / np.linalg.norm(x)
        assert 0.5 < ratio < 1.6

    def test_subspace_embedding_least_squares(self):
        # solving the sketched LS problem approximates the original solution
        rng = np.random.default_rng(2)
        A = rng.normal(size=(3000, 5))
        b = A @ np.array([1.0, -2.0, 0.5, 0.0, 3.0]) + 0.01 * rng.normal(size=3000)
        M = sketch_rows(np.column_stack([A, b]), 400, seed=0)
        w_sk, *_ = np.linalg.lstsq(M[:, :-1], M[:, -1], rcond=None)
        w, *_ = np.linalg.lstsq(A, b, rcond=None)
        np.testing.assert_allclose(w_sk, w, atol=0.1)


class TestSketchDataset:
    def test_regression_shares_projection(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(400, 3))
        y = X @ np.array([1.0, 2.0, -1.0])
        Xs, ys = sketch_dataset(X, y, 100, "reg", seed=0)
        # y is in the column space of X; the sketch must keep it there
        resid = ys - Xs @ np.linalg.lstsq(Xs, ys, rcond=None)[0]
        assert np.abs(resid).max() < 1e-8

    def test_classification_per_label(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(300, 4))
        y = np.array([0] * 240 + [1] * 60)
        Xs, ys = sketch_dataset(X, y, 100, "cls", seed=0)
        assert set(ys) == {0, 1}
        # proportional allocation
        assert abs((ys == 0).sum() - 80) <= 2

    def test_ell_capped_at_n(self):
        X = np.random.default_rng(0).normal(size=(30, 2))
        Xs, ys = sketch_dataset(X, np.arange(30.0), 100, "reg", seed=0)
        assert Xs.shape[0] <= 30
