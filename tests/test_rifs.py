"""Tests for RIFS (Algorithms 1–3), the ranking ensemble and the
exponential subset search."""
import numpy as np
import pytest

from repro.core import arda, rifs
from repro.core.ranking import ensemble_scores, normalized_rank
from repro.core.rifs import inject_random_features, rifs_fractions, rifs_select
from repro.core.search import exponential_search
from repro.ml.evaluate import Evaluator


@pytest.fixture(scope="module")
def planted():
    """6 signal + 60 noise features; y uses features 0,1,2 (+ 3 via 2*3)."""
    rng = np.random.default_rng(0)
    n = 500
    S = rng.normal(size=(n, 6))
    noise = rng.normal(size=(n, 60))
    X = np.hstack([S, noise])
    y = 2 * S[:, 0] - S[:, 1] + 1.2 * S[:, 2] + 0.3 * rng.normal(size=n)
    return X, y


class TestNormalizedRank:
    def test_range_and_order(self):
        r = normalized_rank(np.array([3.0, 1.0, 2.0]))
        assert r[0] == 1.0 and r[1] == 0.0 and r[2] == 0.5

    def test_ties_share_rank(self):
        r = normalized_rank(np.array([1.0, 1.0, 5.0]))
        assert r[0] == r[1]

    def test_single_element(self):
        assert normalized_rank(np.array([7.0])).shape == (1,)


class TestInjection:
    def test_count(self, planted):
        X, _ = planted
        N = inject_random_features(X, seed=0)
        assert N.shape == (500, int(np.ceil(0.2 * 66)))

    def test_moment_matching_mean(self):
        # injected features should cluster around the empirical mean
        # feature vector mu = row means
        rng = np.random.default_rng(0)
        X = rng.normal(size=(200, 40)) + 3.0
        N = inject_random_features(X, eta=2.0, seed=0)
        mu = X.mean(axis=1)
        np.testing.assert_allclose(N.mean(axis=1), mu, atol=0.6)

    def test_deterministic(self, planted):
        X, _ = planted
        a = inject_random_features(X, seed=5)
        b = inject_random_features(X, seed=5)
        np.testing.assert_array_equal(a, b)


class TestEnsemble:
    def test_scores_in_unit_interval(self, planted):
        X, y = planted
        s = ensemble_scores(X[:, :20], y, "reg", seed=0)
        assert (s >= 0).all() and (s <= 1).all()

    def test_signal_on_top(self, planted):
        X, y = planted
        s = ensemble_scores(X, y, "reg", seed=0)
        assert {0, 1, 2} <= set(np.argsort(s)[::-1][:5])

    def test_nu_extremes(self, planted):
        X, y = planted
        rf_only = ensemble_scores(X[:, :10], y, "reg", nu=1.0, seed=0)
        sr_only = ensemble_scores(X[:, :10], y, "reg", nu=0.0, seed=0)
        assert not np.allclose(rf_only, sr_only)


class TestFractions:
    def test_separates_signal_from_noise(self, planted):
        X, y = planted
        fr = rifs_fractions(X, y, "reg", 5, 0)
        assert fr[[0, 1, 2]].min() >= 0.8
        assert fr[6:].mean() < 0.3

    def test_range(self, planted):
        X, y = planted
        fr = rifs_fractions(X, y, "reg", 3, 0)
        assert (fr >= 0).all() and (fr <= 1).all()

    def test_scale_invariance(self, planted):
        # a wildly-scaled copy of the data must give similar fractions
        # (the standardization fix; DESIGN.md / rifs docstring)
        X, y = planted
        Xs = X.copy()
        Xs[:, 10] *= 1e6
        fr1 = rifs_fractions(X, y, "reg", 3, 0)
        fr2 = rifs_fractions(Xs, y, "reg", 3, 0)
        assert fr2[[0, 1, 2]].min() >= 0.6
        assert abs(fr1[6:].mean() - fr2[6:].mean()) < 0.25

    def test_classification(self):
        rng = np.random.default_rng(1)
        X = np.hstack([rng.normal(size=(400, 3)), rng.normal(size=(400, 30))])
        y = (X[:, 0] - X[:, 1] > 0).astype(int)
        fr = rifs_fractions(X, y, "cls", 5, 0)
        assert fr[[0, 1]].min() >= 0.8


class TestRIFSSelect:
    def test_selects_mostly_signal(self, planted):
        X, y = planted
        ev = Evaluator(X, y, "reg", seed=0, n_trees=20)
        sel = set(rifs_select(ev, rifs_fractions(X, y, "reg", 5, 0)).tolist())
        assert {0, 1, 2} <= sel
        noise_kept = [j for j in sel if j >= 6]
        assert len(noise_kept) <= 5

    def test_force_keep_respected(self, planted):
        X, y = planted
        ev = Evaluator(X, y, "reg", seed=0, n_trees=15)
        sel = rifs_select(ev, rifs_fractions(X, y, "reg", 3, 0),
                          force_keep=np.array([50, 51]))
        assert {50, 51} <= set(sel.tolist())

    def test_precomputed_fractions_reused(self, planted):
        X, y = planted
        fr = np.zeros(X.shape[1])
        fr[[0, 1, 2]] = 1.0
        ev = Evaluator(X, y, "reg", seed=0, n_trees=15)
        sel = rifs_select(ev, fr)
        assert set(sel.tolist()) == {0, 1, 2}


class TestPipelineSeed:
    def test_pipeline_seed_drives_injection(self, planted, monkeypatch):
        # round `it` of Alg. 1 draws its noise from ArdaConfig.seed * 1000 + it
        X, y = planted
        X, y = X[:200, :20], y[:200]
        seeds, inject = [], rifs.inject_random_features

        def spy(*args, seed, **kwargs):
            seeds.append(seed)
            return inject(*args, seed=seed, **kwargs)

        monkeypatch.setattr(rifs, "inject_random_features", spy)
        d = X.shape[1]
        batch = arda.Batch(X, y, [f"f{j}" for j in range(d)], np.arange(0),
                           np.arange(d), ["t"] * d)
        cfg = arda.ArdaConfig(seed=3, rifs_k=3, eval_trees=5)
        arda.run_selector([batch], "rifs", "reg", cfg)
        assert seeds == [3000, 3001, 3002]


class TestExponentialSearch:
    def test_finds_signal_prefix(self, planted):
        X, y = planted
        scores = np.zeros(X.shape[1])
        scores[[0, 1, 2]] = [3, 2, 1]
        ev = Evaluator(X, y, "reg", seed=0, n_trees=20)
        sel = exponential_search(ev, scores)
        assert {0, 1, 2} <= set(sel.tolist())

    def test_log_number_of_fits(self, planted):
        X, y = planted
        rng = np.random.default_rng(0)
        ev = Evaluator(X, y, "reg", seed=0, n_trees=10)
        exponential_search(ev, rng.random(X.shape[1]))
        # doubling ladder + two bisections: far fewer than d fits
        assert ev.n_evals <= 2 * int(np.ceil(np.log2(X.shape[1]))) + 6

    def test_force_keep_in_every_subset(self, planted):
        X, y = planted
        ev = Evaluator(X, y, "reg", seed=0, n_trees=10)
        sel = exponential_search(ev, np.random.default_rng(1).random(X.shape[1]),
                                 force_keep=np.array([7]))
        assert 7 in sel.tolist()

    def test_empty_scores(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(50, 2))
        y = X[:, 0]
        ev = Evaluator(X, y, "reg", seed=0, n_trees=5)
        sel = exponential_search(ev, np.array([1.0, 0.5]),
                                 force_keep=np.array([0, 1]))
        assert set(sel.tolist()) == {0, 1}
