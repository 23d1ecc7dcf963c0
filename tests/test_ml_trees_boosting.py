"""Tests for decision trees, random forests and gradient boosting."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ml.boosting import (
    BoostingTree,
    GradientBoostingClassifier,
    softmax_cross_entropy_grad_hess,
    softmax_proba,
)
from repro.ml.boosting.losses import log_loss
from repro.ml.ensemble import RandomForestClassifier
from repro.ml.tree import DecisionTreeClassifier
from repro.ml.tree.decision_tree import best_split


def best_split_1d(x, y, min_samples_leaf):
    """The node search over a one-column block: ``(threshold, score)``
    or ``None``, the per-feature search's contract."""
    res = best_split(x[:, None], y, min_samples_leaf)
    return None if res is None else res[1:3]


class TestBestSplitGini:
    def test_finds_clean_split(self):
        x = np.array([0.0, 1.0, 2.0, 10.0, 11.0, 12.0])
        y = np.eye(2)[np.array([0, 0, 0, 1, 1, 1])]
        thr, score = best_split_1d(x, y, min_samples_leaf=1)
        assert 2.0 < thr < 10.0
        assert score == pytest.approx(0.0)

    def test_constant_feature_none(self):
        x = np.ones(6)
        y = np.eye(2)[np.array([0, 1, 0, 1, 0, 1])]
        assert best_split_1d(x, y, 1) is None

    def test_min_samples_leaf_respected(self):
        x = np.arange(10, dtype=float)
        y = np.eye(2)[np.array([0] * 9 + [1])]
        # A leaf minimum of 3 forbids isolating the single positive.
        res = best_split_1d(x, y, min_samples_leaf=3)
        if res is not None:
            thr, _ = res
            assert np.sum(x > thr) >= 3 and np.sum(x <= thr) >= 3

    def test_threshold_between_values(self):
        x = np.array([1.0, 2.0])
        y = np.eye(2)[np.array([0, 1])]
        thr, _ = best_split_1d(x, y, 1)
        assert thr == pytest.approx(1.5)


class TestDecisionTree:
    def test_fits_blobs(self, blobs_split):
        Xtr, ytr, Xte, yte = blobs_split
        tree = DecisionTreeClassifier().fit(Xtr, ytr)
        assert tree.score(Xte, yte) > 0.85
        assert tree.score(Xtr, ytr) == 1.0  # unpruned memorizes

    def test_max_depth_limits(self, blobs_split):
        Xtr, ytr, _, _ = blobs_split
        tree = DecisionTreeClassifier(max_depth=2).fit(Xtr, ytr)
        assert tree.depth_ <= 2

    def test_min_samples_leaf(self, blobs_split):
        Xtr, ytr, _, _ = blobs_split
        tree = DecisionTreeClassifier(min_samples_leaf=10).fit(Xtr, ytr)
        # Every leaf's training support must be >= 10: check by counting
        # samples routed to each leaf.
        leaves = tree._leaf_indices(Xtr)
        _, counts = np.unique(leaves, return_counts=True)
        assert counts.min() >= 10

    def test_predict_proba_rows_sum_to_one(self, blobs_split):
        Xtr, ytr, Xte, _ = blobs_split
        tree = DecisionTreeClassifier(max_depth=4).fit(Xtr, ytr)
        proba = tree.predict_proba(Xte)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-9)

    def test_non_contiguous_labels(self):
        rng = np.random.default_rng(0)
        X = np.vstack([rng.normal(i * 4, 0.5, (15, 2)) for i in range(2)])
        y = np.repeat([3, 17], 15)
        tree = DecisionTreeClassifier().fit(X, y)
        assert set(np.unique(tree.predict(X))) <= {3, 17}

    def test_single_sample_class(self):
        X = np.array([[0.0], [1.0], [2.0], [10.0]])
        y = np.array([0, 0, 0, 1])
        tree = DecisionTreeClassifier().fit(X, y)
        assert tree.predict(np.array([[10.0]]))[0] == 1

    def test_feature_count_validation(self, blobs_split):
        Xtr, ytr, _, _ = blobs_split
        tree = DecisionTreeClassifier().fit(Xtr, ytr)
        with pytest.raises(ValueError, match="features"):
            tree.predict(Xtr[:, :3])

    def test_max_features_sqrt(self, blobs_split):
        Xtr, ytr, Xte, yte = blobs_split
        tree = DecisionTreeClassifier(max_features="sqrt", random_state=0)
        tree.fit(Xtr, ytr)
        assert tree.score(Xte, yte) > 0.6

    def test_invalid_params(self, blobs_split):
        Xtr, ytr, _, _ = blobs_split
        with pytest.raises(ValueError):
            DecisionTreeClassifier(min_samples_leaf=0).fit(Xtr, ytr)
        with pytest.raises(ValueError):
            DecisionTreeClassifier(max_features=99).fit(Xtr, ytr)

    @pytest.mark.parametrize("max_features",
                             ["log2", "auto", 2.7, 0.5, 1.0, True, False, 0,
                              -1, 3, np.int64(0), "2", [1]])
    def test_max_features_rejects_all_but_none_sqrt_or_int(self, max_features):
        X = np.arange(12.0).reshape(6, 2)
        y = np.array([0, 0, 0, 1, 1, 1])
        with pytest.raises(ValueError, match="None, 'sqrt' or an int in"):
            DecisionTreeClassifier(max_features=max_features).fit(X, y)

    @pytest.mark.parametrize("max_features,expected",
                             [(None, 5), ("sqrt", 2), (1, 1), (5, 5),
                              (np.int64(3), 3)])
    def test_max_features_accepted_values(self, max_features, expected):
        tree = DecisionTreeClassifier(max_features=max_features)
        assert tree._n_candidate_features(5) == expected

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 1000))
    def test_property_training_fit_unbounded(self, seed):
        """An unpruned tree on distinct points achieves zero training error."""
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(30, 3))
        y = rng.integers(0, 3, size=30)
        tree = DecisionTreeClassifier().fit(X, y)
        assert tree.score(X, y) == 1.0


class TestRandomForest:
    def test_beats_stump(self, blobs_split):
        Xtr, ytr, Xte, yte = blobs_split
        stump = DecisionTreeClassifier(max_depth=1).fit(Xtr, ytr)
        forest = RandomForestClassifier(n_estimators=30, random_state=0)
        forest.fit(Xtr, ytr)
        assert forest.score(Xte, yte) >= stump.score(Xte, yte)

    def test_oob_score_close_to_test(self, blobs_split):
        Xtr, ytr, Xte, yte = blobs_split
        forest = RandomForestClassifier(
            n_estimators=50, oob_score=True, random_state=0
        ).fit(Xtr, ytr)
        assert abs(forest.oob_score_ - forest.score(Xte, yte)) < 0.2

    def test_deterministic_with_seed(self, blobs_split):
        Xtr, ytr, Xte, _ = blobs_split
        a = RandomForestClassifier(n_estimators=10, random_state=3).fit(Xtr, ytr)
        b = RandomForestClassifier(n_estimators=10, random_state=3).fit(Xtr, ytr)
        np.testing.assert_array_equal(a.predict(Xte), b.predict(Xte))

    def test_predict_proba_normalized(self, blobs_split):
        Xtr, ytr, Xte, _ = blobs_split
        forest = RandomForestClassifier(n_estimators=10).fit(Xtr, ytr)
        proba = forest.predict_proba(Xte)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-9)

    def test_feature_importances_sum_to_one(self, blobs_split):
        Xtr, ytr, _, _ = blobs_split
        forest = RandomForestClassifier(n_estimators=10).fit(Xtr, ytr)
        assert forest.feature_importances_.sum() == pytest.approx(1.0)

    def test_no_bootstrap(self, blobs_split):
        Xtr, ytr, Xte, yte = blobs_split
        forest = RandomForestClassifier(
            n_estimators=10, bootstrap=False, random_state=0
        ).fit(Xtr, ytr)
        assert forest.score(Xte, yte) > 0.85

    def test_invalid_n_estimators(self, blobs_split):
        Xtr, ytr, _, _ = blobs_split
        with pytest.raises(ValueError):
            RandomForestClassifier(n_estimators=0).fit(Xtr, ytr)


class TestSoftmaxLoss:
    def test_proba_rows_sum_to_one(self):
        m = np.random.default_rng(0).normal(size=(10, 4))
        p = softmax_proba(m)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)

    def test_stability_large_margins(self):
        m = np.array([[1000.0, 0.0], [-1000.0, 0.0]])
        p = softmax_proba(m)
        assert np.all(np.isfinite(p))

    def test_gradient_zero_at_perfect_prediction(self):
        m = np.array([[100.0, 0.0, 0.0]])
        g, h = softmax_cross_entropy_grad_hess(m, np.array([0]))
        np.testing.assert_allclose(g, 0.0, atol=1e-10)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        m = rng.normal(size=(6, 3))
        y = rng.integers(0, 3, 6)
        g, _ = softmax_cross_entropy_grad_hess(m, y)
        eps = 1e-6
        for i in (0, 3):
            for c in range(3):
                m_p = m.copy(); m_p[i, c] += eps
                m_m = m.copy(); m_m[i, c] -= eps
                fd = (log_loss(m_p, y) - log_loss(m_m, y)) / (2 * eps) * len(y)
                assert g[i, c] == pytest.approx(fd, abs=1e-4)

    def test_hessian_positive(self):
        m = np.random.default_rng(2).normal(size=(5, 3))
        _, h = softmax_cross_entropy_grad_hess(m, np.array([0, 1, 2, 0, 1]))
        assert np.all(h > 0)

    def test_label_range_check(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy_grad_hess(np.zeros((2, 3)), np.array([0, 5]))


class TestBoostingTree:
    def test_fits_residuals(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(100, 2))
        g = np.where(X[:, 0] > 0, 1.0, -1.0)
        h = np.ones(100)
        tree = BoostingTree(max_depth=2, reg_lambda=1.0).fit(X, g, h)
        pred = tree.predict(X)
        # Leaf weight is -G/(H+lambda): should oppose the gradient sign.
        assert np.corrcoef(pred, -g)[0, 1] > 0.9

    def test_gamma_prunes(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(50, 2))
        g = rng.normal(0, 0.01, size=50)  # nearly no signal
        h = np.ones(50)
        free = BoostingTree(max_depth=4, gamma=0.0).fit(X, g, h)
        pruned = BoostingTree(max_depth=4, gamma=10.0).fit(X, g, h)
        assert np.sum(pruned.feature_ >= 0) <= np.sum(free.feature_ >= 0)

    def test_l1_shrinks_leaves(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(60, 2))
        g = np.where(X[:, 0] > 0, 0.5, -0.5)
        h = np.ones(60)
        plain = BoostingTree(max_depth=2, reg_alpha=0.0).fit(X, g, h)
        l1 = BoostingTree(max_depth=2, reg_alpha=20.0).fit(X, g, h)
        assert np.abs(l1.weight_).max() <= np.abs(plain.weight_).max() + 1e-12

    def test_split_gains_accumulate(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(80, 3))
        g = np.where(X[:, 1] > 0, 1.0, -1.0)
        tree = BoostingTree(max_depth=2).fit(X, g, np.ones(80))
        assert tree.split_gains_[1] > tree.split_gains_[0]
        assert tree.split_gains_[1] > tree.split_gains_[2]

    def test_threshold_of_adjacent_floats_keeps_the_split(self):
        # The midpoint of adjacent floats rounds up to the upper value;
        # the threshold must fall back to the lower one so that ``<=``
        # routes the split that was scored.
        lo = np.nextafter(1.0, 2.0)
        hi = np.nextafter(lo, 2.0)
        assert 0.5 * (lo + hi) == hi
        X = np.array([[lo], [lo], [hi], [hi]])
        g = np.array([1.0, 1.0, -1.0, -1.0])
        tree = BoostingTree(max_depth=1, min_child_weight=0.0).fit(
            X, g, np.ones(4))
        assert tree.threshold_[0] == lo
        np.testing.assert_allclose(tree.predict(X), [-2 / 3, -2 / 3, 2 / 3, 2 / 3])

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            BoostingTree(max_depth=0)
        with pytest.raises(ValueError):
            BoostingTree(colsample=0.0)


class TestGradientBoostingClassifier:
    def test_fits_blobs(self, blobs_split):
        Xtr, ytr, Xte, yte = blobs_split
        clf = GradientBoostingClassifier(n_estimators=10, max_depth=3)
        clf.fit(Xtr, ytr)
        assert clf.score(Xte, yte) > 0.9

    def test_eval_history(self, blobs_split):
        Xtr, ytr, Xte, yte = blobs_split
        clf = GradientBoostingClassifier(n_estimators=8, max_depth=3)
        clf.fit(Xtr, ytr, eval_set=(Xte, yte))
        h = clf.evals_result_
        assert len(h["train_accuracy"]) == 8
        # Training loss decreases over rounds.
        assert h["train_logloss"][-1] < h["train_logloss"][0]

    def test_staged_accuracy_matches_final(self, blobs_split):
        Xtr, ytr, Xte, yte = blobs_split
        clf = GradientBoostingClassifier(n_estimators=6, max_depth=3)
        clf.fit(Xtr, ytr)
        staged = clf.staged_accuracy(Xte, yte)
        assert staged.shape == (6,)
        assert staged[-1] == pytest.approx(clf.score(Xte, yte))

    def test_n_rounds_prefix_prediction(self, blobs_split):
        Xtr, ytr, Xte, _ = blobs_split
        clf = GradientBoostingClassifier(n_estimators=6, max_depth=3)
        clf.fit(Xtr, ytr)
        p3 = clf.predict(Xte, n_rounds=3)
        staged = clf.staged_accuracy(Xte, clf.predict(Xte, n_rounds=3))
        assert staged[2] == 1.0  # predictions after 3 rounds match themselves

    def test_feature_importances(self, blobs_split):
        Xtr, ytr, _, _ = blobs_split
        clf = GradientBoostingClassifier(n_estimators=5, max_depth=3)
        clf.fit(Xtr, ytr)
        imp = clf.feature_importances_
        assert imp.shape == (Xtr.shape[1],)
        assert imp.sum() == pytest.approx(1.0)
        assert np.all(imp >= 0)

    def test_regularization_reduces_overfit_gap(self, blobs_split):
        Xtr, ytr, Xte, yte = blobs_split
        loose = GradientBoostingClassifier(n_estimators=10, max_depth=5,
                                           reg_lambda=0.01)
        tight = GradientBoostingClassifier(n_estimators=10, max_depth=5,
                                           reg_lambda=50.0, gamma=0.5)
        loose.fit(Xtr, ytr)
        tight.fit(Xtr, ytr)
        gap_loose = loose.score(Xtr, ytr) - loose.score(Xte, yte)
        gap_tight = tight.score(Xtr, ytr) - tight.score(Xte, yte)
        assert gap_tight <= gap_loose + 0.05

    def test_predict_proba(self, blobs_split):
        Xtr, ytr, Xte, _ = blobs_split
        clf = GradientBoostingClassifier(n_estimators=4).fit(Xtr, ytr)
        proba = clf.predict_proba(Xte)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-9)

    def test_invalid_learning_rate(self, blobs_split):
        Xtr, ytr, _, _ = blobs_split
        with pytest.raises(ValueError):
            GradientBoostingClassifier(learning_rate=0.0).fit(Xtr, ytr)
