"""Cross-cutting property-based tests (hypothesis) on core invariants.

These complement the per-module suites with randomized sweeps of the
algebraic properties the stack relies on: estimator contracts, metric
identities, preprocessing invariances, and solver feasibility.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ml.ensemble import RandomForestClassifier
from repro.ml.metrics import accuracy_score, confusion_matrix, f1_score
from repro.ml.preprocessing import PCA, StandardScaler, upper_triangle_covariance
from repro.ml.tree import DecisionTreeClassifier
from repro.nn.tensor import Tensor


def _labels(seed: int, n: int, k: int) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, k, n)


class TestMetricIdentities:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.integers(5, 60), st.integers(2, 6))
    def test_confusion_marginals(self, seed, n, k):
        y = _labels(seed, n, k)
        p = _labels(seed + 1, n, k)
        C = confusion_matrix(y, p, n_classes=k)
        assert C.sum() == n
        np.testing.assert_array_equal(C.sum(axis=1), np.bincount(y, minlength=k))
        np.testing.assert_array_equal(C.sum(axis=0), np.bincount(p, minlength=k))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.integers(5, 60), st.integers(2, 6))
    def test_accuracy_is_trace_ratio(self, seed, n, k):
        y = _labels(seed, n, k)
        p = _labels(seed + 1, n, k)
        C = confusion_matrix(y, p, n_classes=k)
        assert accuracy_score(y, p) == pytest.approx(np.trace(C) / n)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000), st.integers(5, 40))
    def test_permuting_both_preserves_accuracy(self, seed, n):
        y = _labels(seed, n, 4)
        p = _labels(seed + 1, n, 4)
        perm = np.random.default_rng(seed + 2).permutation(n)
        assert accuracy_score(y, p) == pytest.approx(
            accuracy_score(y[perm], p[perm]))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000), st.integers(6, 40))
    def test_f1_bounded(self, seed, n):
        y = _labels(seed, n, 3)
        p = _labels(seed + 1, n, 3)
        f1 = f1_score(y, p, average="macro")
        assert 0.0 <= f1 <= 1.0


class TestPreprocessingInvariances:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000), st.integers(5, 30), st.integers(2, 6))
    def test_scaler_idempotent_on_standardized_data(self, seed, n, p):
        X = np.random.default_rng(seed).normal(size=(n, p))
        Z = StandardScaler().fit_transform(X)
        Z2 = StandardScaler().fit_transform(Z)
        np.testing.assert_allclose(Z, Z2, atol=1e-8)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000), st.integers(8, 30), st.integers(3, 6))
    def test_pca_projection_contraction(self, seed, n, p):
        """Projection onto k < p components never increases the centered
        norm of a sample."""
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, p))
        pca = PCA(n_components=p - 1).fit(X)
        Z = pca.transform(X)
        centered = X - X.mean(axis=0)
        assert np.all(
            np.linalg.norm(Z, axis=1) <= np.linalg.norm(centered, axis=1) + 1e-8
        )

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 5), st.integers(8, 40))
    def test_covariance_permutation_invariance_over_time(self, seed, n, t):
        """Shuffling timesteps leaves the (unnormalized-mean) covariance
        features unchanged: they are order statistics of the window."""
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, t, 3))
        perm = rng.permutation(t)
        F1 = upper_triangle_covariance(X)
        F2 = upper_triangle_covariance(X[:, perm])
        np.testing.assert_allclose(F1, F2, atol=1e-10)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_covariance_scale_equivariance(self, seed):
        """Scaling a sensor by c scales its var by c^2 and covs by c."""
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(2, 30, 3))
        Xs = X.copy()
        Xs[:, :, 0] *= 2.0
        F = upper_triangle_covariance(X)
        Fs = upper_triangle_covariance(Xs)
        # Feature order for 3 sensors: (0,0),(0,1),(0,2),(1,1),(1,2),(2,2).
        np.testing.assert_allclose(Fs[:, 0], 4.0 * F[:, 0], rtol=1e-9)
        np.testing.assert_allclose(Fs[:, 1], 2.0 * F[:, 1], rtol=1e-9)
        np.testing.assert_allclose(Fs[:, 3], F[:, 3], rtol=1e-9)


class TestEstimatorContracts:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000))
    def test_tree_invariant_to_feature_scaling(self, seed):
        """CART splits depend only on feature order, so monotone rescaling
        must not change predictions."""
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(60, 4))
        y = (X[:, 0] + X[:, 1] > 0).astype(int)
        Xq = X.copy()
        Xq[:, 0] = X[:, 0] * 100.0 + 5.0
        a = DecisionTreeClassifier(max_depth=4).fit(X, y).predict(X)
        b = DecisionTreeClassifier(max_depth=4).fit(Xq, y).predict(Xq)
        np.testing.assert_array_equal(a, b)

    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 10_000))
    def test_forest_probabilities_valid(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(40, 3))
        y = rng.integers(0, 3, 40)
        clf = RandomForestClassifier(n_estimators=8, random_state=seed).fit(X, y)
        proba = clf.predict_proba(X)
        assert np.all(proba >= -1e-12)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-9)

    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 10_000))
    def test_predict_matches_argmax_proba(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(40, 3))
        y = rng.integers(0, 3, 40)
        clf = RandomForestClassifier(n_estimators=8, random_state=seed).fit(X, y)
        pred = clf.predict(X)
        expected = clf.classes_[np.argmax(clf.predict_proba(X), axis=1)]
        np.testing.assert_array_equal(pred, expected)


class TestTensorAlgebra:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 5), st.integers(1, 5))
    def test_linearity_of_gradient(self, seed, n, m):
        """grad of (a·f + b·g) = a·grad f + b·grad g."""
        rng = np.random.default_rng(seed)
        x_data = rng.normal(size=(n, m))

        def grad_of(scale_f, scale_g):
            x = Tensor(x_data, requires_grad=True, dtype=np.float64)
            out = scale_f * (x * x).sum() + scale_g * x.sum()
            out.backward()
            return x.grad

        g_combined = grad_of(2.0, 3.0)
        g_f = grad_of(1.0, 0.0)
        g_g = grad_of(0.0, 1.0)
        np.testing.assert_allclose(g_combined, 2.0 * g_f + 3.0 * g_g,
                                   rtol=1e-6, atol=1e-8)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 6))
    def test_sum_of_parts_equals_whole(self, seed, n):
        rng = np.random.default_rng(seed)
        x_data = rng.normal(size=(n, 4))
        x = Tensor(x_data, requires_grad=True, dtype=np.float64)
        whole = x.sum()
        parts = x[: n // 2].sum() + x[n // 2 :].sum()
        np.testing.assert_allclose(whole.data, parts.data, rtol=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 5), st.integers(2, 5),
           st.integers(2, 5))
    def test_matmul_associativity_forward(self, seed, a, b, c):
        rng = np.random.default_rng(seed)
        A = Tensor(rng.normal(size=(a, b)), dtype=np.float64)
        B = Tensor(rng.normal(size=(b, c)), dtype=np.float64)
        C = Tensor(rng.normal(size=(c, a)), dtype=np.float64)
        left = ((A @ B) @ C).data
        right = (A @ (B @ C)).data
        np.testing.assert_allclose(left, right, rtol=1e-8, atol=1e-10)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_sigmoid_tanh_identity(self, seed):
        """tanh(x) = 2·sigmoid(2x) − 1 must hold through the engine."""
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=8), dtype=np.float64)
        lhs = x.tanh().data
        rhs = (2.0 * (2.0 * x).sigmoid() + (-1.0)).data
        np.testing.assert_allclose(lhs, rhs, rtol=1e-8, atol=1e-10)
