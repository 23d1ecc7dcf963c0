"""Additional coverage: init schemes, optimizer variants, pipeline proba,
PCA variance accounting, and misc paths."""

import numpy as np
import pytest

from repro.ml.ensemble import RandomForestClassifier
from repro.ml.preprocessing import PCA, Pipeline, StandardScaler
from repro.nn.init import kaiming_uniform, orthogonal, uniform_fan_in, xavier_uniform
from repro.nn.module import Parameter
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor


class TestInitSchemes:
    def test_xavier_bounds(self):
        rng = np.random.default_rng(0)
        w = xavier_uniform((100, 50), rng)
        bound = np.sqrt(6.0 / 150)
        assert w.min() >= -bound and w.max() <= bound
        assert w.dtype == np.float32

    def test_kaiming_scales_with_fan_in(self):
        rng = np.random.default_rng(1)
        small_fan = kaiming_uniform((10, 100), rng)
        large_fan = kaiming_uniform((1000, 100), rng)
        assert small_fan.std() > large_fan.std()

    def test_uniform_fan_in_lstm_convention(self):
        rng = np.random.default_rng(2)
        w = uniform_fan_in((64, 256), rng)
        assert np.abs(w).max() <= 1.0 / np.sqrt(64) + 1e-7

    def test_orthogonal_is_orthogonal(self):
        rng = np.random.default_rng(3)
        q = orthogonal((16, 16), rng)
        np.testing.assert_allclose(q @ q.T, np.eye(16), atol=1e-5)

    def test_orthogonal_requires_2d(self):
        with pytest.raises(ValueError):
            orthogonal((4,), np.random.default_rng(0))

    def test_conv_fan_convention(self):
        """Conv weights (C_out, C_in, K): fan_in = C_in*K."""
        from repro.nn.init import _fans

        fan_in, fan_out = _fans((8, 3, 5))
        assert fan_in == 15
        assert fan_out == 40


class TestAdamVariants:
    def _params(self):
        return [Parameter(np.full(4, 5.0, dtype=np.float64))]

    def test_decoupled_weight_decay_shrinks_without_grads_in_moments(self):
        params = self._params()
        opt = Adam(params, lr=0.1, weight_decay=0.1,
                   decoupled_weight_decay=True)
        params[0].grad = np.zeros(4)
        opt.step()
        assert np.all(params[0].data < 5.0)
        # Moments stay zero: decay bypassed them.
        np.testing.assert_allclose(opt._m[0], 0.0)

    def test_coupled_weight_decay_enters_moments(self):
        params = self._params()
        opt = Adam(params, lr=0.1, weight_decay=0.1)
        params[0].grad = np.zeros(4)
        opt.step()
        assert np.any(opt._m[0] != 0.0)

    def test_skips_parameters_without_grad(self):
        params = self._params()
        opt = Adam(params, lr=0.1)
        before = params[0].data.copy()
        opt.step()  # no grads set
        np.testing.assert_array_equal(params[0].data, before)


class TestPipelineProba:
    def test_predict_proba_through_pipeline(self, blobs_split):
        Xtr, ytr, Xte, _ = blobs_split
        pipe = Pipeline([
            ("scale", StandardScaler()),
            ("clf", RandomForestClassifier(n_estimators=10, random_state=0)),
        ])
        pipe.fit(Xtr, ytr)
        proba = pipe.predict_proba(Xte)
        assert proba.shape == (len(Xte), 3)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-9)

    def test_pipeline_as_pure_transformer(self, blobs_split):
        Xtr, _, Xte, _ = blobs_split
        pipe = Pipeline([
            ("scale", StandardScaler()),
            ("pca", PCA(n_components=3)),
        ])
        pipe.fit(Xtr)
        assert pipe.transform(Xte).shape == (len(Xte), 3)


class TestPCAVarianceAccounting:
    def test_ratios_sum_to_at_most_one(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(50, 8))
        pca = PCA(n_components=5).fit(X)
        total = pca.explained_variance_ratio_.sum()
        assert 0.0 < total <= 1.0 + 1e-9

    def test_full_rank_explains_everything(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(40, 6))
        pca = PCA(n_components=6).fit(X)
        assert pca.explained_variance_ratio_.sum() == pytest.approx(1.0)


class TestTensorMisc:
    def test_batched_matmul_shapes(self):
        a = Tensor(np.ones((4, 3, 5)), requires_grad=True)
        b = Tensor(np.ones((4, 5, 2)), requires_grad=True)
        out = a @ b
        assert out.shape == (4, 3, 2)
        out.sum().backward()
        assert a.grad.shape == (4, 3, 5)
        assert b.grad.shape == (4, 5, 2)

    def test_item_on_scalar(self):
        assert Tensor(np.array(3.5)).item() == pytest.approx(3.5)

    def test_len(self):
        assert len(Tensor(np.zeros((7, 2)))) == 7

    def test_pow_rejects_tensor_exponent(self):
        x = Tensor(np.ones(3))
        with pytest.raises(TypeError):
            _ = x ** Tensor(np.ones(3))

    def test_concatenate_axis0_gradients(self):
        a = Tensor(np.ones(3), requires_grad=True, dtype=np.float64)
        b = Tensor(np.ones(2), requires_grad=True, dtype=np.float64)
        out = Tensor.concatenate([a, b], axis=0)
        (out * np.array([1, 2, 3, 4, 5.0])).sum().backward()
        np.testing.assert_allclose(a.grad, [1, 2, 3])
        np.testing.assert_allclose(b.grad, [4, 5])
