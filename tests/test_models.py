"""Tests for the baseline model zoo (paper Sections IV & V configs)."""

import numpy as np
import pytest

from repro.models import (
    CNN_LSTM_PAPER_VARIANTS,
    CNNLSTMClassifier,
    LSTMClassifier,
    PAPER_PCA_DIMS,
    PAPER_RF_TREES,
    PAPER_SVM_C,
    make_rf_cov,
    make_rf_pca,
    make_svm_cov,
    make_svm_pca,
    make_xgb_cov,
    traditional_grid,
)
from repro.models.convlstm_model import ConvLSTMClassifier
from repro.nn import Tensor


class TestPaperGrids:
    def test_svm_c_values(self):
        """Section IV-A: C in {0.1, 1.0, 10.0}."""
        assert PAPER_SVM_C == (0.1, 1.0, 10.0)

    def test_rf_tree_values(self):
        """Section IV-A: estimators in {50, 100, 250}."""
        assert PAPER_RF_TREES == (50, 100, 250)

    def test_pca_dims(self):
        """Section IV-A: PCA dims in {28, 64, 256, 512}."""
        assert PAPER_PCA_DIMS == (28, 64, 256, 512)

    def test_traditional_grid_shapes(self):
        for model in ("svm_pca", "svm_cov", "rf_pca", "rf_cov"):
            pipeline, grid = traditional_grid(model)
            assert hasattr(pipeline, "fit")
            assert all("__" in k for k in grid)

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            traditional_grid("mlp")


def _tiny_challenge_tensor(n=40, t=30, s=7, k=3, seed=0):
    """Class-separable 3-D tensor: class shifts channel means."""
    rng = np.random.default_rng(seed)
    y = rng.integers(0, k, n)
    X = rng.normal(0, 0.5, size=(n, t, s)).astype(np.float32)
    for c in range(k):
        X[y == c, :, c % s] += 2.0 + c
    return X, y


class TestTraditionalPipelines:
    @pytest.mark.parametrize("factory,kwargs", [
        (make_svm_cov, {}),
        (make_svm_pca, {"n_components": 10}),
        (make_rf_cov, {"n_estimators": 20}),
        (make_rf_pca, {"n_estimators": 20, "n_components": 10}),
        (make_xgb_cov, {"n_estimators": 5}),
    ])
    def test_fit_predict_3d(self, factory, kwargs):
        X, y = _tiny_challenge_tensor()
        pipe = factory(**kwargs)
        pipe.fit(X[:30], y[:30])
        preds = pipe.predict(X[30:])
        assert preds.shape == (10,)
        assert pipe.score(X[:30], y[:30]) > 0.8

    def test_cov_pipeline_produces_28_features(self):
        X, y = _tiny_challenge_tensor()
        pipe = make_rf_cov(n_estimators=5)
        pipe.fit(X, y)
        feats = pipe._transform_through(X, upto=2)
        assert feats.shape == (40, 28)

    def test_pca_pipeline_flattens_first(self):
        X, y = _tiny_challenge_tensor()
        pipe = make_svm_pca(n_components=6)
        pipe.fit(X, y)
        feats = pipe._transform_through(X, upto=3)
        assert feats.shape == (40, 6)


class TestLSTMClassifier:
    def test_forward_shape(self):
        model = LSTMClassifier(n_sensors=7, seq_len=20, n_classes=5,
                               hidden_size=8, seed=0)
        out = model(Tensor(np.random.default_rng(0)
                           .normal(size=(3, 20, 7)).astype(np.float32)))
        assert out.shape == (3, 5)

    def test_output_is_log_probabilities(self):
        model = LSTMClassifier(n_sensors=7, seq_len=20, n_classes=5,
                               hidden_size=8, seed=0)
        model.eval()
        out = model(Tensor(np.zeros((2, 20, 7), dtype=np.float32)))
        np.testing.assert_allclose(np.exp(out.data).sum(axis=1), 1.0,
                                   atol=1e-5)

    def test_two_layer_variant(self):
        m1 = LSTMClassifier(n_sensors=3, seq_len=10, n_classes=2,
                            hidden_size=4, n_layers=1, seed=0)
        m2 = LSTMClassifier(n_sensors=3, seq_len=10, n_classes=2,
                            hidden_size=4, n_layers=2, seed=0)
        assert m2.n_parameters() > m1.n_parameters()
        out = m2(Tensor(np.zeros((2, 10, 3), dtype=np.float32)))
        assert out.shape == (2, 2)

    def test_invalid_layers(self):
        with pytest.raises(ValueError):
            LSTMClassifier(n_layers=3)

    def test_projection_matches_paper_description(self):
        """fc1 projects the 2H concat to seq_len (Section V-A)."""
        model = LSTMClassifier(n_sensors=7, seq_len=33, n_classes=26,
                               hidden_size=16, seed=0)
        assert model.fc1.in_features == 32
        assert model.fc1.out_features == 33

    def test_predict_helper(self):
        model = LSTMClassifier(n_sensors=3, seq_len=8, n_classes=4,
                               hidden_size=4, seed=0)
        X = np.random.default_rng(1).normal(size=(10, 8, 3)).astype(np.float32)
        preds = model.predict(X, batch_size=4)
        assert preds.shape == (10,)
        assert set(preds.tolist()) <= set(range(4))


class TestCNNLSTMClassifier:
    def test_paper_variants_table(self):
        """Table VI lists four CNN-LSTM rows."""
        assert len(CNN_LSTM_PAPER_VARIANTS) == 4
        hidden = [v[1] for v in CNN_LSTM_PAPER_VARIANTS]
        assert hidden == [128, 256, 512, 512]
        # The small-kernel variant has smaller kernel and stride.
        small = CNN_LSTM_PAPER_VARIANTS[-1]
        assert small[2] < CNN_LSTM_PAPER_VARIANTS[0][2]
        assert small[3] < CNN_LSTM_PAPER_VARIANTS[0][3]

    def test_forward_shape(self):
        model = CNNLSTMClassifier(n_sensors=7, seq_len=60, n_classes=5,
                                  hidden_size=8, kernel_size=5, stride=2,
                                  conv_channels=(4, 8), seed=0)
        out = model(Tensor(np.random.default_rng(0)
                           .normal(size=(2, 60, 7)).astype(np.float32)))
        assert out.shape == (2, 5)

    def test_conv_front_end_shrinks_sequence(self):
        """The default front end cuts a 540-window ~8x (the paper's
        training speed-up mechanism)."""
        model = CNNLSTMClassifier(seq_len=540, hidden_size=8,
                                  conv_channels=(4, 8), seed=0)
        assert model.lstm_seq_len < 540 / 7

    def test_small_kernel_longer_sequence(self):
        big = CNNLSTMClassifier(seq_len=540, hidden_size=8, kernel_size=7,
                                stride=2, conv_channels=(4, 8), seed=0)
        small = CNNLSTMClassifier(seq_len=540, hidden_size=8, kernel_size=3,
                                  stride=1, conv_channels=(4, 8), seed=0)
        assert small.lstm_seq_len > big.lstm_seq_len

    def test_gradients_flow_through_stack(self):
        model = CNNLSTMClassifier(n_sensors=3, seq_len=30, n_classes=3,
                                  hidden_size=4, kernel_size=3, stride=2,
                                  conv_channels=(2, 3), seed=0)
        x = Tensor(np.random.default_rng(2).normal(size=(2, 30, 3))
                   .astype(np.float32), requires_grad=True)
        model(x).sum().backward()
        assert x.grad is not None
        for name, p in model.named_parameters():
            assert p.grad is not None, name


_SEQUENCE_MODELS = {
    "bilstm": lambda: LSTMClassifier(seq_len=20, hidden_size=4, seed=0),
    "cnnlstm": lambda: CNNLSTMClassifier(seq_len=20, hidden_size=4,
                                         kernel_size=3, stride=1,
                                         conv_channels=(2, 3), seed=0),
    "convlstm": lambda: ConvLSTMClassifier(seq_len=20, n_segments=4,
                                           hidden_channels=4, seed=0),
}


class TestSequenceModelPredict:
    """The sequence models share one batched no-grad predict loop."""

    @pytest.mark.parametrize("name", sorted(_SEQUENCE_MODELS))
    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_rejects_batch_size_below_one(self, name, batch_size):
        model = _SEQUENCE_MODELS[name]()
        X = np.random.default_rng(0).normal(size=(5, 20, 7)).astype(np.float32)
        with pytest.raises(ValueError, match="batch_size"):
            model.predict(X, batch_size=batch_size)

    @pytest.mark.parametrize("name", sorted(_SEQUENCE_MODELS))
    def test_labels_are_argmax_of_forward(self, name):
        model = _SEQUENCE_MODELS[name]()
        X = np.random.default_rng(1).normal(size=(5, 20, 7)).astype(np.float32)
        labels = model.predict(X, batch_size=5)
        model.eval()
        expected = np.argmax(model(Tensor(X)).data, axis=1)
        assert labels.dtype == np.int64
        np.testing.assert_array_equal(labels, expected)
