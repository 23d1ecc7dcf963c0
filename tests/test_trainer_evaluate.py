"""Trainer.evaluate_accuracy streams in batch_size chunks and matches the
full-batch mean over the model's own predict."""

import numpy as np
import pytest

from repro.models.lstm_baseline import LSTMClassifier
from repro.nn.loss import NLLLoss
from repro.nn.optim.adam import Adam
from repro.nn.training.trainer import Trainer


def _data(n=64, t=20, d=7, k=5, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, t, d)).astype(np.float32)
    y = rng.integers(0, k, size=n).astype(np.int64)
    return X, y


class TestChunkedEvaluateAccuracy:
    def _trainer(self, batch_size):
        model = LSTMClassifier(n_sensors=7, seq_len=20, n_classes=5,
                               hidden_size=16, seed=0)
        return Trainer(model, Adam(model.parameters(), lr=1e-3), NLLLoss(),
                       batch_size=batch_size)

    @pytest.mark.parametrize("n,batch", [(1, 16), (16, 16), (17, 16),
                                         (33, 8), (5, 64)])
    def test_matches_full_batch_mean(self, n, batch):
        X, y = _data(n=max(n, 1))
        X, y = X[:n], y[:n]
        trainer = self._trainer(batch)
        acc = trainer.evaluate_accuracy(X, y)
        pred = trainer.model.predict(X, batch_size=batch)
        assert acc == float(np.mean(pred == y))

    def test_empty_is_nan(self):
        X, y = _data(n=4)
        trainer = self._trainer(16)
        assert np.isnan(trainer.evaluate_accuracy(X[:0], y[:0]))
