"""The paper's bidirectional LSTM classifier (Section V-A).

Architecture, verbatim from the paper: the input sequence feeds a
bidirectional LSTM (hidden 128, all 7 sensors as the feature vector); the
two directions' outputs are concatenated and passed through a
fully-connected layer projecting down to a feature size equal to the
*length of the sequence*; then dropout (p = 0.5), a leaky ReLU, a second
fully-connected layer to the class count, and a log-softmax.  The stacked
variant inserts a second bidirectional LSTM with dropout 0.5 between the
layers.
"""

from __future__ import annotations

import numpy as np

from repro.nn import (
    BiLSTM,
    Dropout,
    LeakyReLU,
    Linear,
    Module,
    Tensor,
    log_softmax,
)
from repro.nn.module import predict_labels
from repro.utils.rng import spawn_generators

__all__ = ["LSTMClassifier"]


class LSTMClassifier(Module):
    """Bidirectional (optionally stacked) LSTM classifier.

    Parameters
    ----------
    n_sensors:
        Input feature count (7 in the challenge data).
    seq_len:
        Window length; the first FC layer projects to this size, per the
        paper's description.
    n_classes:
        Output classes (26).
    hidden_size:
        LSTM hidden width (paper: 128).
    n_layers:
        1 or 2 stacked bidirectional LSTMs (paper evaluates both).
    dropout:
        Dropout probability after the projection and between stacked
        layers (paper: 0.5).
    """

    def __init__(
        self,
        n_sensors: int = 7,
        seq_len: int = 540,
        n_classes: int = 26,
        hidden_size: int = 128,
        n_layers: int = 1,
        dropout: float = 0.5,
        seed: int = 0,
    ):
        super().__init__()
        if n_layers not in (1, 2):
            raise ValueError(f"n_layers must be 1 or 2, got {n_layers}")
        rngs = spawn_generators(seed, 6)
        self.n_layers = n_layers
        self.hidden_size = hidden_size
        self.lstm1 = BiLSTM(n_sensors, hidden_size, rng=rngs[0])
        if n_layers == 2:
            self.inter_dropout = Dropout(dropout, rng=rngs[1])
            self.lstm2 = BiLSTM(2 * hidden_size, hidden_size, rng=rngs[2])
        self.fc1 = Linear(2 * hidden_size, seq_len, rng=rngs[3])
        self.dropout = Dropout(dropout, rng=rngs[4])
        self.act = LeakyReLU()
        self.fc2 = Linear(seq_len, n_classes, rng=rngs[5])

    def forward(self, x: Tensor) -> Tensor:
        """``(N, T, sensors)`` → ``(N, n_classes)`` log-probabilities."""
        out = self.lstm1(x)
        if self.n_layers == 2:
            out = self.lstm2(self.inter_dropout(out))
            final = self.lstm2.final_states(out)
        else:
            final = self.lstm1.final_states(out)
        h = self.fc1(final)
        h = self.act(self.dropout(h))
        return log_softmax(self.fc2(h), axis=-1)

    def predict(self, X: np.ndarray, batch_size: int = 64) -> np.ndarray:
        """Predict class labels for X, ``batch_size`` windows per forward."""
        return predict_labels(self, X, batch_size)
