"""CNN-LSTM baselines (paper Section V-B).

"We feed the input sequence into two 1-dimensional convolutional layers
sandwiching a max pooling layer to reduce the dimensionality of the feature
maps.  This output is then fed into the same bidirectional LSTM architecture
from Section V-A" — with the side benefit of shrinking the LSTM's sequence
~8× and speeding training accordingly.

Four variants are evaluated in Table VI: hidden 128, 256, 512, and a
hidden-512 model with a smaller kernel and stride (longer output sequence
into the LSTM).
"""

from __future__ import annotations

import numpy as np

from repro.nn import (
    BiLSTM,
    Conv1d,
    Dropout,
    LeakyReLU,
    Linear,
    MaxPool1d,
    Module,
    Tensor,
    log_softmax,
)
from repro.nn.layers.conv import conv_output_length
from repro.nn.module import predict_labels
from repro.utils.rng import spawn_generators

__all__ = ["CNNLSTMClassifier", "CNN_LSTM_PAPER_VARIANTS"]

#: Table VI CNN-LSTM rows: (label, hidden size, kernel, stride).
CNN_LSTM_PAPER_VARIANTS: tuple[tuple[str, int, int, int], ...] = (
    ("CNN-LSTM (h=128)", 128, 7, 2),
    ("CNN-LSTM (h=256)", 256, 7, 2),
    ("CNN-LSTM (h=512)", 512, 7, 2),
    ("CNN-LSTM (h=512, small kernel)", 512, 3, 1),
)


class CNNLSTMClassifier(Module):
    """Conv → pool → conv front end feeding the Section V-A BiLSTM head.

    Parameters
    ----------
    kernel_size, stride:
        Shared by both conv layers.  The default (7, 2) with pool 2 shrinks
        a 540-sample window to ~65 LSTM steps (the ~8× speed-up); the
        "small kernel" variant (3, 1) keeps ~267 steps.
    conv_channels:
        Feature maps of the two conv layers.
    """

    def __init__(
        self,
        n_sensors: int = 7,
        seq_len: int = 540,
        n_classes: int = 26,
        hidden_size: int = 128,
        kernel_size: int = 7,
        stride: int = 2,
        pool_size: int = 2,
        conv_channels: tuple[int, int] = (32, 64),
        dropout: float = 0.5,
        seed: int = 0,
    ):
        super().__init__()
        rngs = spawn_generators(seed, 7)
        c1, c2 = conv_channels
        self.conv1 = Conv1d(n_sensors, c1, kernel_size, stride=stride, rng=rngs[0])
        self.pool = MaxPool1d(pool_size)
        self.conv2 = Conv1d(c1, c2, kernel_size, stride=stride, rng=rngs[1])
        self.conv_act = LeakyReLU()
        self.hidden_size = hidden_size

        # Output sequence length after the conv stack (the LSTM's T').
        t1 = conv_output_length(seq_len, kernel_size, stride)
        t2 = conv_output_length(t1, pool_size, pool_size)
        t3 = conv_output_length(t2, kernel_size, stride)
        self.lstm_seq_len = t3

        self.lstm = BiLSTM(c2, hidden_size, rng=rngs[2])
        self.fc1 = Linear(2 * hidden_size, seq_len, rng=rngs[3])
        self.dropout = Dropout(dropout, rng=rngs[4])
        self.act = LeakyReLU()
        self.fc2 = Linear(seq_len, n_classes, rng=rngs[5])

    def forward(self, x: Tensor) -> Tensor:
        """``(N, T, sensors)`` → ``(N, n_classes)`` log-probabilities."""
        h = self.conv_act(self.conv1(x))
        h = self.pool(h)
        h = self.conv_act(self.conv2(h))
        out = self.lstm(h)
        final = self.lstm.final_states(out)
        z = self.act(self.dropout(self.fc1(final)))
        return log_softmax(self.fc2(z), axis=-1)

    def predict(self, X: np.ndarray, batch_size: int = 64) -> np.ndarray:
        """Predict class labels for X, ``batch_size`` windows per forward."""
        return predict_labels(self, X, batch_size)
