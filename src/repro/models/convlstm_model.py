"""ConvLSTM workload classifier (the paper's Section VI future-work model).

Pipeline: segment the 60 s window into coarse steps → :class:`ConvLSTM1d`
scan (convolutional input-to-state and state-to-state transforms) → global
average over the final state's fine axis → the same classification head as
the Section V baselines (projection, dropout, leaky ReLU, log-softmax).
"""

from __future__ import annotations

import numpy as np

from repro.nn import Dropout, LeakyReLU, Linear, Module, Tensor, log_softmax
from repro.nn.layers.convlstm import ConvLSTM1d, segment_sequence
from repro.nn.module import predict_labels
from repro.utils.rng import spawn_generators

__all__ = ["ConvLSTMClassifier"]


class ConvLSTMClassifier(Module):
    """ConvLSTM over segmented telemetry windows.

    Parameters
    ----------
    n_segments:
        Coarse recurrent steps the window is split into (~12 two-second
        segments for a 540-sample window hits the ConvLSTM sweet spot:
        short recurrence, wide receptive field per step).
    hidden_channels:
        ConvLSTM state channels.
    """

    def __init__(
        self,
        n_sensors: int = 7,
        seq_len: int = 540,
        n_classes: int = 26,
        n_segments: int = 12,
        hidden_channels: int = 24,
        kernel_size: int = 5,
        head_width: int = 128,
        dropout: float = 0.5,
        seed: int = 0,
    ):
        super().__init__()
        if seq_len // n_segments < kernel_size:
            raise ValueError(
                f"segments of {seq_len // n_segments} samples are shorter "
                f"than kernel_size={kernel_size}"
            )
        rngs = spawn_generators(seed, 4)
        self.n_segments = n_segments
        self.convlstm = ConvLSTM1d(n_sensors, hidden_channels, kernel_size,
                                   rng=rngs[0])
        self.fc1 = Linear(hidden_channels, head_width, rng=rngs[1])
        self.dropout = Dropout(dropout, rng=rngs[2])
        self.act = LeakyReLU()
        self.fc2 = Linear(head_width, n_classes, rng=rngs[3])

    def forward(self, x: Tensor) -> Tensor:
        """``(N, T, sensors)`` → ``(N, n_classes)`` log-probabilities."""
        segments = segment_sequence(x.data, self.n_segments)
        seg = Tensor(segments.astype(np.float32))
        if x.requires_grad:
            # Route gradients back through the reshape when training
            # end-to-end from a Tensor input (segmenting is a pure view).
            n, t, c = x.shape
            seg_len = t // self.n_segments
            seg = x[:, : self.n_segments * seg_len].reshape(
                n, self.n_segments, seg_len, c
            )
        states = self.convlstm(seg)              # (N, S, L, H)
        final = states[:, -1]                    # (N, L, H)
        pooled = final.mean(axis=1)              # (N, H)
        z = self.act(self.dropout(self.fc1(pooled)))
        return log_softmax(self.fc2(z), axis=-1)

    def predict(self, X: np.ndarray, batch_size: int = 64) -> np.ndarray:
        """Predict class labels for X, ``batch_size`` windows per forward."""
        return predict_labels(self, X, batch_size)
