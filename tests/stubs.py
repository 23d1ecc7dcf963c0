"""Shared stub models for serving, fleet, store and tracing tests.

Each stub is a deterministic, near-free ``predict`` that labels every
window independently, so batch composition, routing and failover cannot
change a prediction.  They live at module level because
``SubprocessWorker`` children unpickle the model by import path.
"""

import numpy as np


class ThresholdModel:
    """Label 1 where the window's mean sensor-0 reading exceeds 50."""

    def predict(self, X):
        X = np.asarray(X)
        return (X[:, :, 0].mean(axis=1) > 50.0).astype(np.int64)


class MeanSignModel:
    """Label 1 where the window's grand mean is positive."""

    def predict(self, X):
        X = np.asarray(X)
        return (X.mean(axis=(1, 2)) > 0.0).astype(np.int64)
