"""Standardization (zero mean, unit variance per feature).

Two variants: the classic 2-D :class:`StandardScaler`, and
:class:`TimeSeriesStandardScaler`, which standardizes each *sensor* of a
3-D ``(trials, timesteps, sensors)`` tensor across all trials and timesteps
— matching the paper's use of scikit-learn's ``StandardScaler`` on the
challenge tensors "before either covariance or PCA dimensionality
reduction" (Section IV-A) and before RNN training (Section V).
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import BaseEstimator, TransformerMixin
from repro.utils.validation import check_2d, check_3d, float_dtype

__all__ = ["StandardScaler", "TimeSeriesStandardScaler"]


def _standardize(X: np.ndarray, mean: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """``(X - mean) / scale`` in one float64 output, whatever ``X``'s float.

    The float64 ufunc loops widen ``X`` a buffer at a time, so these are
    the same IEEE operations as on a float64 copy of ``X``, without the
    copy or a second temporary.
    """
    out = np.subtract(X, mean, out=np.empty(X.shape))
    return np.divide(out, scale, out=out)


class StandardScaler(BaseEstimator, TransformerMixin):
    """Per-feature standardization of a 2-D design matrix."""

    def __init__(self, with_mean: bool = True, with_std: bool = True):
        self.with_mean = with_mean
        self.with_std = with_std

    def fit(self, X, y=None) -> "StandardScaler":
        """Fit to training data; returns self."""
        X = check_2d(X)
        self.mean_ = X.mean(axis=0) if self.with_mean else np.zeros(X.shape[1])
        if self.with_std:
            std = X.std(axis=0)
            # Constant features scale by 1 (stay constant) rather than blow up.
            self.scale_ = np.where(std > 0, std, 1.0)
        else:
            self.scale_ = np.ones(X.shape[1])
        self.n_features_in_ = X.shape[1]
        return self

    def transform(self, X) -> np.ndarray:
        """Apply the fitted transformation to X."""
        self._check_fitted("mean_", "scale_")
        X = check_2d(X, dtype=float_dtype(X))
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X has {X.shape[1]} features; scaler fitted on {self.n_features_in_}"
            )
        return _standardize(X, self.mean_, self.scale_)

    def inverse_transform(self, X) -> np.ndarray:
        """Map transformed data back to the original space."""
        self._check_fitted("mean_", "scale_")
        X = check_2d(X)
        return X * self.scale_ + self.mean_


class TimeSeriesStandardScaler(BaseEstimator, TransformerMixin):
    """Per-sensor standardization of ``(trials, timesteps, sensors)`` data.

    Statistics pool over trials *and* timesteps, so a sensor's scale is
    consistent across the whole dataset (power in watts and utilization in
    percent end up comparable), while the temporal shape of each trial is
    preserved.
    """

    def __init__(self):
        pass

    def fit(self, X, y=None) -> "TimeSeriesStandardScaler":
        """Fit to training data; returns self."""
        X = check_3d(X)
        self.mean_ = X.mean(axis=(0, 1))
        std = X.std(axis=(0, 1))
        self.scale_ = np.where(std > 0, std, 1.0)
        self.n_sensors_in_ = X.shape[2]
        return self

    def transform(self, X) -> np.ndarray:
        """Apply the fitted transformation to X."""
        self._check_fitted("mean_", "scale_")
        X = check_3d(X, dtype=float_dtype(X))
        if X.shape[2] != self.n_sensors_in_:
            raise ValueError(
                f"X has {X.shape[2]} sensors; scaler fitted on {self.n_sensors_in_}"
            )
        return _standardize(X, self.mean_, self.scale_)

    def inverse_transform(self, X) -> np.ndarray:
        """Map transformed data back to the original space."""
        self._check_fitted("mean_", "scale_")
        X = check_3d(X)
        return X * self.scale_ + self.mean_
