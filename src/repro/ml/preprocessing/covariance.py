"""The paper's covariance dimensionality reduction (Section IV-A).

Given one standardized trial ``M ∈ R^{540×7}``, compute the sensor Gram
matrix ``MᵀM ∈ R^{7×7}`` and keep its upper triangle — 28 unique
variance/covariance values — as the feature vector.  This maps the 3-D
challenge tensor ``R^{n×540×7}`` to a 2-D design matrix ``R^{n×28}``.

Feature naming follows Table III sensor order, so feature
``cov(utilization_gpu_pct, power_draw_W)`` in the XGBoost importance
analysis is directly addressable.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import BaseEstimator, TransformerMixin
from repro.telemetry import N_GPU_SENSORS
from repro.utils.validation import check_3d

__all__ = ["upper_triangle_covariance", "covariance_feature_names", "CovarianceFeatures"]


def upper_triangle_covariance(X: np.ndarray, *, normalize: bool = True) -> np.ndarray:
    """Vectorized per-trial sensor covariance, upper triangle only.

    Parameters
    ----------
    X:
        ``(n_trials, n_timesteps, n_sensors)`` tensor (standardize first, as
        the paper does).
    normalize:
        Divide the Gram matrix by ``n_timesteps`` so values are per-sample
        (co)variances rather than raw inner products; scale-invariant models
        are unaffected, but it keeps features O(1).

    Returns
    -------
    ``(n_trials, s(s+1)/2)`` matrix; for 7 sensors, 28 columns.
    """
    return _gram_upper_triangle(check_3d(X), normalize)


def _gram_upper_triangle(X: np.ndarray, normalize: bool) -> np.ndarray:
    """:func:`upper_triangle_covariance` of an already validated tensor."""
    n, t, s = X.shape
    # One batched matmul: (n, s, t) @ (n, t, s) -> (n, s, s).  It takes
    # each trial's Gram in its own BLAS call, so a trial's features are
    # the same bytes whatever batch it arrives in (einsum takes another
    # path for a batch of one).
    gram = np.matmul(X.transpose(0, 2, 1), X)
    if normalize:
        gram /= t
    iu = np.triu_indices(s)
    return gram[:, iu[0], iu[1]]


def covariance_feature_names(sensor_names: list[str] | None = None) -> list[str]:
    """Names of the 28 covariance features, in feature-column order.

    ``var(x)`` for diagonal entries, ``cov(x, y)`` off-diagonal; order
    matches :func:`upper_triangle_covariance` (row-major upper triangle).
    """
    names = sensor_names
    if names is None:
        # The simulator's schema, imported here: serving a fitted model
        # (a fleet worker unpickling it) never needs the names.
        from repro.simcluster.sensors import GPU_SENSORS

        names = [s.name for s in GPU_SENSORS]
    s = len(names)
    iu = np.triu_indices(s)
    out = []
    for i, j in zip(*iu):
        if i == j:
            out.append(f"var({names[i]})")
        else:
            out.append(f"cov({names[i]}, {names[j]})")
    return out


class CovarianceFeatures(BaseEstimator, TransformerMixin):
    """Transformer wrapper around :func:`upper_triangle_covariance`.

    Stateless (nothing is learned in ``fit``), but keeping the estimator
    interface lets it slot into :class:`repro.ml.preprocessing.Pipeline`
    and grid searches exactly where the paper puts it.
    """

    def __init__(self, normalize: bool = True):
        self.normalize = normalize

    def fit(self, X, y=None) -> "CovarianceFeatures":
        """Fit to training data; returns self."""
        X = check_3d(X)
        self.n_sensors_in_ = X.shape[2]
        self.feature_names_ = covariance_feature_names(
            None
            if X.shape[2] == N_GPU_SENSORS
            else [f"sensor{i}" for i in range(X.shape[2])]
        )
        return self

    def transform(self, X) -> np.ndarray:
        """Apply the fitted transformation to X."""
        self._check_fitted("n_sensors_in_")
        X = check_3d(X)
        if X.shape[2] != self.n_sensors_in_:
            raise ValueError(
                f"X has {X.shape[2]} sensors; fitted on {self.n_sensors_in_}"
            )
        return _gram_upper_triangle(X, self.normalize)
