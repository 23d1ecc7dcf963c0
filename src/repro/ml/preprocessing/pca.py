"""Principal component analysis via thin SVD.

The paper's first reduction: flatten each ``540 × 7`` trial to 3,780
features and project onto the top 28/64/256/512 principal components.  Per
the optimization guide, we use the *thin* SVD (``full_matrices=False``) —
the full decomposition of a ``n × 3780`` matrix is orders of magnitude
slower for no benefit.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import BaseEstimator, TransformerMixin
from repro.utils.validation import check_2d

__all__ = ["PCA"]


class PCA(BaseEstimator, TransformerMixin):
    """Project onto the top ``n_components`` principal directions.

    Signs of components are fixed (largest-magnitude loading positive) so
    results are deterministic across LAPACK builds.
    """

    def __init__(self, n_components: int = 2):
        self.n_components = n_components

    def fit(self, X, y=None) -> "PCA":
        """Fit to training data; returns self."""
        from scipy import linalg  # imported here: a child that only predicts skips it

        X = check_2d(X)
        n, p = X.shape
        k = int(self.n_components)
        if not 1 <= k <= min(n, p):
            raise ValueError(
                f"n_components={k} must be in [1, min(n_samples={n}, n_features={p})]"
            )
        self.mean_ = X.mean(axis=0)
        Xc = X - self.mean_
        # Thin SVD: Xc = U S Vt with Vt (min(n,p), p).
        _U, S, Vt = linalg.svd(Xc, full_matrices=False)
        comps = Vt[:k]
        # Deterministic sign convention.
        signs = np.sign(comps[np.arange(k), np.argmax(np.abs(comps), axis=1)])
        signs[signs == 0] = 1.0
        comps = comps * signs[:, None]
        self.components_ = comps
        var = (S**2) / max(n - 1, 1)
        self.explained_variance_ = var[:k]
        total = var.sum()
        self.explained_variance_ratio_ = (
            var[:k] / total if total > 0 else np.zeros(k)
        )
        self.n_features_in_ = p
        return self

    def transform(self, X) -> np.ndarray:
        """Apply the fitted transformation to X."""
        self._check_fitted("components_", "mean_")
        X = check_2d(X)
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X has {X.shape[1]} features; PCA fitted on {self.n_features_in_}"
            )
        return (X - self.mean_) @ self.components_.T

    def inverse_transform(self, X) -> np.ndarray:
        """Map transformed data back to the original space."""
        self._check_fitted("components_", "mean_")
        X = check_2d(X)
        return X @ self.components_ + self.mean_
