"""The covariance reduction as it was computed with ``einsum``.

:func:`upper_triangle_covariance` here is the production function before
the Gram moved to one batched ``np.matmul``, kept verbatim.  NumPy's
``einsum`` takes another path for a batch of one trial, so a trial's
features from it depended on the batch it arrived in; for two or more
trials its bytes equal the matmul's, which
``tests/test_ml_base_preprocessing.py`` pins.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_3d

__all__ = ["upper_triangle_covariance"]


def upper_triangle_covariance(X: np.ndarray, *, normalize: bool = True) -> np.ndarray:
    """Per-trial sensor covariance, upper triangle, through ``einsum``."""
    X = check_3d(X)
    n, t, s = X.shape
    # One batched GEMM for all trials: (n, s, t) @ (n, t, s) -> (n, s, s).
    gram = np.einsum("nts,ntu->nsu", X, X, optimize=True)
    if normalize:
        gram = gram / t
    iu = np.triu_indices(s)
    return gram[:, iu[0], iu[1]]
