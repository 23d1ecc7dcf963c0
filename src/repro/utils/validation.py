"""Input validation helpers shared across the ML and simulator stacks.

The estimators in :mod:`repro.ml` follow the scikit-learn convention of
validating at the public-API boundary and trusting arrays internally, which
keeps hot loops free of per-call checks (see the optimization guide: validate
once, then operate on raw ndarrays).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "float_dtype",
    "check_array",
    "check_2d",
    "check_3d",
    "check_consistent_length",
    "check_labels",
    "check_probability",
    "check_positive",
]


def float_dtype(X) -> np.dtype:
    """``X``'s own dtype when it is float16, float32 or float64; else float64.

    Lets a caller validate floating telemetry without widening it: a
    float32 series is checked and carried as float32, while ints, bools,
    lists and wider floats are coerced to float64 as before.
    """
    dtype = getattr(X, "dtype", None)
    if isinstance(dtype, np.dtype) and dtype.kind == "f" and dtype.itemsize <= 8:
        return dtype
    return np.dtype(np.float64)


def check_array(
    X,
    *,
    name: str = "X",
    dtype=np.float64,
    allow_nan: bool = False,
    copy: bool = False,
) -> np.ndarray:
    """Coerce ``X`` to an ndarray of ``dtype`` and check finiteness.

    Copies only when coercion requires it or ``copy=True``; otherwise the
    result is ``X`` itself or a view of it, and keeps its strides (a
    strided view stays strided, per the "use views, not copies"
    guidance).
    """
    arr = np.array(X, dtype=dtype, copy=copy) if copy else np.asarray(X, dtype=dtype)
    if arr.size == 0:
        raise ValueError(f"{name} is empty")
    if not allow_nan and not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains NaN or infinite values")
    return arr


def check_2d(X, *, name: str = "X", dtype=np.float64) -> np.ndarray:
    """Validate a 2-D ``(n_samples, n_features)`` design matrix."""
    arr = check_array(X, name=name, dtype=dtype)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D (n_samples, n_features), got shape {arr.shape}")
    return arr


def check_3d(X, *, name: str = "X", dtype=np.float64) -> np.ndarray:
    """Validate a 3-D ``(n_trials, n_timesteps, n_sensors)`` tensor."""
    arr = check_array(X, name=name, dtype=dtype)
    if arr.ndim != 3:
        raise ValueError(
            f"{name} must be 3-D (n_trials, n_timesteps, n_sensors), got shape {arr.shape}"
        )
    return arr


def check_consistent_length(*arrays, names: tuple[str, ...] | None = None) -> None:
    """Raise if the leading dimensions of the given arrays differ."""
    lengths = [len(a) for a in arrays]
    if len(set(lengths)) > 1:
        labels = names or tuple(f"array{i}" for i in range(len(arrays)))
        detail = ", ".join(f"{n}={l}" for n, l in zip(labels, lengths))
        raise ValueError(f"inconsistent sample counts: {detail}")


def check_labels(y, *, name: str = "y", n_samples: int | None = None) -> np.ndarray:
    """Validate an integer class-label vector; returns an int64 array."""
    arr = np.asarray(y)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} is empty")
    if not np.issubdtype(arr.dtype, np.integer):
        cast = arr.astype(np.int64)
        if not np.array_equal(cast, arr):
            raise ValueError(f"{name} must contain integer class labels")
        arr = cast
    else:
        arr = arr.astype(np.int64)
    if n_samples is not None and arr.shape[0] != n_samples:
        raise ValueError(f"{name} has {arr.shape[0]} labels for {n_samples} samples")
    return arr


def check_probability(value: float, *, name: str) -> float:
    """Validate a probability in [0, 1]."""
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")
    return value


def check_positive(value, *, name: str, strict: bool = True):
    """Validate a (strictly) positive scalar."""
    if strict and not value > 0:
        raise ValueError(f"{name} must be > 0, got {value}")
    if not strict and value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value
