"""Functional ops built on the autograd engine."""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor

__all__ = ["log_softmax", "nll_loss", "dropout"]


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable ``log(softmax(x))`` along ``axis``.

    Fused node: forward uses the log-sum-exp trick, backward is
    ``g − softmax(x) · Σg`` — one expression instead of a chain of
    exp/sum/log nodes.
    """
    z = x.data - x.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=axis, keepdims=True))
    out_data = z - lse
    softmax_data = np.exp(out_data)

    def backward(g):
        x._accum(g - softmax_data * g.sum(axis=axis, keepdims=True))

    return Tensor.from_op(out_data, (x,), backward)


def nll_loss(log_probs: Tensor, targets: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of integer targets.

    ``log_probs`` is ``(n, k)`` log-probabilities (from
    :func:`log_softmax`), matching the paper's loss: "we take the negative
    log-likelihood loss of the log-probability vector with respect to the
    correct classes".
    """
    targets = np.asarray(targets)
    n, k = log_probs.shape
    if targets.shape != (n,):
        raise ValueError(f"targets must have shape ({n},), got {targets.shape}")
    if targets.min() < 0 or targets.max() >= k:
        raise ValueError(f"targets out of range [0, {k})")
    picked = log_probs[np.arange(n), targets]
    return -picked.mean()


def dropout(
    x: Tensor, p: float, rng: np.random.Generator, training: bool = True
) -> Tensor:
    """Inverted dropout: zero with probability ``p``, scale kept by 1/(1−p)."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout p must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    keep = 1.0 - p
    mask = (rng.random(x.shape) < keep).astype(x.dtype) / keep

    def backward(g):
        x._accum(g * mask)

    return Tensor.from_op(x.data * mask, (x,), backward)
