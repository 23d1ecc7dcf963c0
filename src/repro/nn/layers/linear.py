"""Dense (fully-connected) layer: one fused kernel.

The layer is a single graph node whose backward writes ``dW``, ``db`` and
``dx`` into preallocated scratch.  The per-op reference chain (reshape →
matmul → add → reshape) lives in ``tests/oracles/nn.py``, and
``tests/test_fused_backward.py`` pins the gradients bit-identical to it.
"""

from __future__ import annotations

import numpy as np

from repro.nn.init import kaiming_uniform, uniform_fan_in
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor, is_grad_enabled
from repro.utils.rng import as_generator

__all__ = ["Linear"]


class Linear(Module):
    """``y = x @ W + b`` with weight shape ``(in_features, out_features)``.

    Accepts any leading batch shape; the last axis must be ``in_features``.

    The backward computes ``dW = flatᵀ·g``, ``db = Σ g``, and
    ``dx = g·Wᵀ`` directly into preallocated scratch.  Scratch buffers are
    per-process and excluded from pickling.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: np.random.Generator | int | None = None,
    ):
        super().__init__()
        if in_features < 1 or out_features < 1:
            raise ValueError(
                f"features must be >= 1, got in={in_features}, out={out_features}"
            )
        rng = as_generator(rng)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            kaiming_uniform((in_features, out_features), rng), name="weight"
        )
        self.bias = (
            Parameter(uniform_fan_in((out_features,), rng), name="bias")
            if bias
            else None
        )
        self._bwd_scratch: dict | None = None

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_bwd_scratch"] = None  # per-process scratch, never persisted
        return state

    def _check_input(self, x: Tensor) -> None:
        if x.shape[-1] != self.in_features:
            raise ValueError(
                f"expected last dim {self.in_features}, got {x.shape[-1]}"
            )

    def forward(self, x: Tensor) -> Tensor:
        """Compute the layer's output for the given input."""
        self._check_input(x)
        w, b = self.weight, self.bias
        in_f, out_f = self.in_features, self.out_features
        flat = x.data.reshape(-1, in_f)
        out = flat @ w.data
        if b is not None:
            np.add(out, b.data, out=out)
        out = out.reshape(*x.shape[:-1], out_f)
        if not is_grad_enabled():
            return Tensor(out)

        def backward(g):
            g_flat = g.reshape(-1, out_f)
            s = self._bwd_scratch
            if s is None or s["rows"] != g_flat.shape[0]:
                s = self._bwd_scratch = {
                    "rows": g_flat.shape[0],
                    "dw": np.empty_like(w.data),
                    "db": None if b is None else np.empty_like(b.data),
                    "dx": np.empty((g_flat.shape[0], in_f), dtype=w.data.dtype),
                }
            if w.requires_grad:
                np.matmul(flat.T, g_flat, out=s["dw"])
                w._accum(s["dw"])
            if b is not None and b.requires_grad:
                # The reference adds the bias on the *flattened* 2-D
                # activations, so its unbroadcast grad is always a sum over
                # the single leading axis.
                np.sum(g_flat, axis=0, out=s["db"])
                b._accum(s["db"])
            if x.requires_grad:
                np.matmul(g_flat, w.data.T, out=s["dx"])
                x._accum(s["dx"].reshape(x.shape))

        parents = (x, w) if b is None else (x, w, b)
        return Tensor.from_op(out, parents, backward)
