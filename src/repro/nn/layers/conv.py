"""1-D convolution and max-pooling over channels-last sequences.

Input layout is ``(batch, time, channels)`` — the same layout the challenge
tensors and the LSTM use, so the paper's CNN-LSTM front end composes
without transposes.

Each layer has one kernel, a *fused* autograd node: the forward builds
strided windows with ``sliding_window_view`` (zero-copy) and contracts them
with one einsum/GEMM; the backward is hand-derived (see
:class:`repro.nn.tensor.Tensor.from_op`) and writes into per-shape scratch
reused across batches, avoiding hundreds of small graph nodes per
sequence.  Under :class:`~repro.nn.tensor.no_grad` the same forward
builds no backward closure and retains no forward state (input windows,
argmax indices, offsets), so nothing outlives the call but the output.

The allocating references (same contractions, same scatter order) live in
``tests/oracles/nn.py``; ``tests/test_fused_backward.py`` and
``tests/test_perf_fastpaths.py`` pin outputs and gradients bit-identical
to them.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.nn.init import kaiming_uniform, uniform_fan_in
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor, is_grad_enabled
from repro.utils.rng import as_generator

__all__ = ["Conv1d", "MaxPool1d"]


def conv_output_length(t: int, kernel: int, stride: int, padding: int = 0) -> int:
    """Output length for the given geometry."""
    t_eff = t + 2 * padding
    if t_eff < kernel:
        raise ValueError(f"sequence length {t_eff} shorter than kernel {kernel}")
    return (t_eff - kernel) // stride + 1


def resolve_padding(padding: int | str, kernel_size: int) -> int:
    """Resolve 'valid' / 'same' / explicit int padding."""
    if padding == "valid":
        return 0
    if padding == "same":
        if kernel_size % 2 == 0:
            raise ValueError("'same' padding requires an odd kernel size")
        return (kernel_size - 1) // 2
    pad = int(padding)
    if pad < 0:
        raise ValueError(f"padding must be >= 0, got {padding}")
    return pad


class Conv1d(Module):
    """Valid (no-padding) 1-D convolution, ``(N, T, C_in) → (N, T', C_out)``.

    Weight shape is ``(C_out, C_in, K)``; output ``T' = (T − K)//stride + 1``.

    The gradient contractions write into preallocated per-shape scratch
    reused across batches.  Scratch is per-process and excluded from
    pickling.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int | str = "valid",
        bias: bool = True,
        rng: np.random.Generator | int | None = None,
    ):
        super().__init__()
        if kernel_size < 1 or stride < 1:
            raise ValueError(
                f"kernel_size and stride must be >= 1, got {kernel_size}, {stride}"
            )
        rng = as_generator(rng)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self._pad = resolve_padding(padding, kernel_size)
        self.weight = Parameter(
            kaiming_uniform((out_channels, in_channels, kernel_size), rng),
            name="conv_weight",
        )
        self.bias = (
            Parameter(uniform_fan_in((out_channels,), rng), name="conv_bias")
            if bias
            else None
        )
        self._bwd_scratch: dict | None = None

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_bwd_scratch"] = None  # per-process scratch, never persisted
        return state

    def forward(self, x: Tensor) -> Tensor:
        """Compute the layer's output for the given input."""
        if x.ndim != 3 or x.shape[2] != self.in_channels:
            raise ValueError(
                f"expected (N, T, {self.in_channels}), got {x.shape}"
            )
        stride, K, pad = self.stride, self.kernel_size, self._pad
        w, b = self.weight, self.bias
        x_data = x.data
        if pad:
            x_data = np.pad(x_data, ((0, 0), (pad, pad), (0, 0)))
        # (N, T, C) -> windows (N, T', C, K), a strided view (no copy).
        windows = sliding_window_view(x_data, K, axis=1)[:, ::stride]
        out = np.einsum("ntck,ock->nto", windows, w.data, optimize=True)
        if not is_grad_enabled():
            # Inference fast path: same contraction, but no backward
            # closure and no retained windows/offsets — in-place bias add,
            # only the output survives the call.
            if b is not None:
                out += b.data
            return Tensor(np.ascontiguousarray(out, dtype=x.dtype))
        if b is not None:
            out = out + b.data
        out = np.ascontiguousarray(out, dtype=x.dtype)
        t_out = out.shape[1]
        offsets = np.arange(t_out) * stride

        parents = (x, w) if b is None else (x, w, b)

        def backward(g):
            # Every gradient lands in scratch reused across batches (the
            # engine copies on _accum, so reuse is safe).  For fixed k the
            # scatter targets offsets+k are distinct, so fancy-index
            # accumulation is race-free.
            s = self._bwd_scratch
            if s is None or s["key"] != x_data.shape:
                s = self._bwd_scratch = {
                    "key": x_data.shape,
                    "dw": np.empty_like(w.data),
                    "db": None if b is None else np.empty_like(b.data),
                    "dxw": np.empty(windows.shape, dtype=x_data.dtype),
                    "dx": np.empty_like(x_data),
                }
            if w.requires_grad:
                np.einsum("nto,ntck->ock", g, windows,
                          out=s["dw"], optimize=True)
                w._accum(s["dw"])
            if b is not None and b.requires_grad:
                np.sum(g, axis=(0, 1), out=s["db"])
                b._accum(s["db"])
            if x.requires_grad:
                dxw = s["dxw"]
                np.einsum("nto,ock->ntck", g, w.data, out=dxw, optimize=True)
                dx = s["dx"]
                dx.fill(0.0)
                for k in range(K):
                    dx[:, offsets + k, :] += dxw[:, :, :, k]
                if pad:
                    dx = dx[:, pad:-pad, :]
                x._accum(dx)

        return Tensor.from_op(out, parents, backward)


class MaxPool1d(Module):
    """Non-overlapping (by default) temporal max pooling, channels-last.

    The backward's scatter target and index grids live in per-shape
    scratch reused across batches.
    """

    def __init__(self, kernel_size: int, stride: int | None = None):
        super().__init__()
        if kernel_size < 1:
            raise ValueError(f"kernel_size must be >= 1, got {kernel_size}")
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size
        if self.stride < 1:
            raise ValueError(f"stride must be >= 1, got {self.stride}")
        self._bwd_scratch: dict | None = None

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_bwd_scratch"] = None  # per-process scratch, never persisted
        return state

    def forward(self, x: Tensor) -> Tensor:
        """Compute the layer's output for the given input."""
        if x.ndim != 3:
            raise ValueError(f"expected (N, T, C), got {x.shape}")
        K, stride = self.kernel_size, self.stride
        windows = sliding_window_view(x.data, K, axis=1)[:, ::stride]  # (N,T',C,K)
        if not is_grad_enabled():
            # Inference fast path: plain max — same elements the argmax
            # gather selects — with no argmax cache or backward closure.
            return Tensor(
                np.ascontiguousarray(windows.max(axis=3), dtype=x.dtype)
            )
        arg = windows.argmax(axis=3)  # (N, T', C)
        out = np.take_along_axis(windows, arg[..., None], axis=3)[..., 0]
        out = np.ascontiguousarray(out, dtype=x.dtype)
        n, t_out, c = out.shape
        offsets = np.arange(t_out) * stride

        def backward(g):
            if not x.requires_grad:
                return
            s = self._bwd_scratch
            if s is None or s["key"] != (x.shape, out.shape):
                s = self._bwd_scratch = {
                    "key": (x.shape, out.shape),
                    "dx": np.empty_like(x.data),
                    "n_idx": np.arange(n)[:, None, None],
                    "c_idx": np.arange(c)[None, None, :],
                }
            dx = s["dx"]
            dx.fill(0.0)
            time_idx = offsets[None, :, None] + arg
            np.add.at(dx, (s["n_idx"], time_idx, s["c_idx"]), g)
            x._accum(dx)

        return Tensor.from_op(out, (x,), backward)
