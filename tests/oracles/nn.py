"""Per-op reference implementations of the fused nn layers.

Each production layer in :mod:`repro.nn.layers` has one fused kernel.
The functions here are the paths those kernels replaced, kept as parity
oracles: they allocate freely, build fresh temporaries every step and
mirror the textbook recurrences, so they read end to end.

* :func:`linear_forward` — the per-op chain reshape → matmul → add →
  reshape, differentiated by the autograd engine;
* :func:`conv1d_forward`, :func:`maxpool1d_forward` — the training
  forwards with allocating backward closures (same contractions, same
  scatter order as the fused ones);
* :func:`_sigmoid` — the checked sigmoid, textbook or piecewise per call;
* :func:`lstm_forward` — one direction, per-step :func:`_sigmoid` calls
  per gate slice, textbook BPTT backward;
* :func:`bilstm_forward`, :func:`bilstm_final_states` — two
  :func:`lstm_forward` passes concatenated, and the ``__getitem__`` +
  concatenate head;
* :func:`adam_step_allocating` — one :class:`~repro.nn.optim.adam.Adam`
  update with a fresh temporary per operation instead of the in-place
  scratch sequence.

:func:`use_reference` rebinds every such layer of a model to its
reference, so a whole-model run can be compared with the fused one.
Outputs and gradients must be bit-identical.
"""

from __future__ import annotations

from types import MethodType

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.nn.layers.conv import Conv1d, MaxPool1d
from repro.nn.layers.linear import Linear
from repro.nn.layers.rnn import (
    _SIGMOID_SAFE_MAX, BiLSTM, LSTM, _sigmoid_unchecked,
)
from repro.nn.module import Module
from repro.nn.optim.adam import Adam
from repro.nn.tensor import Tensor

__all__ = [
    "linear_forward", "conv1d_forward", "maxpool1d_forward",
    "lstm_forward", "bilstm_forward", "bilstm_final_states",
    "use_reference", "adam_step_allocating",
]


def _sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Numerically stable logistic sigmoid, the kernel's per-block contract.

    Small-magnitude inputs take the textbook ``1/(1+exp(-x))`` form.  When
    any ``|x|`` exceeds :data:`_SIGMOID_SAFE_MAX` (or ``x`` holds a NaN)
    the call falls back to the piecewise form, where ``exp`` is only ever
    taken of ``-|x|`` so large pre-activations cannot overflow: for
    ``x >= 0`` it is again ``1/(1+exp(-x))``; otherwise the algebraically
    equal ``exp(x)/(1+exp(x))``.

    The branch is chosen per *call* from the array's max magnitude, so the
    LSTM kernel, which sigmoids every (direction, gate) block of a step in
    one pass, must choose it per block exactly as one call per block would.
    """
    if x.size and float(np.max(np.abs(x))) <= _SIGMOID_SAFE_MAX:
        return _sigmoid_unchecked(x, np.empty_like(x) if out is None else out)
    e = np.exp(-np.abs(x))
    num = np.where(x >= 0.0, 1.0, e)
    np.add(e, 1.0, out=e)
    return np.divide(num, e, out=num if out is None else out)


def linear_forward(layer: Linear, x: Tensor) -> Tensor:
    """Per-op reference chain; gradient parity target for the fused path."""
    layer._check_input(x)
    flat = x.reshape(-1, layer.in_features) if x.ndim != 2 else x
    out = flat @ layer.weight
    if layer.bias is not None:
        out = out + layer.bias
    if x.ndim != 2:
        out = out.reshape(*x.shape[:-1], layer.out_features)
    return out


def conv1d_forward(layer: Conv1d, x: Tensor) -> Tensor:
    """Training forward with an allocating backward: one fresh array per
    gradient."""
    if x.ndim != 3 or x.shape[2] != layer.in_channels:
        raise ValueError(
            f"expected (N, T, {layer.in_channels}), got {x.shape}"
        )
    stride, K, pad = layer.stride, layer.kernel_size, layer._pad
    w, b = layer.weight, layer.bias
    x_data = x.data
    if pad:
        x_data = np.pad(x_data, ((0, 0), (pad, pad), (0, 0)))
    windows = sliding_window_view(x_data, K, axis=1)[:, ::stride]
    out = np.einsum("ntck,ock->nto", windows, w.data, optimize=True)
    if b is not None:
        out = out + b.data
    out = np.ascontiguousarray(out, dtype=x.dtype)
    t_out = out.shape[1]
    offsets = np.arange(t_out) * stride

    parents = (x, w) if b is None else (x, w, b)

    def backward_slow(g):
        # Allocating reference: one fresh array per gradient.
        if w.requires_grad:
            w._accum(np.einsum("nto,ntck->ock", g, windows, optimize=True))
        if b is not None and b.requires_grad:
            b._accum(g.sum(axis=(0, 1)))
        if x.requires_grad:
            dxw = np.einsum("nto,ock->ntck", g, w.data, optimize=True)
            dx = np.zeros_like(x_data)
            # For fixed k the target positions offsets+k are distinct,
            # so fancy-index accumulation is race-free.
            for k in range(K):
                dx[:, offsets + k, :] += dxw[:, :, :, k]
            if pad:
                dx = dx[:, pad:-pad, :]
            x._accum(dx)

    return Tensor.from_op(out, parents, backward_slow)


def maxpool1d_forward(layer: MaxPool1d, x: Tensor) -> Tensor:
    """Argmax-gather forward with an allocating ``np.add.at`` backward."""
    if x.ndim != 3:
        raise ValueError(f"expected (N, T, C), got {x.shape}")
    K, stride = layer.kernel_size, layer.stride
    windows = sliding_window_view(x.data, K, axis=1)[:, ::stride]  # (N,T',C,K)
    arg = windows.argmax(axis=3)  # (N, T', C)
    out = np.take_along_axis(windows, arg[..., None], axis=3)[..., 0]
    out = np.ascontiguousarray(out, dtype=x.dtype)
    n, t_out, c = out.shape
    offsets = np.arange(t_out) * stride

    def backward_slow(g):
        if not x.requires_grad:
            return
        dx = np.zeros_like(x.data)
        time_idx = offsets[None, :, None] + arg  # (N, T', C)
        n_idx = np.arange(n)[:, None, None]
        c_idx = np.arange(c)[None, None, :]
        np.add.at(dx, (n_idx, time_idx, c_idx), g)
        x._accum(dx)

    return Tensor.from_op(out, (x,), backward_slow)


def lstm_forward(layer: LSTM, x: Tensor, reverse: bool = False) -> Tensor:
    """Per-op closure-graph reference path; builds fresh per-step
    temporaries every call."""
    if x.ndim != 3 or x.shape[2] != layer.input_size:
        raise ValueError(f"expected (N, T, {layer.input_size}), got {x.shape}")
    N, T, _D = x.shape
    H = layer.hidden_size
    w_ih, w_hh, bias = layer.w_ih, layer.w_hh, layer.bias

    # A contiguous copy: when N == D == 1 the reversed view reshapes to a
    # negative-stride (T, 1) view, and numpy's matmul sums that in another
    # order than the contiguous operand every other shape gets.
    xs = np.ascontiguousarray(x.data[:, ::-1]) if reverse else x.data
    # Input contribution for all steps at once: one big GEMM.
    zx = xs.reshape(N * T, -1) @ w_ih.data
    zx = zx.reshape(N, T, 4 * H) + bias.data

    gates = np.empty((T, N, 4 * H), dtype=np.float32)  # activated i,f,g,o
    cells = np.empty((T, N, H), dtype=np.float32)      # c_t
    tanh_c = np.empty((T, N, H), dtype=np.float32)
    h_prev_all = np.empty((T, N, H), dtype=np.float32)
    h = np.zeros((N, H), dtype=np.float32)
    c = np.zeros((N, H), dtype=np.float32)
    out = np.empty((N, T, H), dtype=np.float32)

    for t in range(T):
        h_prev_all[t] = h
        z = zx[:, t] + h @ w_hh.data
        i = _sigmoid(z[:, :H])
        f = _sigmoid(z[:, H : 2 * H])
        g = np.tanh(z[:, 2 * H : 3 * H])
        o = _sigmoid(z[:, 3 * H :])
        c = f * c + i * g
        tc = np.tanh(c)
        h = o * tc
        gates[t, :, :H] = i
        gates[t, :, H : 2 * H] = f
        gates[t, :, 2 * H : 3 * H] = g
        gates[t, :, 3 * H :] = o
        cells[t] = c
        tanh_c[t] = tc
        out[:, t] = h

    out_final = out[:, ::-1].copy() if reverse else out

    def _backward_slow(grad_out: np.ndarray) -> None:
        g_out = grad_out[:, ::-1] if reverse else grad_out  # (N, T, H)
        dz_all = np.empty((T, N, 4 * H), dtype=np.float32)
        dh_next = np.zeros((N, H), dtype=np.float32)
        dc_next = np.zeros((N, H), dtype=np.float32)
        w_hh_T = w_hh.data.T
        for t in range(T - 1, -1, -1):
            i = gates[t, :, :H]
            f = gates[t, :, H : 2 * H]
            gg = gates[t, :, 2 * H : 3 * H]
            o = gates[t, :, 3 * H :]
            tc = tanh_c[t]
            c_prev = cells[t - 1] if t > 0 else np.zeros((N, H), dtype=np.float32)

            dh = g_out[:, t] + dh_next
            do = dh * tc
            dc = dh * o * (1.0 - tc**2) + dc_next
            di = dc * gg
            df = dc * c_prev
            dg = dc * i
            dz = dz_all[t]
            dz[:, :H] = di * i * (1.0 - i)
            dz[:, H : 2 * H] = df * f * (1.0 - f)
            dz[:, 2 * H : 3 * H] = dg * (1.0 - gg**2)
            dz[:, 3 * H :] = do * o * (1.0 - o)
            dh_next = dz @ w_hh_T
            dc_next = dc * f

        dz_flat = dz_all.transpose(1, 0, 2).reshape(N * T, 4 * H)
        if w_ih.requires_grad:
            w_ih._accum(xs.reshape(N * T, -1).T @ dz_flat)
        if w_hh.requires_grad:
            hp = h_prev_all.transpose(1, 0, 2).reshape(N * T, H)
            w_hh._accum(hp.T @ dz_flat)
        if bias.requires_grad:
            bias._accum(dz_flat.sum(axis=0))
        if x.requires_grad:
            dxs = (dz_flat @ w_ih.data.T).reshape(N, T, -1)
            x._accum(dxs[:, ::-1] if reverse else dxs)

    return Tensor.from_op(out_final, (x, w_ih, w_hh, bias), _backward_slow)


def bilstm_forward(layer: BiLSTM, x: Tensor) -> Tensor:
    """Two single-direction reference passes, concatenated."""
    out_f = lstm_forward(layer.fw, x)
    out_b = lstm_forward(layer.bw, x, reverse=True)
    return Tensor.concatenate([out_f, out_b], axis=2)


def bilstm_final_states(layer: BiLSTM, output: Tensor) -> Tensor:
    """Reference head: two ``__getitem__`` scatters + a concatenate."""
    H = layer.hidden_size
    fw_last = output[:, -1, :H]
    bw_last = output[:, 0, H:]
    return Tensor.concatenate([fw_last, bw_last], axis=1)


_REFERENCE_FORWARD = {
    Linear: linear_forward,
    Conv1d: conv1d_forward,
    MaxPool1d: maxpool1d_forward,
    LSTM: lstm_forward,
    BiLSTM: bilstm_forward,
}


def use_reference(model: Module) -> Module:
    """Rebind every fused layer of ``model`` (itself included) to its
    reference ``forward``, and each BiLSTM's ``final_states`` to the
    reference head.  The bindings are instance attributes; returns
    ``model``."""
    for module in model.modules():
        ref = _REFERENCE_FORWARD.get(type(module))
        if ref is not None:
            module.forward = MethodType(ref, module)
        if isinstance(module, BiLSTM):
            module.final_states = MethodType(bilstm_final_states, module)
    return model


def adam_step_allocating(opt: Adam) -> None:
    """One update of ``opt`` by the allocating form of ``Adam.step``.

    Advances ``opt``'s step count and moments exactly as ``opt.step()``
    would; ``opt.lr`` multiplies the update last, so a ``np.float64`` lr
    promotes it to float64 here as it does in the in-place body.
    """
    opt._t += 1
    b1, b2 = opt.betas
    bc1 = 1.0 - b1**opt._t
    bc2 = 1.0 - b2**opt._t
    wd = opt.weight_decay
    for p, m, v in zip(opt.params, opt._m, opt._v):
        if p.grad is None:
            continue
        g = p.grad
        if wd and not opt.decoupled_weight_decay:
            g = g + wd * p.data
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        update = (m / bc1) / (np.sqrt(v / bc2) + opt.eps)
        if wd and opt.decoupled_weight_decay:
            update = update + wd * p.data
        p.data -= opt.lr * update
