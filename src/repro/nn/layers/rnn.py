"""LSTM layers: one fused recurrence kernel for training and inference.

A per-op autograd LSTM would create hundreds of graph nodes per timestep;
here the whole sequence is one graph node.  :func:`_fused_seq_forward` is
the one LSTM recurrence: every per-step temporary lives in preallocated
float32 scratch reused across batches, and — for :class:`BiLSTM` — both
directions are stacked into one ``(2N, ·)`` row block so each elementwise
ufunc dispatches once instead of twice.  Elementwise ops round per
element, so stacking rows changes nothing; matmuls stay per-direction.

Under grad the kernel writes gate activations, cells and ``tanh(c)``
straight into ``(T, …)`` caches and returns a graph node whose
hand-derived BPTT backward reads them.  Under
:class:`~repro.nn.tensor.no_grad` the same loop writes every step into one
``(4, R·N, H)`` gate buffer and updates the cell in place: no caches, no
backward closure, and a scratch of its own, so an eval pass leaves the
training scratch alone.

The gate sigmoids have two regimes.  When :func:`_within_safe_range`
proves every pre-activation of every direction within
:data:`_SIGMOID_SAFE_MAX`, each step sigmoids the whole stacked gate row
with the textbook form.  Otherwise each step runs
:func:`_checked_gate_sigmoid`, one pass over the same row that picks the
textbook or the overflow-free piecewise form per (direction, gate) block,
as the reference's one checked call per block does; :func:`_step_regimes`
proves most steps' blocks from ``x W_ih + b`` alone, so only the rest
measure ``max|z|``.  Unscaled telemetry always takes the checked regime:
raw served windows reach sensor values in the tens of thousands, and
every block of every step is then piecewise.

The per-op reference (textbook BPTT, fresh temporaries every step) lives
in ``tests/oracles/nn.py``; ``tests/test_fused_backward.py`` and
``tests/test_perf_fastpaths.py`` pin outputs and gradients
**bit-identical** to it in both modes.

Gate order follows PyTorch: input ``i``, forget ``f``, cell ``g``,
output ``o``::

    z_t = x_t W_ih + h_{t-1} W_hh + b
    c_t = f·c_{t-1} + i·g ,   h_t = o·tanh(c_t)
"""

from __future__ import annotations

import numpy as np

from repro.nn.init import orthogonal, uniform_fan_in
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor, is_grad_enabled
from repro.utils.rng import as_generator

__all__ = ["LSTM", "BiLSTM"]

#: Largest |x| for which the textbook sigmoid is used: ``exp(75)`` ≈ 2.6e32,
#: far below float32 overflow, so ``1/(1+exp(-x))`` is safe on [-75, 75].
_SIGMOID_SAFE_MAX = 75.0


def _sigmoid_unchecked(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Textbook ``1/(1+exp(-x))`` in three in-place passes.

    The caller must guarantee ``max|x| <= _SIGMOID_SAFE_MAX`` (no overflow
    possible).  Rounds per element, so the result is independent of how the
    input rows are sliced or stacked — the property the fused BiLSTM kernel
    relies on when it evaluates both directions (and the adjacent ``i``/``f``
    gate blocks) in one call.
    """
    # x * -1.0 rather than np.negative: this numpy build's f32 negative
    # loop misreads strided operands at byte-stride 16 (a column view of a
    # 4-column float32 array — exactly the o-gate slice when hidden=1).
    # Multiplying by -1.0 flips the sign bit exactly, so the two are
    # bit-identical for every finite float32.
    np.multiply(x, -1.0, out=out)
    np.exp(out, out=out)
    np.add(out, 1.0, out=out)
    return np.divide(1.0, out, out=out)


def _checked_gate_sigmoid(z: np.ndarray, R: int, N: int, H: int, s: dict,
                          safe: tuple | None) -> None:
    """Sigmoid the stacked ``(R·N, 4H)`` gate row in place, one pass.

    Bit-identical to the reference's checked sigmoid called once per
    (direction, gate) block: a block whose ``max|x|`` exceeds
    :data:`_SIGMOID_SAFE_MAX` (or holds a NaN) takes the piecewise form
    ``exp(-|x|)/(1+exp(-|x|))`` for ``not (x >= 0)`` and ``1/(1+exp(-|x|))``
    otherwise; every other block takes the textbook ``1/(1+exp(-x))``.
    Both reduce to ``num/(e+1)`` with ``e = exp(u)``:

    * ``u = -|x|`` in a piecewise block and ``-x`` in a textbook block,
      i.e. ``min(-x, x + big)`` with ``big`` 0 or +inf per block;
    * ``num = min(max(e, x + big >= 0), 1)``: ``e`` for a piecewise
      ``x < 0`` (or NaN) and 1 otherwise, since ``e <= 1`` in a
      piecewise block.

    Each step is exact (sign flips, ``min``/``max``, adding 0 or +inf), so
    only ``exp`` rounds, on the same operand as the reference's; nothing
    overflows, because ``u <= 75`` everywhere.  The ``g`` columns, whose
    sigmoid is discarded, are always piecewise.

    ``safe`` holds one flag per (direction, gate), row-major, as
    :func:`_step_regimes` proves them; ``None`` measures each block's
    ``max|x|`` here.  ``big`` is rewritten only when a block changes
    regime, and with no textbook block (every step of a raw served
    window) its two passes are skipped.
    """
    nz, u, t, big, ge = s["nz"], s["u"], s["t"], s["big"], s["ge"]
    np.multiply(z, -1.0, out=nz)
    np.minimum(nz, z, out=u)                      # -|x|, NaN kept
    if safe is None:
        # -max|x| per block, the contiguous gate axis first; NaN is unsafe
        blk = np.min(np.min(u.reshape(R, N, 4, H), axis=3), axis=1)
        safe = tuple(v >= -_SIGMOID_SAFE_MAX and k != 2
                     for row in blk.tolist() for k, v in enumerate(row))
    if safe != s["safe"]:
        big4 = big.reshape(R, N, 4, H)
        for b, (new, old) in enumerate(zip(safe, s["safe"])):
            if new != old:
                big4[b // 4, :, b % 4] = np.inf if new else 0.0
        s["safe"] = safe
    textbook = any(safe)
    if textbook:
        np.add(z, big, out=t)
        np.minimum(nz, t, out=u)
    else:
        t = z
    np.greater_equal(t, 0.0, out=ge)
    np.exp(u, out=u)
    np.maximum(u, ge, out=nz)
    if textbook:
        np.minimum(nz, 1.0, out=nz)
    np.add(u, 1.0, out=u)
    np.divide(nz, u, out=z)


def _within_safe_range(zx: np.ndarray, dirs, N: int) -> bool:
    """Whether every gate pre-activation provably stays in the fast range.

    ``|z| = |x W_ih + b + h W_hh| <= max|x W_ih + b| + max_j Σ_k |W_hh[k,j]|``
    since hidden states satisfy ``|h| = |o·tanh(c)| <= 1``.  When that
    bound is within :data:`_SIGMOID_SAFE_MAX` for every direction, every
    per-block checked sigmoid of the reference takes its textbook branch.
    ``zx`` is the kernel's ``(R·N, T, 4H)`` scratch of ``x W_ih + b``, so
    each direction costs at most two flat reductions; ``max|zx|`` is
    checked as ``max`` and then ``-min``, and the first failure returns, so
    raw telemetry (whose large values are positive) usually reads only
    direction 0's ``max``.  A NaN never compares within range.
    """
    for d, (lstm, _reverse) in enumerate(dirs):
        block = zx[d * N:(d + 1) * N]
        if block.size == 0:
            continue
        c = float(np.max(np.abs(lstm.w_hh.data).sum(axis=0)))
        if not (float(np.max(block)) + c <= _SIGMOID_SAFE_MAX
                and -float(np.min(block)) + c <= _SIGMOID_SAFE_MAX):
            return False
    return True


def _step_regimes(zx: np.ndarray, dirs, N: int, T: int, H: int) -> list:
    """Per step, the (direction, gate) regimes that ``zx`` alone proves.

    With ``|h| <= 1``, gate ``k``'s pre-activations at step ``t`` satisfy
    ``A - C <= max|z| <= A + C``, where ``A`` is the block's ``max|zx|``
    and ``C`` the largest column sum of ``|W_hh|`` over the gate's columns
    (the lower bound holds at the element where ``|zx|`` peaks).  Each
    bound is widened by the float32 rounding of the ``H``-term product and
    the add.  A step whose every block lands on one side of
    :data:`_SIGMOID_SAFE_MAX` gets its flags for
    :func:`_checked_gate_sigmoid`; any other step gets ``None`` and is
    measured.  A NaN in ``zx`` can spread through ``h``, so then every
    step is measured.
    """
    R = len(dirs)
    z5 = zx.reshape(R, N, T, 4, H)
    a = np.maximum(np.max(np.max(z5, axis=1), axis=3),
                   -np.min(np.min(z5, axis=1), axis=3)).astype(np.float64)
    if np.isnan(a).any():
        return [None] * T
    c = np.stack([np.abs(lstm.w_hh.data.astype(np.float64))
                  .sum(axis=0).reshape(4, H).max(axis=1)
                  for lstm, _reverse in dirs])[:, None, :]
    slack = (H + 2) * 2.0 ** -23
    safe = (a + c * (1 + slack)) * (1 + slack) <= _SIGMOID_SAFE_MAX
    unsafe = (a - c * (1 + slack)) * (1 - slack) > _SIGMOID_SAFE_MAX
    safe[:, :, 2] = False
    unsafe[:, :, 2] = True
    decided = (safe | unsafe).all(axis=(0, 2)).tolist()
    flags = safe.transpose(1, 0, 2).reshape(T, R * 4).tolist()
    return [tuple(f) if ok else None for f, ok in zip(flags, decided)]


def _seq_scratch(host: Module, grad: bool, R: int, N: int, T: int, H: int,
                 D: int) -> dict:
    """Per-host kernel scratch for an ``(R·N, T)`` stacked problem.

    Training and inference keep separate scratch (``host._train_scratch``
    and ``host._eval_scratch``), each rebuilt only on shape change.
    ``steps[t]`` holds step ``t``'s write targets — the gate block, its
    ``i``/``f``/``g``/``o`` views, the previous and current cell and
    ``tanh(c)`` — precomputed so the hot loop does no slice arithmetic.
    Under grad they are views into the ``(T, …)`` BPTT caches; under
    no_grad every step shares one gate buffer and one cell, updated in
    place.
    """
    attr = "_train_scratch" if grad else "_eval_scratch"
    s = getattr(host, attr, None)
    if s is not None and s["key"] == (R, N, T, H, D):
        return s
    s = None  # release the outgrown buffers before allocating new ones
    setattr(host, attr, None)
    RN = R * N

    def buf(*shape):
        return np.empty(shape, dtype=np.float32)

    zeros = np.zeros((RN, H), dtype=np.float32)  # initial cell; never written
    s = {"key": (R, N, T, H, D), "xs": buf(RN, T, D), "zx": buf(RN, T, 4 * H),
         "zh": buf(RN, 4 * H), "z": buf(RN, 4 * H), "h": buf(RN, H),
         "ig": buf(RN, H),
         # _checked_gate_sigmoid: every block starts piecewise (big = 0)
         "nz": buf(RN, 4 * H), "u": buf(RN, 4 * H), "t": buf(RN, 4 * H),
         "big": np.zeros((RN, 4 * H), dtype=np.float32),
         "ge": np.empty((RN, 4 * H), dtype=bool),
         "safe": (False,) * (4 * R)}
    if not grad:
        gates, c, tc = buf(4, RN, H), buf(RN, H), buf(RN, H)
        s["steps"] = [(gates, *gates, c if t else zeros, c, tc)
                      for t in range(T)]
        setattr(host, attr, s)
        return s
    # Gate cache layout is (T, 4, RN, H): each gate activation is a
    # *contiguous* (RN, H) block, so every backward read (and the forward
    # cell/hidden updates) runs the ufunc inner loop over contiguous
    # memory instead of strided column slices of an (RN, 4H) row — 2-3x
    # faster per pass on this box.  Elementwise ops round per element, so
    # the layout is invisible to the math.
    gates, cells, tanh_c = buf(T, 4, RN, H), buf(T, RN, H), buf(T, RN, H)
    s["steps"] = [(gates[t], *gates[t], cells[t - 1] if t else zeros,
                   cells[t], tanh_c[t]) for t in range(T)]
    # dz is laid out (T, RN, 4H) so each step's block is contiguous, like
    # the reference's: numpy's matmul may take a different summation path
    # for a strided-row operand (it does at hidden=1), so dh_next must be
    # computed from a contiguous block to match the reference's bits.
    s["dz"] = buf(T, RN, 4 * H)
    for name in ("dh", "dc", "do", "dh_next", "dc_next", "t1", "t2"):
        s[name] = buf(RN, H)
    # (2, RN, H) scratch: the i/f gate derivative chains are the same
    # elementwise op sequence, so the backward runs them as one joint
    # pass over the stacked [i, f] blocks (bit-identical per element).
    s["ta"], s["tb"] = buf(2, RN, H), buf(2, RN, H)
    s["hp"] = buf(N, T, H)
    setattr(host, attr, s)
    return s


def _fused_seq_forward(x: Tensor, dirs, host: Module) -> Tensor:
    """Fused multi-direction LSTM forward + single fused BPTT backward.

    ``dirs`` is a list of ``(LSTM, reverse)`` pairs evaluated jointly by
    stacking their batch rows; the output concatenates their hidden
    sequences along the channel axis in ``dirs`` order.  Under no_grad the
    output is returned detached, with no caches written and no closure
    built.

    When a direction's pre-activation bound exceeds the sigmoid fast-path
    range, each step's gate sigmoids take :func:`_checked_gate_sigmoid`:
    one pass that chooses the branch per direction and gate block exactly
    as the reference's per-block checked calls do.

    Outputs and gradients are bit-identical to the per-direction reference
    in ``tests/oracles/nn.py``: every elementwise op rounds per element
    (stacking is invisible), matmuls run per direction on contiguous row
    blocks, and the reduction order of the three weight-gradient GEMMs is
    unchanged.
    """
    D, H = dirs[0][0].input_size, dirs[0][0].hidden_size
    if x.ndim != 3 or x.shape[2] != D:
        raise ValueError(f"expected (N, T, {D}), got {x.shape}")
    R = len(dirs)
    N, T = x.shape[:2]
    grad = is_grad_enabled()
    s = _seq_scratch(host, grad, R, N, T, H, D)
    xs, zx = s["xs"], s["zx"]
    for d, (lstm, reverse) in enumerate(dirs):
        sl = slice(d * N, (d + 1) * N)
        np.copyto(xs[sl], x.data[:, ::-1] if reverse else x.data)
        zx2 = zx[sl].reshape(N * T, 4 * H)
        np.matmul(xs[sl].reshape(N * T, D), lstm.w_ih.data, out=zx2)
        np.add(zx[sl], lstm.bias.data, out=zx[sl])
    safe = _within_safe_range(zx, dirs, N)
    regimes = None if safe else _step_regimes(zx, dirs, N, T, H)

    zh, z, h, ig, steps = s["zh"], s["z"], s["h"], s["ig"], s["steps"]
    out = np.empty((N, T, R * H), dtype=np.float32)
    h.fill(0.0)
    for t in range(T):
        for d, (lstm, _reverse) in enumerate(dirs):
            sl = slice(d * N, (d + 1) * N)
            np.matmul(h[sl], lstm.w_hh.data, out=zh[sl])
        np.add(zx[:, t], zh, out=z)
        _gt, i_v, f_v, g_v, o_v, c_prev, ct, tc = steps[t]
        np.tanh(z[:, 2 * H:3 * H], out=g_v)
        # Sigmoid the *whole* z row in place: one contiguous 4H-wide
        # pass beats three strided column-slice passes even though the
        # g columns' sigmoid output is discarded.
        if safe:
            _sigmoid_unchecked(z, out=z)
        else:
            _checked_gate_sigmoid(z, R, N, H, s, regimes[t])
        np.copyto(i_v, z[:, :H])
        np.copyto(f_v, z[:, H:2 * H])
        np.copyto(o_v, z[:, 3 * H:])
        np.multiply(i_v, g_v, out=ig)
        np.multiply(f_v, c_prev, out=ct)
        np.add(ct, ig, out=ct)
        np.tanh(ct, out=tc)
        np.multiply(o_v, tc, out=h)
        for d, (_lstm, reverse) in enumerate(dirs):
            out[:, T - 1 - t if reverse else t, d * H:(d + 1) * H] = \
                h[d * N:(d + 1) * N]
    if not grad:
        return Tensor(out)

    host._fused_gen = gen = getattr(host, "_fused_gen", 0) + 1
    parents = [x]
    for lstm, _reverse in dirs:
        parents += [lstm.w_ih, lstm.w_hh, lstm.bias]

    def backward(grad_out: np.ndarray) -> None:
        if host._fused_gen != gen:
            raise RuntimeError(
                "LSTM backward after a newer grad-mode forward of the same "
                "layer reused its scratch; call backward before the next "
                "forward, or run that forward under no_grad"
            )
        dz = s["dz"]
        dh, dc, do = s["dh"], s["dc"], s["do"]
        dh_next, dc_next = s["dh_next"], s["dc_next"]
        t1, t2 = s["t1"], s["t2"]
        ta, tb = s["ta"], s["tb"]
        dh_next.fill(0.0)
        dc_next.fill(0.0)
        for t in range(T - 1, -1, -1):
            for d, (lstm, reverse) in enumerate(dirs):
                dh[d * N:(d + 1) * N] = \
                    grad_out[:, T - 1 - t if reverse else t, d * H:(d + 1) * H]
            np.add(dh, dh_next, out=dh)
            gt, i_v, f_v, g_v, o_v, c_prev, _ct, tc = steps[t]
            dz_t = dz[t]
            # do = dh·tc ; dc = dh·o·(1−tc²) + dc_next  (reference op order)
            np.multiply(dh, tc, out=do)
            np.multiply(dh, o_v, out=t1)
            np.multiply(tc, tc, out=t2)
            np.subtract(1.0, t2, out=t2)
            np.multiply(t1, t2, out=t1)
            np.add(t1, dc_next, out=dc)
            # dz_i = (dc·g)·i·(1−i) ; dz_f = (dc·c_prev)·f·(1−f)
            # Same per-element chain, stacked gate blocks → one joint pass.
            np.multiply(dc, g_v, out=ta[0])
            np.multiply(dc, c_prev, out=ta[1])
            np.multiply(ta, gt[:2], out=ta)
            np.subtract(1.0, gt[:2], out=tb)
            np.multiply(ta[0], tb[0], out=dz_t[:, :H])
            np.multiply(ta[1], tb[1], out=dz_t[:, H:2 * H])
            # dz_g = (dc·i)·(1−g²)
            np.multiply(dc, i_v, out=t1)
            np.multiply(g_v, g_v, out=t2)
            np.subtract(1.0, t2, out=t2)
            np.multiply(t1, t2, out=dz_t[:, 2 * H:3 * H])
            # dz_o = do·o·(1−o)
            np.multiply(do, o_v, out=t1)
            np.subtract(1.0, o_v, out=t2)
            np.multiply(t1, t2, out=dz_t[:, 3 * H:])
            for d, (lstm, _reverse) in enumerate(dirs):
                sl = slice(d * N, (d + 1) * N)
                np.matmul(dz_t[sl], lstm.w_hh.data.T, out=dh_next[sl])
            np.multiply(dc, f_v, out=dc_next)

        hp = s["hp"]
        for d, (lstm, reverse) in enumerate(dirs):
            sl = slice(d * N, (d + 1) * N)
            # A contiguous sequence-major block, like the reference's (for
            # N=1 a plain reshape would give a strided-row view instead).
            dzf2 = np.ascontiguousarray(dz[:, sl].transpose(1, 0, 2)) \
                .reshape(N * T, 4 * H)
            if lstm.w_ih.requires_grad:
                lstm.w_ih._accum(xs[sl].reshape(N * T, D).T @ dzf2)
            if lstm.w_hh.requires_grad:
                hp[:, 0] = 0.0
                ch = slice(d * H, (d + 1) * H)
                hp[:, 1:] = out[:, :0:-1, ch] if reverse else out[:, :T - 1, ch]
                lstm.w_hh._accum(hp.reshape(N * T, H).T @ dzf2)
            if lstm.bias.requires_grad:
                lstm.bias._accum(dzf2.sum(axis=0))
            if x.requires_grad:
                dxs = (dzf2 @ lstm.w_ih.data.T).reshape(N, T, D)
                x._accum(dxs[:, ::-1] if reverse else dxs)

    return Tensor.from_op(out, parents, backward)


def _state_without_scratch(module: Module) -> dict:
    """``__getstate__`` of the recurrent layers: scratch buffers are
    per-process and never pickled."""
    state = {
        k: None if k.endswith("_scratch") else v
        for k, v in module.__dict__.items()
    }
    state.pop("_fused_gen", None)
    return state


class LSTM(Module):
    """Unidirectional LSTM returning the full hidden-state sequence.

    ``forward(x)`` maps ``(N, T, D) → (N, T, H)``.  Set ``reverse=True`` to
    process the sequence end-to-start; the output is returned in
    *original* time order either way.
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        rng: np.random.Generator | int | None = None,
    ):
        super().__init__()
        if input_size < 1 or hidden_size < 1:
            raise ValueError(
                f"sizes must be >= 1, got input={input_size}, hidden={hidden_size}"
            )
        rng = as_generator(rng)
        self.input_size = input_size
        self.hidden_size = hidden_size
        H = hidden_size
        self.w_ih = Parameter(uniform_fan_in((input_size, 4 * H), rng), name="w_ih")
        # Orthogonal recurrent blocks per gate keep long sequences stable.
        w_hh = np.concatenate([orthogonal((H, H), rng) for _ in range(4)], axis=1)
        self.w_hh = Parameter(w_hh, name="w_hh")
        bias = np.zeros(4 * H, dtype=np.float32)
        bias[H : 2 * H] = 1.0  # forget-gate bias 1: standard trick
        self.bias = Parameter(bias, name="bias")
        self._train_scratch: dict | None = None
        self._eval_scratch: dict | None = None

    def forward(self, x: Tensor, reverse: bool = False) -> Tensor:
        """Compute the layer's output for the given input."""
        return _fused_seq_forward(x, [(self, reverse)], self)

    __getstate__ = _state_without_scratch

    def last_hidden(self, output: Tensor, reverse: bool = False) -> Tensor:
        """Final hidden state from a full-sequence output.

        For a reversed pass the "final" state sits at original index 0.
        """
        return output[:, 0, :] if reverse else output[:, -1, :]


class BiLSTM(Module):
    """Bidirectional LSTM: forward and reversed passes, concatenated.

    ``forward(x)`` maps ``(N, T, D) → (N, T, 2H)`` (features =
    [forward_h_t ; backward_h_t]).  ``final_states(out)`` returns the
    ``(N, 2H)`` concatenation of the two directions' final states — the
    paper's classification head consumes that.

    Both directions run in one joint kernel in either mode — elementwise
    work stacked into ``(2N, ·)`` blocks, one graph node, no concatenation
    copy on the backward path.
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        rng: np.random.Generator | int | None = None,
    ):
        super().__init__()
        rng = as_generator(rng)
        self.hidden_size = hidden_size
        self.fw = LSTM(input_size, hidden_size, rng)
        self.bw = LSTM(input_size, hidden_size, rng)
        self._train_scratch: dict | None = None
        self._eval_scratch: dict | None = None
        self._fs_scratch: np.ndarray | None = None

    def forward(self, x: Tensor) -> Tensor:
        """Compute the layer's output for the given input."""
        return _fused_seq_forward(x, [(self.fw, False), (self.bw, True)], self)

    __getstate__ = _state_without_scratch

    def final_states(self, output: Tensor) -> Tensor:
        """(N, 2H): forward direction at t=T−1, backward direction at t=0.

        One graph node whose backward adds the head gradient into a zeroed
        per-shape scratch — bit-identical to the reference chain (two
        ``__getitem__`` scatters + a concatenate), which allocates a full
        ``(N, T, 2H)`` zeros array per slice per batch.
        """
        H = self.hidden_size
        data = np.concatenate(
            [output.data[:, -1, :H], output.data[:, 0, H:]], axis=1
        )

        def backward(g):
            if not output.requires_grad:
                return
            s = self._fs_scratch
            if s is None or s.shape != output.data.shape:
                s = self._fs_scratch = np.empty_like(output.data)
            s.fill(0.0)
            # Add-into-zeros mirrors the reference ``np.add.at`` scatter
            # (so signed zeros in g land identically: +0 + (-0) = +0).
            v = s[:, -1, :H]
            np.add(v, g[:, :H], out=v)
            v = s[:, 0, H:]
            np.add(v, g[:, H:], out=v)
            output._accum(s)

        return Tensor.from_op(data, (output,), backward)
