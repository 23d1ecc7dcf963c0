"""Fused backward kernels: bitwise parity with the slow references.

Every layer with a fused backward (``Linear``, ``Conv1d``, ``MaxPool1d``,
``LSTM``, ``BiLSTM``) keeps its pre-fusion autograd path behind
``fused_backward = False``.  These tests pin the contract: same inputs
and cotangents ⇒ *bit-identical* gradients, for hand-picked shapes and
hypothesis-drawn ones, and a bit-identical two-epoch training run; the
persistent gradient buffer never aliases caller arrays; and the Adam fast
path reproduces the legacy allocating update exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nn.layers.conv import Conv1d, MaxPool1d
from repro.nn.layers.linear import Linear
from repro.nn.layers.rnn import BiLSTM, LSTM
from repro.nn.optim.adam import Adam
from repro.nn.tensor import Tensor


def _twin_grads(make_layer, x_shape, seed):
    """Gradients of the same layer/input under fused and slow backward."""
    rng = np.random.default_rng(seed)
    x_data = rng.standard_normal(x_shape).astype(np.float32)
    out_grads = {}
    for fused in (True, False):
        layer = make_layer()
        layer.fused_backward = fused
        x = Tensor(x_data.copy(), requires_grad=True)
        out = layer(x)
        cot = np.random.default_rng(seed + 1) \
            .standard_normal(out.shape).astype(np.float32)
        out.backward(cot)
        out_grads[fused] = {
            **{name: p.grad.copy() for name, p in layer.named_parameters()},
            "__x__": x.grad.copy(),
        }
    return out_grads


def _assert_twin_parity(make_layer, x_shape, seed=0):
    grads = _twin_grads(make_layer, x_shape, seed)
    for name in grads[True]:
        assert np.array_equal(grads[True][name], grads[False][name]), (
            f"fused vs slow gradient of {name} differs for {x_shape}")


CASES = [
    ("linear.2d", lambda: Linear(13, 7, rng=0), (8, 13)),
    ("linear.3d", lambda: Linear(5, 9, rng=0), (4, 6, 5)),
    ("linear.nobias", lambda: Linear(13, 7, bias=False, rng=0), (8, 13)),
    ("conv1d.k5", lambda: Conv1d(7, 11, 5, rng=0), (4, 30, 7)),
    ("conv1d.same", lambda: Conv1d(7, 11, 5, padding="same", rng=0), (4, 30, 7)),
    ("conv1d.stride2", lambda: Conv1d(3, 4, 3, stride=2, rng=0), (2, 19, 3)),
    ("maxpool.k2", lambda: MaxPool1d(2), (4, 30, 7)),
    ("maxpool.k3s2", lambda: MaxPool1d(3, stride=2), (4, 30, 7)),
    ("lstm", lambda: LSTM(7, 12, rng=0), (5, 17, 7)),
    ("bilstm", lambda: BiLSTM(7, 12, rng=0), (5, 17, 7)),
]


class TestFusedGradientParity:
    @pytest.mark.parametrize("name,make_layer,x_shape",
                             CASES, ids=[c[0] for c in CASES])
    def test_bitwise_parity(self, name, make_layer, x_shape):
        _assert_twin_parity(make_layer, x_shape)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 9), st.integers(1, 12),
           st.integers(1, 12))
    def test_linear_random_shapes(self, seed, batch, d_in, d_out):
        _assert_twin_parity(
            lambda: Linear(d_in, d_out, rng=seed), (batch, d_in), seed)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 4), st.integers(5, 20),
           st.integers(1, 5), st.integers(1, 6), st.integers(1, 5),
           st.integers(1, 2))
    def test_conv1d_random_shapes(self, seed, batch, t, c_in, c_out, k, stride):
        _assert_twin_parity(
            lambda: Conv1d(c_in, c_out, min(k, t), stride=stride, rng=seed),
            (batch, t, c_in), seed)

    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 4), st.integers(2, 12),
           st.integers(1, 5), st.integers(1, 8),
           st.sampled_from([LSTM, BiLSTM]))
    def test_lstm_random_shapes(self, seed, batch, t, d_in, hidden, cls):
        _assert_twin_parity(
            lambda: cls(d_in, hidden, rng=seed), (batch, t, d_in), seed)


class TestGradientBuffer:
    """The persistent ``_grad_buf`` contract fused kernels rely on."""

    def test_first_contribution_is_copied(self):
        # Fused layers pass scratch they overwrite next batch; _accum must
        # never retain the caller's array by reference.
        p = Tensor(np.zeros(4, np.float32), requires_grad=True)
        scratch = np.arange(4, dtype=np.float32)
        p._accum(scratch)
        scratch[:] = -1.0
        np.testing.assert_array_equal(p.grad, [0.0, 1.0, 2.0, 3.0])
        assert p.grad is not scratch

    def test_zero_grad_keeps_buffer(self):
        p = Tensor(np.zeros(4, np.float32), requires_grad=True)
        p._accum(np.ones(4, np.float32))
        buf = p.grad
        p.zero_grad()
        assert p.grad is None
        p._accum(np.full(4, 2.0, np.float32))
        assert p.grad is buf  # refilled in place, no fresh allocation
        np.testing.assert_array_equal(p.grad, np.full(4, 2.0))

    def test_second_contribution_adds_in_place(self):
        p = Tensor(np.zeros(3, np.float32), requires_grad=True)
        p._accum(np.ones(3, np.float32))
        buf = p.grad
        p._accum(np.full(3, 2.0, np.float32))
        assert p.grad is buf
        np.testing.assert_array_equal(p.grad, np.full(3, 3.0))

    def test_externally_assigned_grad_not_mutated(self):
        p = Tensor(np.zeros(3, np.float32), requires_grad=True)
        external = np.ones(3, np.float32)
        p.grad = external
        p._accum(np.ones(3, np.float32))
        np.testing.assert_array_equal(external, np.ones(3))  # untouched
        np.testing.assert_array_equal(p.grad, np.full(3, 2.0))

    def test_module_zero_grad_in_place(self):
        layer = Linear(5, 3, rng=0)
        x = Tensor(np.ones((2, 5), np.float32), requires_grad=True)
        layer(x).backward(np.ones((2, 3), np.float32))
        bufs = {n: p.grad for n, p in layer.named_parameters()}
        layer.zero_grad()
        assert all(p.grad is None for _, p in layer.named_parameters())
        layer(x).backward(np.ones((2, 3), np.float32))
        for n, p in layer.named_parameters():
            assert p.grad is bufs[n]


class TestAdamFastPath:
    def _steps(self, force_legacy, n_steps=5, seed=0):
        rng = np.random.default_rng(seed)
        params = [Tensor(rng.standard_normal(s).astype(np.float32),
                         requires_grad=True)
                  for s in [(4, 3), (3,), (2, 2, 2)]]
        opt = Adam(params, lr=1e-3, weight_decay=1e-4)
        if force_legacy:
            # A non-``float`` eps disables the in-place fast path while
            # keeping the arithmetic float32 (np.float32 adds to a float32
            # array exactly like the cast python float does).
            opt.eps = np.float32(opt.eps)
        grad_rng = np.random.default_rng(seed + 1)
        for _ in range(n_steps):
            for p in params:
                p.zero_grad()
                p._accum(grad_rng.standard_normal(p.data.shape)
                         .astype(np.float32))
            opt.step()
        return [p.data.copy() for p in params]

    def test_fast_matches_legacy_bitwise(self):
        fast = self._steps(force_legacy=False)
        legacy = self._steps(force_legacy=True)
        for a, b in zip(fast, legacy):
            assert np.array_equal(a, b)

    def test_fast_path_does_not_allocate_per_step(self):
        p = Tensor(np.ones((8, 8), np.float32), requires_grad=True)
        opt = Adam([p], lr=1e-3)
        p._accum(np.ones((8, 8), np.float32))
        opt.step()
        scratch = opt._scratch
        assert scratch is not None
        opt.step()
        assert opt._scratch is scratch  # reused, not reallocated


class TestWholeModelParity:
    def test_two_epoch_trajectory(self):
        # The composition gate: all-fused vs all-slow training must walk
        # the same trajectory bit for bit, final parameters included.
        from repro.models import LSTMClassifier
        from repro.nn import NLLLoss, Trainer

        rng = np.random.default_rng(0)
        X = rng.standard_normal((64, 20, 7)).astype(np.float32)
        y = rng.integers(0, 5, size=64).astype(np.int64)
        runs = {}
        for fused in (True, False):
            model = LSTMClassifier(n_sensors=7, seq_len=20, n_classes=5,
                                   hidden_size=16, dropout=0.5, seed=0)
            for m in model.modules():
                if hasattr(m, "fused_backward"):
                    m.fused_backward = fused
            trainer = Trainer(model, Adam(model.parameters(), lr=1e-3),
                              NLLLoss(), batch_size=16, max_epochs=2,
                              patience=100, shuffle_rng=0)
            hist = trainer.fit(X, y, X[:16], y[:16])
            runs[fused] = (
                [(e.epoch, e.train_loss, e.val_accuracy, e.lr)
                 for e in hist.epochs],
                {n: p.data.copy() for n, p in model.named_parameters()},
            )
        assert runs[True][0] == runs[False][0]
        for name in runs[True][1]:
            assert np.array_equal(runs[True][1][name], runs[False][1][name]), (
                f"final parameter {name} differs (fused vs slow)")
