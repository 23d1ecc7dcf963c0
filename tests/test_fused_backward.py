"""Fused backward kernels: bitwise parity with the references.

Every layer with a fused kernel (``Linear``, ``Conv1d``, ``MaxPool1d``,
``LSTM``, ``BiLSTM``) has its pre-fusion autograd path in
``tests/oracles/nn.py``.  These tests pin the contract: same inputs
and cotangents ⇒ *bit-identical* gradients, for hand-picked shapes and
hypothesis-drawn ones, past the sigmoid fast-path range, and a
bit-identical two-epoch training run; the persistent gradient buffer never
aliases caller arrays; and ``Adam.step`` reproduces the allocating
update exactly, with a Python-float lr and with a scheduled np.float64 lr.
"""

import re
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.nn.layers.conv import Conv1d, MaxPool1d
from repro.nn.layers.linear import Linear
from repro.nn.layers.rnn import (
    _SIGMOID_SAFE_MAX, BiLSTM, LSTM, _step_regimes,
)
from repro.nn.optim.adam import Adam
from repro.nn.optim.schedulers import CyclicCosineLR
from repro.nn.tensor import Tensor, no_grad
from tests.oracles.nn import (
    adam_step_allocating, bilstm_forward, lstm_forward, use_reference,
)


def _twin_grads(make_layer, x_shape, seed):
    """Gradients of the same layer/input through the kernel and the oracle."""
    rng = np.random.default_rng(seed)
    x_data = rng.standard_normal(x_shape).astype(np.float32)
    out_grads = {}
    for fused in (True, False):
        layer = make_layer()
        if not fused:
            use_reference(layer)
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
    # Degenerate layouts where a reshape is a strided view, not a copy,
    # and numpy's matmul would sum in another order: 4-column gate rows
    # (hidden=1) and single-row, single-channel sequences.
    ("lstm.hidden1", lambda: LSTM(3, 1, rng=0), (3, 2, 3)),
    ("bilstm.n1_d1", lambda: BiLSTM(1, 2, rng=0), (1, 2, 1)),
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


def _scaled_x(shape, seed, scale):
    return (np.random.default_rng(seed).standard_normal(shape) * scale) \
        .astype(np.float32)


def _run(layer, x_data, cot, reverse):
    """Output, no_grad output and gradients of ``layer`` on ``x_data``."""
    kw = {"reverse": True} if reverse else {}
    x = Tensor(x_data.copy(), requires_grad=True)
    out = layer(x, **kw)
    out.backward(cot)
    with no_grad():
        eval_out = layer(Tensor(x_data.copy()), **kw).data
    grads = {name: p.grad.copy() for name, p in layer.named_parameters()}
    grads["__x__"] = x.grad.copy()
    return out.data, eval_out, grads


def _bounds(layer, x_data, reverse=False):
    """Each direction's gate bound, ``max|zx| + max colsum|W_hh|``, of an
    LSTM or BiLSTM."""
    dirs = [(layer.fw, False), (layer.bw, True)] \
        if isinstance(layer, BiLSTM) else [(layer, reverse)]
    bounds = []
    for lstm, rev in dirs:
        xs = x_data[:, ::-1] if rev else x_data
        zx = xs @ lstm.w_ih.data + lstm.bias.data
        mx = max(-float(np.min(zx)), float(np.max(zx)))
        bounds.append(mx + float(np.max(np.abs(lstm.w_hh.data).sum(axis=0))))
    return bounds


def _scale_bw(layer, name, factor):
    getattr(layer.bw, name).data *= factor
    return layer


SIGMOID_CASES = [
    # (id, make_layer, x scale, reverse, expected unsafe directions)
    ("lstm.x100", lambda: LSTM(5, 6, rng=0), 100.0, False, [True]),
    ("lstm.reverse.x100", lambda: LSTM(5, 6, rng=0), 100.0, True, [True]),
    ("bilstm.both.x100", lambda: BiLSTM(5, 6, rng=0), 100.0, False,
     [True, True]),
    ("bilstm.bw_only.w_hh40",
     lambda: _scale_bw(BiLSTM(5, 6, rng=0), "w_hh", 40.0), 1.0, False,
     [False, True]),
    # bw's inputs scaled: its gates really leave [-75, 75], so the checked
    # sigmoid takes its piecewise branch for bw rows only.
    ("bilstm.bw_only.w_ih100",
     lambda: _scale_bw(BiLSTM(5, 6, rng=0), "w_ih", 100.0), 1.0, False,
     [False, True]),
]


class TestSigmoidRangeFallback:
    """Past ``_SIGMOID_SAFE_MAX`` the kernel uses the checked sigmoid per
    direction and gate slice; outputs and gradients still match the
    oracle bit for bit, with no overflow anywhere."""

    @pytest.mark.parametrize("name,make_layer,scale,reverse,unsafe",
                             SIGMOID_CASES, ids=[c[0] for c in SIGMOID_CASES])
    def test_matches_oracle_past_safe_range(self, name, make_layer, scale,
                                            reverse, unsafe):
        x_data = _scaled_x((3, 7, 5), 0, scale)
        cot = _scaled_x((3, 7, 6 * len(unsafe)), 1, 1.0)
        with np.errstate(over="raise"):
            kernel = make_layer()
            assert [b > _SIGMOID_SAFE_MAX
                    for b in _bounds(kernel, x_data, reverse)] == unsafe
            out, eval_out, grads = _run(kernel, x_data, cot, reverse)
            ref_out, ref_eval, ref_grads = _run(
                use_reference(make_layer()), x_data, cot, reverse)
        assert np.array_equal(out, ref_out)
        assert np.array_equal(eval_out, ref_out)
        assert np.array_equal(ref_eval, ref_out)
        assert grads.keys() == ref_grads.keys()
        for key in grads:
            assert np.array_equal(grads[key], ref_grads[key]), key


def _directions(layer, reverse):
    if isinstance(layer, BiLSTM):
        return [(layer.fw, False), (layer.bw, True)]
    return [(layer, reverse)]


def _block_maxima(layer, x_data, reverse):
    """``max|z|`` of every (step, direction, gate) block, replayed from the
    oracle's hidden states exactly as the oracle forms ``z``."""
    dirs = _directions(layer, reverse)
    out = (bilstm_forward(layer, Tensor(x_data)) if isinstance(layer, BiLSTM)
           else lstm_forward(layer, Tensor(x_data), reverse=reverse)).data
    N, T, _D = x_data.shape
    H = dirs[0][0].hidden_size
    maxima = np.empty((T, len(dirs), 4), dtype=np.float32)
    for d, (lstm, rev) in enumerate(dirs):
        xs = np.ascontiguousarray(x_data[:, ::-1]) if rev else x_data
        hs = out[:, ::-1, d * H:(d + 1) * H] if rev \
            else out[:, :, d * H:(d + 1) * H]
        zx = (xs.reshape(N * T, -1) @ lstm.w_ih.data).reshape(N, T, 4 * H) \
            + lstm.bias.data
        h = np.zeros((N, H), dtype=np.float32)
        for t in range(T):
            z = zx[:, t] + h @ lstm.w_hh.data
            maxima[t, d] = np.abs(z).reshape(N, 4, H).max(axis=(0, 2))
            h = np.ascontiguousarray(hs[:, t])
    return maxima


# Raw-telemetry magnitudes (served windows reach ~3e4), sequences whose
# magnitude ramps through the safe range, one gate's input weights
# scaled up so that its blocks leave the safe range while the others stay
# in it, and a non-finite input element.
lstm_case = st.fixed_dictionaries(
    {
        "cls": st.sampled_from([LSTM, BiLSTM]),
        "n": st.integers(1, 4),
        "t": st.integers(1, 9),
        "d": st.integers(1, 4),
        "h": st.integers(1, 6),
        "reverse": st.booleans(),
        "scale": st.floats(-1.0, 4.47).map(lambda e: 10.0 ** e),  # to 3e4
        "ramp": st.booleans(),
        "hot_gate": st.sampled_from([None, 0, 1, 2, 3]),
        "special": st.sampled_from([None, np.inf, -np.inf, np.nan]),
        "seed": st.integers(0, 2**32 - 1),
    }
)

MIXED = {"cls": BiLSTM, "n": 3, "t": 6, "d": 3, "h": 4, "reverse": False,
         "scale": 0.5, "ramp": False, "hot_gate": 1, "special": None,
         "seed": 7}
CROSSING = {"cls": LSTM, "n": 2, "t": 8, "d": 3, "h": 5, "reverse": True,
            "scale": 60.0, "ramp": True, "hot_gate": None, "special": None,
            "seed": 3}


def _case_inputs(case):
    rng = np.random.default_rng(case["seed"])
    layer = case["cls"](case["d"], case["h"], rng=case["seed"])
    if case["hot_gate"] is not None:
        # only the first direction, so a BiLSTM mixes across directions too
        lstm = layer.fw if isinstance(layer, BiLSTM) else layer
        k, H = case["hot_gate"], case["h"]
        lstm.w_ih.data[:, k * H:(k + 1) * H] *= 1000.0
    shape = (case["n"], case["t"], case["d"])
    x = rng.standard_normal(shape) * case["scale"]
    if case["ramp"]:
        x *= np.linspace(0.0, 2.0, case["t"])[None, :, None]
    if case["special"] is not None:
        x[tuple(int(rng.integers(0, s)) for s in shape)] = case["special"]
    width = case["h"] * (2 if case["cls"] is BiLSTM else 1)
    cot = rng.standard_normal((case["n"], case["t"], width))
    reverse = case["reverse"] and case["cls"] is LSTM
    return layer, x.astype(np.float32), cot.astype(np.float32), reverse


class TestCheckedSigmoidSweep:
    """Random layers past the safe range, up to raw-telemetry scale: the
    one-pass per-block sigmoid equals the oracle's per-block calls, array
    for array, in both modes; NaN lands in the same places."""

    @settings(max_examples=60, deadline=None)
    @given(lstm_case)
    @example({**MIXED}).via("some blocks safe, others not, in one step")
    @example({**CROSSING}).via("blocks cross 75 mid-sequence")
    @example({**MIXED, "special": np.inf}).via("+inf input")
    @example({**CROSSING, "special": -np.inf}).via("-inf input")
    @example({**MIXED, "special": np.nan}).via("NaN input")
    def test_matches_oracle(self, case):
        layer, x, cot, reverse = _case_inputs(case)
        ref_layer = _case_inputs(case)[0]
        with np.errstate(over="raise", invalid="ignore"):
            out, eval_out, grads = _run(layer, x, cot, reverse)
            ref_out, ref_eval, ref_grads = _run(use_reference(ref_layer), x,
                                                cot, reverse)
        assert np.array_equal(out, ref_out, equal_nan=True)
        assert np.array_equal(eval_out, ref_out, equal_nan=True)
        assert np.array_equal(ref_eval, ref_out, equal_nan=True)
        assert grads.keys() == ref_grads.keys()
        for key in grads:
            assert np.array_equal(grads[key], ref_grads[key],
                                  equal_nan=True), key

    def test_examples_cover_mixed_and_crossing_steps(self):
        safe = {}
        for name, case in (("mixed", MIXED), ("crossing", CROSSING)):
            layer, x, _cot, reverse = _case_inputs(case)
            m = _block_maxima(layer, x, reverse)[:, :, [0, 1, 3]]
            safe[name] = m <= _SIGMOID_SAFE_MAX
        step_mixed = safe["mixed"].any(axis=(1, 2)) \
            & ~safe["mixed"].all(axis=(1, 2))
        assert step_mixed.all()
        crossing = safe["crossing"].any(axis=0) & ~safe["crossing"].all(axis=0)
        assert crossing.any()

    @settings(max_examples=40, deadline=None)
    @given(lstm_case)
    def test_proven_regimes_hold(self, case):
        """Every regime the kernel takes from ``zx`` bounds, without
        measuring ``z``, is the one the step's ``z`` really has."""
        layer, x, _cot, reverse = _case_inputs(case)
        _assert_proven_regimes_hold(layer, x, reverse)

    def test_recurrence_pulls_a_block_back_into_range(self):
        # Step 1's input gate has |x W_ih| = 76 but h_0 W_hh adds about
        # +2, so its z is about -74: safe, though |zx| alone says
        # otherwise.  The f and o gates stay provably safe.
        def make_layer():
            layer = LSTM(1, 1, rng=0)
            layer.w_ih.data[:] = [[1.0, 0.01, 1.0, 0.01]]
            layer.w_hh.data[:] = [[8.0, 0.0, 0.0, 0.0]]
            layer.bias.data[:] = 0.0
            return layer

        x = np.array([[[1.0], [-76.0]]], dtype=np.float32)
        maxima = _block_maxima(make_layer(), x, False)
        assert 70 < maxima[1, 0, 0] <= _SIGMOID_SAFE_MAX
        _assert_proven_regimes_hold(make_layer(), x, False)
        cot = np.ones((1, 2, 1), dtype=np.float32)
        with np.errstate(over="raise"):
            out, eval_out, grads = _run(make_layer(), x, cot, False)
            ref_out, _ref_eval, ref_grads = _run(
                use_reference(make_layer()), x, cot, False)
        assert np.array_equal(out, ref_out)
        assert np.array_equal(eval_out, ref_out)
        for key in grads:
            assert np.array_equal(grads[key], ref_grads[key]), key


def _assert_proven_regimes_hold(layer, x, reverse):
    dirs = _directions(layer, reverse)
    N, T, _D = x.shape
    H = dirs[0][0].hidden_size
    with np.errstate(over="ignore", invalid="ignore"):
        zx = np.concatenate([
            ((x[:, ::-1] if rev else x) @ lstm.w_ih.data + lstm.bias.data)
            for lstm, rev in dirs])
        proven = _step_regimes(zx, dirs, N, T, H)
        maxima = _block_maxima(layer, x, reverse)
    for t, flags in enumerate(proven):
        if flags is not None:
            real = [bool(v <= _SIGMOID_SAFE_MAX) and k != 2
                    for row in maxima[t] for k, v in enumerate(row)]
            assert list(flags) == real, t


class TestKernelGuards:
    def test_backward_after_newer_forward_raises(self):
        layer = LSTM(3, 4, rng=0)
        x = Tensor(_scaled_x((2, 5, 3), 0, 1.0), requires_grad=True)
        first = layer(x)
        layer(x)  # reuses the training scratch the first node reads
        with pytest.raises(RuntimeError, match="newer grad-mode forward"):
            first.backward(np.ones(first.shape, np.float32))

    def test_eval_forward_between_does_not_disturb_backward(self):
        x_data = _scaled_x((2, 5, 3), 0, 1.0)
        cot = np.ones((2, 5, 8), np.float32)
        grads = []
        for interleave in (False, True):
            layer = BiLSTM(3, 4, rng=0)
            x = Tensor(x_data.copy(), requires_grad=True)
            out = layer(x)
            if interleave:
                with no_grad():  # its own scratch: the node stays valid
                    layer(Tensor(_scaled_x((6, 9, 3), 1, 1.0)))
            out.backward(cot)
            grads.append([x.grad.copy()]
                         + [p.grad.copy() for p in layer.parameters()])
        for a, b in zip(*grads):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("grad", [True, False], ids=["grad", "no_grad"])
    @pytest.mark.parametrize("shape", [(2, 5, 6), (5, 3)], ids=["3d", "2d"])
    def test_bilstm_rejects_bad_input_in_both_modes(self, grad, shape):
        layer = BiLSTM(3, 4, rng=0)
        x = Tensor(np.zeros(shape, np.float32), requires_grad=grad)
        expected = rf"expected \(N, T, 3\), got {re.escape(str(shape))}"
        with nullcontext() if grad else no_grad(), \
                pytest.raises(ValueError, match=expected):
            layer(x)


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
    def _steps(self, step, lr_schedule, decoupled, n_steps=5, seed=0):
        rng = np.random.default_rng(seed)
        params = [Tensor(rng.standard_normal(s).astype(np.float32),
                         requires_grad=True)
                  for s in [(4, 3), (3,), (2, 2, 2), (64, 64)]]
        opt = Adam(params, lr=1e-3, weight_decay=1e-4,
                   decoupled_weight_decay=decoupled)
        sched = CyclicCosineLR(opt, cycle_len=3) if lr_schedule else None
        grad_rng = np.random.default_rng(seed + 1)
        for _ in range(n_steps):
            if sched is not None:
                sched.step()
                # np.cos makes the scheduled lr an np.float64, which
                # promotes ``lr * update`` to float64
                assert type(opt.lr) is np.float64
            for p in params:
                p.zero_grad()
                p._accum(grad_rng.standard_normal(p.data.shape)
                         .astype(np.float32))
            step(opt)
        return [p.data.copy() for p in params]

    @pytest.mark.parametrize("decoupled", [False, True],
                             ids=["coupled", "decoupled"])
    @pytest.mark.parametrize("lr_schedule", [False, True],
                             ids=["float-lr", "cyclic-cosine-lr"])
    def test_fast_matches_legacy_bitwise(self, lr_schedule, decoupled):
        fast = self._steps(Adam.step, lr_schedule, decoupled)
        legacy = self._steps(adam_step_allocating, lr_schedule, decoupled)
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
            if not fused:
                use_reference(model)
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
