"""Tests for NN modules and layers: Linear, activations, Dropout, Conv1d,
MaxPool1d, LSTM/BiLSTM — each gradient-checked against finite differences."""

import numpy as np
import pytest

from repro.nn import (
    BiLSTM,
    Conv1d,
    Dropout,
    LeakyReLU,
    Linear,
    MaxPool1d,
    Module,
    Parameter,
    Tensor,
)
from repro.nn.layers.conv import conv_output_length
from repro.nn.layers.rnn import LSTM
from tests.test_nn_tensor import numerical_grad


def layer_gradcheck(layer, x_shape, seed=0, atol=3e-2):
    """Finite-difference check for a layer's input and parameter grads.

    Uses float64 data through a float32-initialized layer; parameters are
    upcast for the check.
    """
    rng = np.random.default_rng(seed)
    for p in layer.parameters():
        p.data = p.data.astype(np.float64)
    x_data = rng.normal(size=x_shape)
    x = Tensor(x_data, requires_grad=True, dtype=np.float64)
    out = layer(x)
    out.sum().backward()

    def forward():
        return float(layer(Tensor(x_data, dtype=np.float64)).data.sum())

    num_x = numerical_grad(forward, x_data)
    np.testing.assert_allclose(x.grad, num_x, atol=atol, rtol=1e-3)
    for name, p in layer.named_parameters():
        num_p = numerical_grad(forward, p.data)
        np.testing.assert_allclose(
            p.grad, num_p, atol=atol, rtol=1e-3,
            err_msg=f"parameter {name}",
        )


class TestModuleSystem:
    def test_parameter_registration(self):
        class M(Module):
            def __init__(self):
                super().__init__()
                self.w = Parameter(np.ones((2, 2)))
                self.inner = Linear(2, 3, rng=0)

        m = M()
        names = dict(m.named_parameters())
        assert "w" in names
        assert "inner.weight" in names and "inner.bias" in names

    def test_train_eval_propagate(self):
        class M(Module):
            def __init__(self):
                super().__init__()
                self.fc = Linear(2, 2, rng=0)
                self.drop = Dropout(0.5, rng=0)

        m = M()
        m.eval()
        assert all(not sub.training for sub in m.modules())
        m.train()
        assert all(sub.training for sub in m.modules())

    def test_state_dict_round_trip(self):
        a = Linear(3, 4, rng=0)
        b = Linear(3, 4, rng=1)
        b.load_state_dict(a.state_dict())
        np.testing.assert_array_equal(a.weight.data, b.weight.data)

    def test_state_dict_mismatch(self):
        a = Linear(3, 4, rng=0)
        with pytest.raises(KeyError):
            a.load_state_dict({"weight": np.ones((3, 4))})

    def test_n_parameters(self):
        lin = Linear(3, 4, rng=0)
        assert lin.n_parameters() == 3 * 4 + 4

    def test_zero_grad(self):
        lin = Linear(2, 2, rng=0)
        out = lin(Tensor(np.ones((1, 2))))
        out.sum().backward()
        assert lin.weight.grad is not None
        lin.zero_grad()
        assert lin.weight.grad is None


class TestLinear:
    def test_shapes(self):
        lin = Linear(5, 3, rng=0)
        out = lin(Tensor(np.ones((7, 5))))
        assert out.shape == (7, 3)

    def test_3d_input(self):
        lin = Linear(5, 3, rng=0)
        out = lin(Tensor(np.ones((2, 4, 5))))
        assert out.shape == (2, 4, 3)

    def test_no_bias(self):
        lin = Linear(4, 2, bias=False, rng=0)
        assert lin.bias is None
        assert lin.n_parameters() == 8

    def test_wrong_features(self):
        lin = Linear(4, 2, rng=0)
        with pytest.raises(ValueError, match="expected last dim 4"):
            lin(Tensor(np.ones((3, 5))))

    def test_gradcheck(self):
        layer_gradcheck(Linear(4, 3, rng=1), (5, 4))


class TestActivations:
    def test_relu_zeroes_negatives(self):
        out = LeakyReLU(0.0)(Tensor(np.array([-1.0, 2.0])))
        np.testing.assert_allclose(out.data, [0.0, 2.0])

    def test_leaky_relu_slope(self):
        out = LeakyReLU(0.1)(Tensor(np.array([-10.0, 10.0])))
        np.testing.assert_allclose(out.data, [-1.0, 10.0])

    def test_tanh_range(self):
        out = Tensor(np.linspace(-5, 5, 20)).tanh()
        assert np.all(np.abs(out.data) <= 1.0)

    def test_negative_slope_validation(self):
        with pytest.raises(ValueError):
            LeakyReLU(-0.5)


class TestDropout:
    def test_eval_mode_identity(self):
        d = Dropout(0.5, rng=0)
        d.eval()
        x = Tensor(np.ones((10, 10)))
        np.testing.assert_array_equal(d(x).data, x.data)

    def test_train_mode_drops_and_scales(self):
        d = Dropout(0.5, rng=0)
        x = Tensor(np.ones((100, 100)))
        out = d(x).data
        dropped = np.mean(out == 0.0)
        assert 0.4 < dropped < 0.6
        kept = out[out != 0]
        np.testing.assert_allclose(kept, 2.0)  # inverted scaling

    def test_p_zero_identity(self):
        d = Dropout(0.0, rng=0)
        x = Tensor(np.ones((5, 5)))
        np.testing.assert_array_equal(d(x).data, x.data)

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            Dropout(1.0)

    def test_gradient_masks_match(self):
        d = Dropout(0.5, rng=42)
        x = Tensor(np.ones((20, 20)), requires_grad=True)
        out = d(x)
        out.sum().backward()
        # Gradient is zero exactly where activations were dropped.
        np.testing.assert_array_equal(x.grad == 0.0, out.data == 0.0)


class TestConv1d:
    def test_output_length(self):
        assert conv_output_length(540, 7, 2) == 267
        assert conv_output_length(10, 3, 1) == 8
        with pytest.raises(ValueError):
            conv_output_length(2, 3, 1)

    def test_shapes(self):
        conv = Conv1d(7, 16, kernel_size=5, stride=2, rng=0)
        out = conv(Tensor(np.random.default_rng(0).normal(size=(3, 50, 7))))
        assert out.shape == (3, conv_output_length(50, 5, 2), 16)

    def test_known_convolution(self):
        """Hand-checked valid convolution with identity-ish kernel."""
        conv = Conv1d(1, 1, kernel_size=2, stride=1, bias=False, rng=0)
        conv.weight.data = np.array([[[1.0, -1.0]]], dtype=np.float32)
        x = Tensor(np.array([[[1.0], [3.0], [6.0]]]))
        out = conv(x)
        # Window [x_t, x_{t+1}] . [1, -1] = x_t - x_{t+1}
        np.testing.assert_allclose(out.data[0, :, 0], [-2.0, -3.0])

    def test_gradcheck(self):
        layer_gradcheck(Conv1d(3, 2, kernel_size=3, stride=2, rng=2), (2, 9, 3))

    def test_gradcheck_overlapping_stride(self):
        layer_gradcheck(Conv1d(2, 3, kernel_size=3, stride=1, rng=3), (2, 7, 2))

    def test_channel_mismatch(self):
        conv = Conv1d(3, 2, kernel_size=3, rng=0)
        with pytest.raises(ValueError, match="expected"):
            conv(Tensor(np.ones((1, 10, 4))))

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            Conv1d(1, 1, kernel_size=0)


class TestMaxPool1d:
    def test_known_pooling(self):
        pool = MaxPool1d(2)
        x = Tensor(np.array([[[1.0], [5.0], [3.0], [2.0]]]))
        out = pool(x)
        np.testing.assert_allclose(out.data[0, :, 0], [5.0, 3.0])

    def test_gradient_routes_to_argmax(self):
        pool = MaxPool1d(2)
        x = Tensor(np.array([[[1.0], [5.0], [3.0], [2.0]]]), requires_grad=True)
        pool(x).sum().backward()
        np.testing.assert_allclose(x.grad[0, :, 0], [0.0, 1.0, 1.0, 0.0])

    def test_gradcheck(self):
        # Distinct values avoid tie ambiguity in finite differences.
        rng = np.random.default_rng(0)
        x_data = rng.permutation(24).astype(np.float64).reshape(2, 6, 2)
        pool = MaxPool1d(2)
        x = Tensor(x_data, requires_grad=True, dtype=np.float64)
        pool(x).sum().backward()

        def forward():
            return float(pool(Tensor(x_data, dtype=np.float64)).data.sum())

        np.testing.assert_allclose(x.grad, numerical_grad(forward, x_data),
                                   atol=1e-4)

    def test_requires_3d(self):
        with pytest.raises(ValueError):
            MaxPool1d(2)(Tensor(np.ones((4, 4))))


class TestLSTM:
    def test_output_shape(self):
        lstm = LSTM(4, 8, rng=0)
        out = lstm(Tensor(np.random.default_rng(0).normal(size=(3, 10, 4))))
        assert out.shape == (3, 10, 8)

    def test_gradcheck_small(self):
        layer_gradcheck(LSTM(3, 4, rng=1), (2, 5, 3), atol=3e-2)

    def test_gradcheck_reverse(self):
        rng = np.random.default_rng(2)
        lstm = LSTM(2, 3, rng=5)
        for p in lstm.parameters():
            p.data = p.data.astype(np.float64)
        x_data = rng.normal(size=(2, 4, 2))
        x = Tensor(x_data, requires_grad=True, dtype=np.float64)
        lstm(x, reverse=True).sum().backward()

        def forward():
            return float(
                lstm(Tensor(x_data, dtype=np.float64), reverse=True).data.sum()
            )

        np.testing.assert_allclose(x.grad, numerical_grad(forward, x_data),
                                   atol=3e-2, rtol=1e-3)

    def test_reverse_equals_forward_on_reversed_input(self):
        lstm = LSTM(3, 5, rng=7)
        x = np.random.default_rng(1).normal(size=(2, 6, 3)).astype(np.float32)
        fw = lstm(Tensor(x[:, ::-1].copy())).data
        bw = lstm(Tensor(x), reverse=True).data
        np.testing.assert_allclose(bw, fw[:, ::-1], atol=1e-6)

    def test_state_carries_information(self):
        """Final hidden state must depend on early inputs (memory)."""
        lstm = LSTM(1, 4, rng=3)
        x1 = np.zeros((1, 10, 1), dtype=np.float32)
        x2 = x1.copy()
        x2[0, 0, 0] = 5.0  # perturb only the first timestep
        h1 = lstm(Tensor(x1)).data[:, -1]
        h2 = lstm(Tensor(x2)).data[:, -1]
        assert np.abs(h1 - h2).max() > 1e-4

    def test_forget_bias_initialized_to_one(self):
        lstm = LSTM(2, 4, rng=0)
        H = 4
        np.testing.assert_allclose(lstm.bias.data[H : 2 * H], 1.0)

    def test_input_validation(self):
        lstm = LSTM(3, 4, rng=0)
        with pytest.raises(ValueError, match="expected"):
            lstm(Tensor(np.ones((2, 5, 7))))


class TestBiLSTM:
    def test_output_concatenates_directions(self):
        bi = BiLSTM(3, 4, rng=0)
        out = bi(Tensor(np.random.default_rng(0).normal(size=(2, 6, 3))))
        assert out.shape == (2, 6, 8)

    def test_final_states_shape(self):
        bi = BiLSTM(3, 4, rng=0)
        out = bi(Tensor(np.random.default_rng(0).normal(size=(2, 6, 3))))
        final = bi.final_states(out)
        assert final.shape == (2, 8)

    def test_final_states_pick_correct_ends(self):
        bi = BiLSTM(2, 3, rng=1)
        x = Tensor(np.random.default_rng(2).normal(size=(1, 5, 2)))
        out = bi(x)
        final = bi.final_states(out)
        np.testing.assert_allclose(final.data[0, :3], out.data[0, -1, :3])
        np.testing.assert_allclose(final.data[0, 3:], out.data[0, 0, 3:])

    def test_end_to_end_gradients_flow(self):
        bi = BiLSTM(2, 3, rng=4)
        x = Tensor(np.random.default_rng(5).normal(size=(2, 4, 2)),
                   requires_grad=True)
        bi.final_states(bi(x)).sum().backward()
        assert x.grad is not None
        for p in bi.parameters():
            assert p.grad is not None
