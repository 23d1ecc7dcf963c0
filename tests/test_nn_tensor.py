"""Tests for the autograd engine, including finite-difference gradient
checks (property-based over random shapes and seeds)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nn.tensor import Tensor, no_grad


def numerical_grad(f, x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central finite differences of scalar f wrt array x."""
    g = np.zeros_like(x, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        fp = f()
        x[idx] = orig - eps
        fm = f()
        x[idx] = orig
        g[idx] = (fp - fm) / (2 * eps)
        it.iternext()
    return g


def check_grad(op, *shapes, seed=0, atol=2e-2):
    """Assert autograd gradient of ``sum(op(xs))`` matches finite diffs."""
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=s).astype(np.float64) for s in shapes]
    tensors = [Tensor(a, requires_grad=True, dtype=np.float64) for a in arrays]
    out = op(*tensors)
    loss = out.sum() if out.size > 1 else out
    loss.backward()
    for t, a in zip(tensors, arrays):
        def f(a=a, arrays=arrays):
            ts = [Tensor(arr, dtype=np.float64) for arr in arrays]
            o = op(*ts)
            return float(o.data.sum())
        num = numerical_grad(f, a)
        assert t.grad is not None
        np.testing.assert_allclose(t.grad, num, atol=atol, rtol=1e-3)


class TestBasicOps:
    def test_add(self):
        check_grad(lambda a, b: a + b, (3, 4), (3, 4))

    def test_add_broadcast(self):
        check_grad(lambda a, b: a + b, (3, 4), (4,))

    def test_mul(self):
        check_grad(lambda a, b: a * b, (2, 5), (2, 5))

    def test_mul_broadcast_scalar_shape(self):
        check_grad(lambda a, b: a * b, (4, 3), (1, 3))

    def test_sub_neg(self):
        check_grad(lambda a, b: a + (-b), (6,), (6,))

    def test_matmul(self):
        check_grad(lambda a, b: a @ b, (4, 3), (3, 5))

    def test_matmul_batched(self):
        check_grad(lambda a, b: a @ b, (2, 4, 3), (2, 3, 2))

    def test_tanh(self):
        check_grad(lambda a: a.tanh(), (3, 3))

    def test_sigmoid(self):
        check_grad(lambda a: a.sigmoid(), (7,))

    def test_leaky_relu(self):
        check_grad(lambda a: a.leaky_relu(0.1), (10,), seed=3)

    def test_sum_axis(self):
        check_grad(lambda a: a.sum(axis=1), (4, 5))

    def test_sum_keepdims(self):
        check_grad(lambda a: a.sum(axis=0, keepdims=True), (4, 5))

    def test_mean(self):
        check_grad(lambda a: a.mean(), (3, 4))

    def test_reshape(self):
        check_grad(lambda a: a.reshape(6, 2) * a.reshape(6, 2), (3, 4))

    def test_getitem_slice(self):
        check_grad(lambda a: a[1:3] * 2, (5, 3))

    def test_concatenate(self):
        check_grad(lambda a, b: Tensor.concatenate([a, b], axis=1), (2, 3), (2, 4))

    def test_stack(self):
        check_grad(lambda a, b: Tensor.stack([a, b], axis=0), (3,), (3,))


class TestPropertyGradients:
    """Hypothesis sweeps of composite expressions vs finite differences."""

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 5), st.integers(2, 5))
    def test_mlp_like_expression(self, seed, n, h):
        check_grad(
            lambda x, w: ((x @ w).tanh() * (x @ w).tanh()).mean(),
            (n, 3), (3, h), seed=seed,
        )

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_mixed_pointwise(self, seed):
        check_grad(
            lambda a, b: (a.sigmoid() * b.tanh() + a * 0.5).sum(),
            (4, 4), (4, 4), seed=seed,
        )


class TestGraphMechanics:
    def test_backward_requires_scalar(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(RuntimeError, match="scalar"):
            (x * 2).backward()

    def test_backward_on_detached_raises(self):
        x = Tensor(np.ones(3))
        with pytest.raises(RuntimeError, match="does not require grad"):
            x.backward()

    def test_grad_accumulates_over_backwards(self):
        x = Tensor(np.ones(3), requires_grad=True)
        (x * 2).sum().backward()
        (x * 2).sum().backward()
        np.testing.assert_allclose(x.grad, 4.0)

    def test_zero_grad(self):
        x = Tensor(np.ones(3), requires_grad=True)
        (x * 2).sum().backward()
        x.zero_grad()
        assert x.grad is None

    def test_shared_subexpression(self):
        """A tensor used twice gets both gradient contributions."""
        x = Tensor(np.array([2.0]), requires_grad=True, dtype=np.float64)
        y = x * x  # dy/dx = 2x = 4
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [4.0])

    def test_diamond_graph(self):
        x = Tensor(np.array([3.0]), requires_grad=True, dtype=np.float64)
        a = x * 2
        b = x * 5
        (a + b).sum().backward()
        np.testing.assert_allclose(x.grad, [7.0])

    def test_no_grad_blocks_graph(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            y = x * 2
        assert not y.requires_grad
        assert y._parents == ()

    def test_constants_not_tracked(self):
        x = Tensor(np.ones(3))
        y = x * 2
        assert not y.requires_grad

    def test_ndarray_interop(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = np.ones(3) + x  # __radd__ must kick in
        assert isinstance(y, Tensor)
        y.sum().backward()
        np.testing.assert_allclose(x.grad, 1.0)

    def test_repr(self):
        assert "requires_grad" in repr(Tensor(np.ones(2), requires_grad=True))
