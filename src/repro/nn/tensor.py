"""Reverse-mode autograd over NumPy arrays.

The engine keeps only the ops something reaches, with full broadcasting
and exact gradients, property-tested against finite differences in the
test suite:

* the fused layers (:class:`~repro.nn.layers.Linear`, ``Conv1d``,
  ``MaxPool1d``, ``LSTM``/``BiLSTM``, ``log_softmax``, ``dropout``) each
  register one graph node through :meth:`Tensor.from_op`, whose backward
  is hand-derived, instead of hundreds of per-op nodes per timestep (see
  :mod:`repro.nn.layers.rnn`);
* around those nodes the paper's models, NLL loss and the trainer use
  ``+``, ``*``, unary ``-``, indexing, ``sum``, ``mean``, ``leaky_relu``,
  ``backward``, ``zero_grad`` and ``item``;
* the ConvLSTM extension (:mod:`repro.nn.layers.convlstm`) composes its
  gate math from ``sigmoid``, ``tanh`` and :meth:`Tensor.stack`;
* the per-op parity references in the test suite add ``@``, ``reshape``
  and :meth:`Tensor.concatenate`.

Default dtype is float32, matching the framework baselines and halving
memory traffic.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

__all__ = ["Tensor", "no_grad", "is_grad_enabled"]

_GRAD_ENABLED = True


class no_grad:
    """Context manager disabling graph construction (inference mode).

    Fused layers additionally branch on :func:`is_grad_enabled` to take
    allocation-free fast paths, so running a predict loop inside
    ``no_grad`` is what unlocks the inference fast path.
    """

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev


def is_grad_enabled() -> bool:
    """Whether graph construction is currently enabled."""
    return _GRAD_ENABLED


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` after a broadcast op."""
    # Sum away prepended axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were 1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    """An ndarray plus gradient bookkeeping.

    Create leaf tensors with ``Tensor(data, requires_grad=True)``; every op
    returns a non-leaf tensor wired into the graph.  Call ``backward()`` on
    a scalar result to populate ``grad`` on all reachable leaves.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents",
                 "name", "_grad_buf")
    __array_priority__ = 100  # make ndarray defer to Tensor in mixed ops

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        dtype=np.float32,
        name: str | None = None,
    ):
        self.data = np.asarray(data, dtype=dtype)
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self.grad: np.ndarray | None = None
        self._grad_buf: np.ndarray | None = None
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()
        self.name = name

    # ------------------------------------------------------------------
    # Graph construction
    # ------------------------------------------------------------------
    @staticmethod
    def from_op(
        data: np.ndarray,
        parents: Iterable["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        """Create a graph node.

        ``backward(grad_out)`` must *accumulate* into each parent's ``grad``
        (use ``parent._accum(g)``).  When grad is globally disabled or no
        parent requires grad, a detached tensor is returned and ``backward``
        is dropped.
        """
        if not _GRAD_ENABLED:      # inference: no graph, drop backward early
            return Tensor(data, dtype=data.dtype)
        parents = tuple(parents)
        out = Tensor(data, dtype=data.dtype)
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
            out._backward = backward
        return out

    def _accum(self, grad: np.ndarray) -> None:
        """Accumulate a gradient contribution (used inside backward fns).

        The first contribution is *copied* into a persistent per-tensor
        buffer (``_grad_buf``, allocated once and refilled in place every
        step — ``zero_grad`` clears ``grad`` but keeps the buffer); later
        contributions add in place.  Copy-then-add produces bit-identical
        values to the historical alloc-per-accum behaviour, and because the
        engine never stores a caller's array by reference, fused layers may
        pass scratch buffers they will overwrite on the next batch.
        """
        if not self.requires_grad:
            return
        grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            grad = _unbroadcast(grad, self.data.shape)
        if self.grad is None:
            buf = self._grad_buf
            if buf is None or buf.shape != grad.shape:
                buf = self._grad_buf = np.empty_like(self.data)
            np.copyto(buf, grad)
            self.grad = buf
        elif self.grad is self._grad_buf:
            np.add(self.grad, grad, out=self.grad)
        else:
            # ``grad`` was assigned from outside (not our buffer): don't
            # mutate an array we may not own.
            self.grad = self.grad + grad

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Reverse-mode sweep from this tensor."""
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError(
                    f"backward() without grad requires a scalar, got shape {self.shape}"
                )
            grad = np.ones_like(self.data)
        # Topological order via iterative DFS.
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))
        self._accum(np.asarray(grad, dtype=self.data.dtype))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                # Free intermediate grads/graph for memory hygiene: non-leaf
                # grads are not part of the public contract.
                if node._parents:
                    node.grad = None

    def zero_grad(self) -> None:
        """Clear accumulated gradients.

        The gradient *buffer* is kept: the next backward pass refills it in
        place instead of allocating a fresh array (see :meth:`_accum`).
        """
        self.grad = None

    # ------------------------------------------------------------------
    # Pickling (used for checkpoints and worker dispatch): the gradient
    # buffer is per-process scratch and never persisted.
    # ------------------------------------------------------------------
    def __getstate__(self):
        d = getattr(self, "__dict__", None)
        slots = {s: getattr(self, s) for s in Tensor.__slots__}
        slots["_grad_buf"] = None
        return (dict(d) if d else None, slots)

    def __setstate__(self, state):
        d, slots = state
        if d:
            self.__dict__.update(d)
        for k, v in slots.items():
            object.__setattr__(self, k, v)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        """Array shape."""
        return self.data.shape

    @property
    def ndim(self) -> int:
        """Number of array dimensions."""
        return self.data.ndim

    @property
    def size(self) -> int:
        """Total number of elements."""
        return self.data.size

    @property
    def dtype(self):
        """Element dtype."""
        return self.data.dtype

    def item(self) -> float:
        """The single scalar value of this tensor."""
        return float(self.data)

    def numpy(self) -> np.ndarray:
        """The underlying ndarray (no copy)."""
        return self.data

    def __len__(self) -> int:
        return self.data.shape[0]

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype}{flag})"

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    @staticmethod
    def _wrap(other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other) -> "Tensor":
        other = self._wrap(other)

        def backward(g):
            self._accum(g)
            other._accum(g)

        return Tensor.from_op(self.data + other.data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(g):
            self._accum(-g)

        return Tensor.from_op(-self.data, (self,), backward)

    def __mul__(self, other) -> "Tensor":
        other = self._wrap(other)

        def backward(g):
            self._accum(g * other.data)
            other._accum(g * self.data)

        return Tensor.from_op(self.data * other.data, (self, other), backward)

    __rmul__ = __mul__

    def __matmul__(self, other) -> "Tensor":
        other = self._wrap(other)
        a, b = self.data, other.data

        def backward(g):
            if a.ndim == 2 and b.ndim == 2:
                self._accum(g @ b.T)
                other._accum(a.T @ g)
            else:  # batched matmul: (..., m, k) @ (..., k, n)
                self._accum(g @ np.swapaxes(b, -1, -2))
                other._accum(np.swapaxes(a, -1, -2) @ g)

        return Tensor.from_op(a @ b, (self, other), backward)

    # ------------------------------------------------------------------
    # Pointwise nonlinearities
    # ------------------------------------------------------------------
    def tanh(self) -> "Tensor":
        """Elementwise hyperbolic tangent."""
        out_data = np.tanh(self.data)

        def backward(g):
            self._accum(g * (1.0 - out_data**2))

        return Tensor.from_op(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        """Elementwise logistic sigmoid."""
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(g):
            self._accum(g * out_data * (1.0 - out_data))

        return Tensor.from_op(out_data, (self,), backward)

    def leaky_relu(self, negative_slope: float = 0.01) -> "Tensor":
        """Elementwise leaky rectifier."""
        mask = self.data > 0

        def backward(g):
            self._accum(g * np.where(mask, 1.0, negative_slope))

        return Tensor.from_op(
            np.where(mask, self.data, negative_slope * self.data), (self,), backward
        )

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Sum over all elements or along ``axis``."""
        def backward(g):
            if axis is None:
                self._accum(np.broadcast_to(g, self.data.shape))
            else:
                g_exp = g if keepdims else np.expand_dims(g, axis)
                self._accum(np.broadcast_to(g_exp, self.data.shape))

        return Tensor.from_op(
            self.data.sum(axis=axis, keepdims=keepdims), (self,), backward
        )

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Arithmetic mean over all elements or along ``axis``."""
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # ------------------------------------------------------------------
    # Shape surgery
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        """View with a new shape (gradient reshaped back)."""
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        orig = self.data.shape

        def backward(g):
            self._accum(g.reshape(orig))

        return Tensor.from_op(self.data.reshape(shape), (self,), backward)

    def __getitem__(self, key) -> "Tensor":
        def backward(g):
            full = np.zeros_like(self.data)
            np.add.at(full, key, g)
            self._accum(full)

        return Tensor.from_op(self.data[key], (self,), backward)

    @staticmethod
    def concatenate(tensors: list["Tensor"], axis: int = 0) -> "Tensor":
        """Join tensors along an existing axis."""
        tensors = [Tensor._wrap(t) for t in tensors]
        sizes = [t.data.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)

        def backward(g):
            for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(lo, hi)
                t._accum(g[tuple(sl)])

        return Tensor.from_op(
            np.concatenate([t.data for t in tensors], axis=axis), tensors, backward
        )

    @staticmethod
    def stack(tensors: list["Tensor"], axis: int = 0) -> "Tensor":
        """Join tensors along a new axis."""
        tensors = [Tensor._wrap(t) for t in tensors]

        def backward(g):
            for i, t in enumerate(tensors):
                t._accum(np.take(g, i, axis=axis))

        return Tensor.from_op(
            np.stack([t.data for t in tensors], axis=axis), tensors, backward
        )
