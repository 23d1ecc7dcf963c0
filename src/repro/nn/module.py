"""Module/Parameter system (PyTorch-style, minimal).

Modules auto-register :class:`Parameter` attributes and sub-modules, expose
``parameters()`` for optimizers, and carry a ``training`` flag that
:class:`repro.nn.layers.Dropout` respects.  :func:`predict_labels` is the
one batched inference loop: every classifier's ``predict`` and the
trainer's validation pass run through it.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.nn.tensor import Tensor, no_grad

__all__ = ["Parameter", "Module", "predict_labels"]


class Parameter(Tensor):
    """A trainable tensor (always requires grad)."""

    def __init__(self, data, name: str | None = None):
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class with parameter registration and train/eval modes."""

    def __init__(self):
        object.__setattr__(self, "_parameters", {})
        object.__setattr__(self, "_modules", {})
        object.__setattr__(self, "training", True)

    def __setattr__(self, name, value):
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    # -- traversal ---------------------------------------------------------
    def parameters(self) -> Iterator[Parameter]:
        """Iterate over all trainable parameters."""
        yield from self._parameters.values()
        for module in self._modules.values():
            yield from module.parameters()

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Iterate over (qualified_name, parameter) pairs."""
        for name, p in self._parameters.items():
            yield f"{prefix}{name}", p
        for mod_name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{mod_name}.")

    def modules(self) -> Iterator["Module"]:
        """Iterate over this module and all submodules."""
        yield self
        for module in self._modules.values():
            yield from module.modules()

    def named_modules(self, prefix: str = "") -> Iterator[tuple[str, "Module"]]:
        """Iterate over (qualified_name, module) pairs, root first.

        The root's name is ``""``; children are dotted attribute paths
        (``"lstm1.fw"``), matching :meth:`named_parameters` prefixes.
        """
        yield prefix, self
        for mod_name, module in self._modules.items():
            child = f"{prefix}.{mod_name}" if prefix else mod_name
            yield from module.named_modules(prefix=child)

    def n_parameters(self) -> int:
        """Total number of trainable scalar parameters."""
        return sum(p.size for p in self.parameters())

    # -- modes -------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        """Set training mode on this module and submodules."""
        for module in self.modules():
            object.__setattr__(module, "training", mode)
        return self

    def eval(self) -> "Module":
        """Set inference mode (disables dropout)."""
        return self.train(False)

    def zero_grad(self) -> None:
        """Clear accumulated gradients."""
        for p in self.parameters():
            p.zero_grad()

    # -- forward -----------------------------------------------------------
    def forward(self, *args, **kwargs):
        """Compute the layer's output for the given input."""
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    # -- state -------------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy of all parameters keyed by qualified name."""
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load parameters saved by state_dict."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        extra = set(state) - set(own)
        if missing or extra:
            raise KeyError(f"state mismatch: missing={sorted(missing)}, extra={sorted(extra)}")
        for name, p in own.items():
            if p.data.shape != state[name].shape:
                raise ValueError(
                    f"shape mismatch for {name}: {p.data.shape} vs {state[name].shape}"
                )
            p.data = state[name].astype(p.data.dtype).copy()


def predict_labels(model: Module, X: np.ndarray, batch_size: int) -> np.ndarray:
    """Argmax class of ``model``'s output for each row of ``X``.

    Runs in eval mode and under :class:`~repro.nn.tensor.no_grad` (the
    fused layers' inference fast path), ``batch_size`` rows per forward.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    model.eval()
    labels = np.empty(X.shape[0], dtype=np.int64)
    with no_grad():
        for start in range(0, X.shape[0], batch_size):
            out = model(Tensor(X[start : start + batch_size]))
            labels[start : start + batch_size] = np.argmax(out.data, axis=1)
    return labels
