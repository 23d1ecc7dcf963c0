"""Optimizer base class: parameter registration, grad clearing and clipping."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Parameter

__all__ = ["Optimizer"]


class Optimizer:
    """Base optimizer: parameter registration and grad clearing."""

    def __init__(self, params, lr: float):
        self.params: list[Parameter] = list(params)
        if not self.params:
            raise ValueError("optimizer got no parameters")
        if lr <= 0:
            raise ValueError(f"lr must be positive, got {lr}")
        self.lr = lr

    def zero_grad(self) -> None:
        """Clear accumulated gradients."""
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        """Apply one optimization update from accumulated gradients."""
        raise NotImplementedError

    def state_dict(self) -> dict:
        """Copy of the optimizer's mutable state (for checkpointing).

        Subclasses extend this with their moment buffers; parameter
        *values* are not included (they live in the model's state dict).
        """
        return {"lr": self.lr}

    def load_state_dict(self, state: dict) -> None:
        """Restore state saved by :meth:`state_dict`.

        ``lr`` is restored with its exact scalar type: a schedule-set
        ``np.float64`` promotes ``lr * grad`` to float64 while a Python
        float keeps float32 (NEP 50 weak promotion), so coercing here
        would change the first post-resume update by one ulp and break
        bit-identical resume.
        """
        self.lr = state["lr"]

    def clip_grad_norm(self, max_norm: float) -> float:
        """Global-norm gradient clipping; returns the pre-clip norm."""
        total = 0.0
        for p in self.params:
            if p.grad is not None:
                total += float(np.sum(p.grad.astype(np.float64) ** 2))
        norm = float(np.sqrt(total))
        if norm > max_norm > 0:
            scale = max_norm / (norm + 1e-12)
            for p in self.params:
                if p.grad is None:
                    continue
                if p.grad is p._grad_buf:
                    # Scale the engine-owned buffer in place (same ufunc,
                    # bit-identical to the old reallocating multiply).
                    np.multiply(p.grad, scale, out=p.grad)
                else:
                    p.grad = p.grad * scale
        return norm

