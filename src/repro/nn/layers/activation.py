"""Pointwise activation layer."""

from __future__ import annotations

from repro.nn.module import Module
from repro.nn.tensor import Tensor

__all__ = ["LeakyReLU"]


class LeakyReLU(Module):
    """Leaky rectifier — the nonlinearity the paper's LSTM head uses."""

    def __init__(self, negative_slope: float = 0.01):
        super().__init__()
        if negative_slope < 0:
            raise ValueError(f"negative_slope must be >= 0, got {negative_slope}")
        self.negative_slope = negative_slope

    def forward(self, x: Tensor) -> Tensor:
        """Compute the layer's output for the given input."""
        return x.leaky_relu(self.negative_slope)
