"""Loss module."""

from __future__ import annotations

import numpy as np

from repro.nn.functional import nll_loss
from repro.nn.module import Module
from repro.nn.tensor import Tensor

__all__ = ["NLLLoss"]


class NLLLoss(Module):
    """Mean negative log-likelihood over log-probabilities.

    The paper's setup: models end in log-softmax and are trained with NLL.
    """

    def __init__(self):
        super().__init__()

    def forward(self, log_probs: Tensor, targets: np.ndarray) -> Tensor:
        """Compute the layer's output for the given input."""
        return nll_loss(log_probs, targets)
