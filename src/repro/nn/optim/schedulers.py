"""Learning-rate schedules.

The paper trains its RNNs with "a cyclical learning rate scheduler ... with
cosine annealing" (Smith's CLR + SGDR-style cosine), implemented here as
:class:`CyclicCosineLR`: within each cycle the LR decays from ``max_lr`` to
``min_lr`` along a half-cosine, then warm-restarts; optional cycle-length
multiplication lengthens successive cycles.
"""

from __future__ import annotations

import numpy as np

from repro.nn.optim.optimizer import Optimizer

__all__ = ["CyclicCosineLR"]


class _Scheduler:
    def __init__(self, optimizer: Optimizer):
        self.optimizer = optimizer
        self.base_lr = optimizer.lr
        self.step_count = 0

    def get_lr(self) -> float:
        """Learning rate for the current step count."""
        raise NotImplementedError

    def step(self) -> float:
        """Advance one step (typically one epoch) and apply the new LR."""
        self.step_count += 1
        lr = self.get_lr()
        self.optimizer.lr = lr
        return lr

    def state_dict(self) -> dict:
        """Copy of the schedule position (for checkpointing)."""
        return {"step_count": self.step_count, "base_lr": self.base_lr}

    def load_state_dict(self, state: dict) -> None:
        """Restore a position saved by :meth:`state_dict`.

        ``base_lr`` keeps its stored scalar type (see
        ``Optimizer.load_state_dict`` on why coercion breaks bit-identical
        resume).
        """
        self.step_count = int(state["step_count"])
        self.base_lr = state["base_lr"]


class CyclicCosineLR(_Scheduler):
    """Cosine-annealed cyclical LR with warm restarts.

    Parameters
    ----------
    cycle_len:
        Steps per cycle (first cycle).
    min_lr:
        Floor of the cosine within each cycle.
    cycle_mult:
        Multiplier on the cycle length after each restart (SGDR's T_mult).
    """

    def __init__(
        self,
        optimizer: Optimizer,
        cycle_len: int = 10,
        min_lr: float = 1e-5,
        cycle_mult: float = 1.0,
    ):
        super().__init__(optimizer)
        if cycle_len < 1:
            raise ValueError(f"cycle_len must be >= 1, got {cycle_len}")
        if min_lr <= 0 or min_lr > self.base_lr:
            raise ValueError(
                f"min_lr must be in (0, base_lr={self.base_lr}], got {min_lr}"
            )
        if cycle_mult < 1.0:
            raise ValueError(f"cycle_mult must be >= 1, got {cycle_mult}")
        self.cycle_len = cycle_len
        self.min_lr = min_lr
        self.cycle_mult = cycle_mult

    def get_lr(self) -> float:
        # Locate position within the current (possibly stretched) cycle.
        # step_count has already been incremented by step(); position 0 of
        # the first cycle corresponds to step_count == 1.
        """Learning rate for the current step count."""
        step = self.step_count - 1
        length = self.cycle_len
        while step >= length:
            step -= length
            length = max(1, int(round(length * self.cycle_mult)))
        frac = step / length
        return self.min_lr + 0.5 * (self.base_lr - self.min_lr) * (
            1.0 + np.cos(np.pi * frac)
        )
