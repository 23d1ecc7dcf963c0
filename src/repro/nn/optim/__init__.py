"""Optimizer and learning-rate scheduler."""

from repro.nn.optim.optimizer import Optimizer
from repro.nn.optim.adam import Adam
from repro.nn.optim.schedulers import CyclicCosineLR

__all__ = ["Optimizer", "Adam", "CyclicCosineLR"]
