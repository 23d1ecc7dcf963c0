"""Training loop utilities: trainer, history, checkpoint/resume."""

from repro.nn.training.checkpoint import (
    TrainingCheckpoint,
    collect_forward_rng_states,
    load_checkpoint,
    restore_forward_rng_states,
    save_checkpoint,
)
from repro.nn.training.trainer import EpochStats, Trainer, TrainingHistory

__all__ = [
    "Trainer",
    "TrainingHistory",
    "EpochStats",
    "TrainingCheckpoint",
    "save_checkpoint",
    "load_checkpoint",
    "collect_forward_rng_states",
    "restore_forward_rng_states",
]
