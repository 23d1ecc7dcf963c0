"""Training checkpoints: everything needed to resume bit-identically.

The paper's RNN protocol (Section V-A) trains for up to 100 epochs with
early stopping — long enough that one preemption on a shared cluster
loses the whole run.  A :class:`TrainingCheckpoint` captures the *complete*
training-loop state at an epoch boundary:

* model parameters,
* optimizer state (momentum / Adam moments / step count) and LR,
* scheduler position,
* the mini-batch **shuffle RNG state** and the state of every RNG a module
  draws from at forward time (dropout masks) — without these, a resumed
  run diverges on the first shuffled batch,
* the epoch counter, best-so-far weights/accuracy, the early-stopping
  staleness counter, and the :class:`~repro.nn.training.trainer.TrainingHistory`
  so far.

Restoring all of it makes ``fit`` → kill → ``resume`` produce a history
**bit-identical** to an uninterrupted run (wall-clock ``seconds`` aside) —
the invariant ``tests/test_resilience_crash.py`` asserts, under real
SIGKILLs at preemptions drawn from
:class:`~repro.simcluster.preemption.PreemptionProcess`.

File format (``repro-checkpoint-v1``): a pickled header dict carrying a
CRC32 over the pickled checkpoint payload, written atomically via
:func:`repro.utils.persist.atomic_write_bytes`; see README "Surviving
failures" for the field list.
"""

from __future__ import annotations

import pickle
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.nn.module import Module
from repro.utils.persist import atomic_write_bytes

__all__ = [
    "TrainingCheckpoint",
    "save_checkpoint",
    "load_checkpoint",
    "collect_forward_rng_states",
    "restore_forward_rng_states",
]

_MAGIC = "repro-checkpoint-v1"


def collect_forward_rng_states(model: Module) -> dict[str, dict]:
    """Bit-generator states of every module RNG used at forward time.

    Walks ``model.named_modules()`` and records ``module.rng`` state for
    modules that hold a :class:`numpy.random.Generator` (e.g. ``Dropout``,
    whose masks are drawn per forward pass).  Layers that used their RNG
    only at init time are captured too — harmless, and future layers with
    stochastic forwards are covered automatically.
    """
    states: dict[str, dict] = {}
    for name, module in model.named_modules():
        rng = getattr(module, "rng", None)
        if isinstance(rng, np.random.Generator):
            states[name] = rng.bit_generator.state
    return states


def restore_forward_rng_states(model: Module, states: dict[str, dict]) -> None:
    """Restore states captured by :func:`collect_forward_rng_states`.

    Raises ``KeyError`` when the model's RNG-bearing module set does not
    match the checkpoint's (a different architecture or layer count).
    """
    own = {
        name
        for name, module in model.named_modules()
        if isinstance(getattr(module, "rng", None), np.random.Generator)
    }
    if own != set(states):
        raise KeyError(
            f"RNG module mismatch: model has {sorted(own)}, "
            f"checkpoint has {sorted(states)}"
        )
    for name, module in model.named_modules():
        if name in states:
            module.rng.bit_generator.state = states[name]


@dataclass
class TrainingCheckpoint:
    """Complete training-loop state at the end of ``epoch``.

    ``history`` covers epochs ``1..epoch``; ``best_state`` /
    ``best_val_accuracy`` / ``stale`` are the early-stopping bookkeeping
    at that point; ``rng_states`` holds the NumPy bit-generator state of
    the batch-shuffle stream under ``"shuffle"`` and the per-module
    forward-time states (see :func:`collect_forward_rng_states`) under
    ``"forward"``.
    """

    epoch: int
    model_state: dict[str, np.ndarray]
    optimizer_state: dict[str, Any]
    scheduler_state: dict[str, Any] | None
    rng_states: dict[str, dict]
    history: Any  # TrainingHistory (kept loose to avoid an import cycle)
    best_val_accuracy: float
    best_state: dict[str, np.ndarray] | None
    stale: int
    repro_version: str = ""
    metadata: dict[str, Any] = field(default_factory=dict)


def save_checkpoint(checkpoint: TrainingCheckpoint, path: str | Path) -> Path:
    """Write ``checkpoint`` to ``path`` atomically with a CRC32 checksum.

    A kill at any instant leaves either the previous checkpoint or the new
    one — never a truncated file — so the resume path always has a valid
    checkpoint no older than one save interval.
    """
    import repro

    checkpoint.repro_version = checkpoint.repro_version or repro.__version__
    body = pickle.dumps(checkpoint, protocol=pickle.HIGHEST_PROTOCOL)
    header = {
        "magic": _MAGIC,
        "repro_version": checkpoint.repro_version,
        "crc32": zlib.crc32(body),
        "body": body,
    }
    return atomic_write_bytes(
        path, pickle.dumps(header, protocol=pickle.HIGHEST_PROTOCOL)
    )


def load_checkpoint(path: str | Path) -> TrainingCheckpoint:
    """Load and checksum-verify a checkpoint written by :func:`save_checkpoint`.

    Raises ``FileNotFoundError`` for missing files and ``ValueError`` for
    non-checkpoint or corrupt (CRC mismatch) files.
    """
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(
            f"no checkpoint at {path} (resolved: {path.resolve()})"
        )
    with path.open("rb") as handle:
        try:
            header = pickle.load(handle)
        except Exception as exc:
            raise ValueError(f"{path} is not a repro checkpoint: {exc}") from exc
    if not isinstance(header, dict) or header.get("magic") != _MAGIC:
        raise ValueError(f"{path} is not a repro checkpoint")
    body = header["body"]
    stored_crc = header.get("crc32")
    if stored_crc is not None and zlib.crc32(body) != stored_crc:
        raise ValueError(
            f"{path} failed its CRC32 check: the checkpoint is corrupt"
        )
    checkpoint = pickle.loads(body)
    if not isinstance(checkpoint, TrainingCheckpoint):
        raise ValueError(f"{path} does not contain a TrainingCheckpoint")
    return checkpoint
