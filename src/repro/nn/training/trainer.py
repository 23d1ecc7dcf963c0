"""Mini-batch trainer with early stopping and checkpoint/resume.

Implements the paper's protocol (Section V-A): train up to ``max_epochs``,
step a (cyclical cosine) LR schedule per epoch, early-stop when validation
accuracy has not improved for ``patience`` epochs, and report the *best*
validation accuracy ("we report the best validation accuracy in our
results").  The best-epoch weights are restored on finish.

Long runs on shared clusters get preempted; ``fit`` therefore optionally
writes a crash-safe :class:`~repro.nn.training.checkpoint.TrainingCheckpoint`
every ``checkpoint_every`` epochs, and :meth:`Trainer.resume` continues a
killed run to a history **bit-identical** (wall-clock timing aside) to an
uninterrupted one — every RNG consumed by the loop is captured and
restored, so the first post-resume shuffle and dropout mask match exactly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.nn.module import Module
from repro.nn.optim.sgd import Optimizer
from repro.nn.tensor import Tensor, no_grad
from repro.nn.training.checkpoint import (
    TrainingCheckpoint,
    collect_forward_rng_states,
    load_checkpoint,
    restore_forward_rng_states,
    save_checkpoint,
)
from repro.resilience.faults import fault_point
from repro.utils.rng import as_generator

__all__ = ["EpochStats", "TrainingHistory", "Trainer"]


@dataclass(frozen=True)
class EpochStats:
    """Metrics recorded for one training epoch."""

    epoch: int
    train_loss: float
    val_accuracy: float
    lr: float
    seconds: float


@dataclass
class TrainingHistory:
    """Per-epoch statistics of one training run."""

    epochs: list[EpochStats] = field(default_factory=list)

    def append(self, stats: EpochStats) -> None:
        """Add one entry."""
        self.epochs.append(stats)

    @property
    def best_val_accuracy(self) -> float:
        """Highest validation accuracy across epochs (NaN when empty)."""
        if not self.epochs:
            return float("nan")
        return max(e.val_accuracy for e in self.epochs)

    @property
    def best_epoch(self) -> int:
        """Epoch index (1-based) of the best validation accuracy.

        Returns 0 for an empty history — the same "no epochs yet"
        sentinel convention as :attr:`best_val_accuracy` returning NaN.
        """
        if not self.epochs:
            return 0
        best = max(self.epochs, key=lambda e: e.val_accuracy)
        return best.epoch

    def train_losses(self) -> np.ndarray:
        """Per-epoch mean training losses."""
        return np.array([e.train_loss for e in self.epochs])

    def val_accuracies(self) -> np.ndarray:
        """Per-epoch validation accuracies."""
        return np.array([e.val_accuracy for e in self.epochs])

    def matches(self, other: "TrainingHistory", *, ignore_timing: bool = True) -> bool:
        """Bit-exact equality with ``other``, timing excluded by default.

        Two histories "match" when every epoch's loss, validation accuracy
        and LR are *bit-identical* floats — the invariant a resumed run
        must satisfy against its uninterrupted twin.  Wall-clock
        ``seconds`` necessarily differ across runs and are ignored unless
        ``ignore_timing=False``.
        """
        if len(self.epochs) != len(other.epochs):
            return False
        for a, b in zip(self.epochs, other.epochs):
            if (a.epoch, a.train_loss, a.val_accuracy, a.lr) != (
                b.epoch, b.train_loss, b.val_accuracy, b.lr
            ):
                return False
            if not ignore_timing and a.seconds != b.seconds:
                return False
        return True


class Trainer:
    """Drives one classifier model through training with early stopping.

    The model must map a ``(N, T, D)`` input tensor to ``(N, K)``
    log-probabilities, and ``loss_fn(log_probs, targets)`` must return a
    scalar :class:`Tensor`.
    """

    def __init__(
        self,
        model: Module,
        optimizer: Optimizer,
        loss_fn,
        scheduler=None,
        batch_size: int = 32,
        max_epochs: int = 100,
        patience: int = 20,
        grad_clip: float = 5.0,
        shuffle_rng: int | np.random.Generator | None = 0,
        verbose: bool = False,
    ):
        if batch_size < 1 or max_epochs < 1 or patience < 1:
            raise ValueError("batch_size, max_epochs and patience must be >= 1")
        self.model = model
        self.optimizer = optimizer
        self.loss_fn = loss_fn
        self.scheduler = scheduler
        self.batch_size = batch_size
        self.max_epochs = max_epochs
        self.patience = patience
        self.grad_clip = grad_clip
        self.shuffle_rng = as_generator(shuffle_rng)
        self.verbose = verbose

    # ------------------------------------------------------------------
    def predict_log_probs(self, X: np.ndarray) -> np.ndarray:
        """Batched inference (no graph construction)."""
        self.model.eval()
        outs = []
        with no_grad():
            for start in range(0, X.shape[0], self.batch_size):
                xb = Tensor(X[start : start + self.batch_size])
                outs.append(self.model(xb).data)
        return np.concatenate(outs, axis=0)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict class labels for X."""
        return np.argmax(self.predict_log_probs(X), axis=1)

    def evaluate_accuracy(self, X: np.ndarray, y: np.ndarray) -> float:
        """Accuracy of current model predictions on (X, y).

        Streams through the no-grad fast path in ``batch_size`` chunks,
        accumulating correct counts — never materializing the full
        log-prob matrix.  The chunk boundaries match :meth:`predict`, and
        ``correct / N`` (exact integer sum, one float64 division) is
        bit-identical to the historical ``np.mean`` over concatenated
        predictions.
        """
        y = np.asarray(y)
        n = X.shape[0]
        if n == 0:
            return float("nan")  # matches np.mean of an empty comparison
        self.model.eval()
        correct = 0
        with no_grad():
            for start in range(0, n, self.batch_size):
                xb = Tensor(X[start : start + self.batch_size])
                pred = np.argmax(self.model(xb).data, axis=1)
                correct += int(np.sum(pred == y[start : start + self.batch_size]))
        return correct / n

    # ------------------------------------------------------------------
    @staticmethod
    def _as_arrays(X_train, y_train, X_val, y_val):
        """Normalize dtypes and validate sample counts."""
        X_train = np.asarray(X_train, dtype=np.float32)
        X_val = np.asarray(X_val, dtype=np.float32)
        y_train = np.asarray(y_train, dtype=np.int64)
        y_val = np.asarray(y_val, dtype=np.int64)
        if X_train.shape[0] != y_train.shape[0]:
            raise ValueError("X_train and y_train disagree on sample count")
        return X_train, y_train, X_val, y_val

    def fit(
        self,
        X_train: np.ndarray,
        y_train: np.ndarray,
        X_val: np.ndarray,
        y_val: np.ndarray,
        *,
        checkpoint_path: str | Path | None = None,
        checkpoint_every: int = 1,
    ) -> TrainingHistory:
        """Train from scratch; returns the per-epoch history.

        With ``checkpoint_path`` set, a crash-safe checkpoint is written
        at the end of every ``checkpoint_every``-th epoch (and at the
        stopping epoch); a killed run restarts from the latest one via
        :meth:`resume`.  Checkpointing consumes no randomness, so the
        history is bit-identical with or without it.
        """
        if checkpoint_every < 1:
            raise ValueError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
        X_train, y_train, X_val, y_val = self._as_arrays(
            X_train, y_train, X_val, y_val
        )
        return self._train_loop(
            X_train, y_train, X_val, y_val,
            history=TrainingHistory(),
            start_epoch=1,
            best_acc=-np.inf,
            best_state=None,
            stale=0,
            checkpoint_path=checkpoint_path,
            checkpoint_every=checkpoint_every,
        )

    def resume(
        self,
        checkpoint_path: str | Path,
        X_train: np.ndarray,
        y_train: np.ndarray,
        X_val: np.ndarray,
        y_val: np.ndarray,
        *,
        checkpoint_every: int = 1,
        keep_checkpointing: bool = True,
    ) -> TrainingHistory:
        """Continue a killed run from ``checkpoint_path``.

        The trainer must be constructed exactly as for the original run
        (same model architecture, optimizer and scheduler types, batch
        size, patience, ...); all mutable state — parameters, optimizer
        moments, schedule position, shuffle and dropout RNG streams,
        early-stopping bookkeeping — is restored from the checkpoint.  The
        returned history covers the *whole* run (checkpointed epochs plus
        resumed ones) and is bit-identical to an uninterrupted ``fit``.

        With ``keep_checkpointing`` (default) the resumed run continues to
        checkpoint to the same path, so it survives *another* preemption.
        """
        checkpoint = load_checkpoint(checkpoint_path)
        X_train, y_train, X_val, y_val = self._as_arrays(
            X_train, y_train, X_val, y_val
        )
        self.model.load_state_dict(checkpoint.model_state)
        self.optimizer.load_state_dict(checkpoint.optimizer_state)
        if self.scheduler is not None and checkpoint.scheduler_state is not None:
            self.scheduler.load_state_dict(checkpoint.scheduler_state)
        self.shuffle_rng.bit_generator.state = checkpoint.rng_states["shuffle"]
        restore_forward_rng_states(self.model, checkpoint.rng_states["forward"])
        return self._train_loop(
            X_train, y_train, X_val, y_val,
            history=checkpoint.history,
            start_epoch=checkpoint.epoch + 1,
            best_acc=checkpoint.best_val_accuracy,
            best_state=checkpoint.best_state,
            stale=checkpoint.stale,
            checkpoint_path=Path(checkpoint_path) if keep_checkpointing else None,
            checkpoint_every=checkpoint_every,
        )

    # ------------------------------------------------------------------
    def _train_loop(
        self,
        X_train: np.ndarray,
        y_train: np.ndarray,
        X_val: np.ndarray,
        y_val: np.ndarray,
        *,
        history: TrainingHistory,
        start_epoch: int,
        best_acc: float,
        best_state: dict | None,
        stale: int,
        checkpoint_path: str | Path | None,
        checkpoint_every: int,
    ) -> TrainingHistory:
        """The epoch loop shared by :meth:`fit` and :meth:`resume`."""
        n = X_train.shape[0]
        for epoch in range(start_epoch, self.max_epochs + 1):
            if stale >= self.patience:  # resumed past the stopping epoch
                break
            tic = time.perf_counter()
            self.model.train()
            order = self.shuffle_rng.permutation(n)
            total_loss = 0.0
            n_batches = 0
            for start in range(0, n, self.batch_size):
                fault_point("trainer.mid_epoch")
                idx = order[start : start + self.batch_size]
                xb = Tensor(X_train[idx])
                log_probs = self.model(xb)
                loss = self.loss_fn(log_probs, y_train[idx])
                self.optimizer.zero_grad()
                loss.backward()
                if self.grad_clip > 0:
                    self.optimizer.clip_grad_norm(self.grad_clip)
                self.optimizer.step()
                total_loss += loss.item()
                n_batches += 1

            val_acc = self.evaluate_accuracy(X_val, y_val)
            lr = self.optimizer.lr
            if self.scheduler is not None:
                self.scheduler.step()
            stats = EpochStats(
                epoch=epoch,
                train_loss=total_loss / max(n_batches, 1),
                val_accuracy=val_acc,
                lr=lr,
                seconds=time.perf_counter() - tic,
            )
            history.append(stats)
            if self.verbose:
                print(
                    f"[epoch {epoch:3d}] loss={stats.train_loss:.4f} "
                    f"val_acc={val_acc:.4f} lr={lr:.2e} ({stats.seconds:.1f}s)"
                )

            if val_acc > best_acc:
                best_acc = val_acc
                best_state = self.model.state_dict()
                stale = 0
            else:
                stale += 1

            stopping = stale >= self.patience or epoch == self.max_epochs
            if checkpoint_path is not None and (
                epoch % checkpoint_every == 0 or stopping
            ):
                self._write_checkpoint(
                    checkpoint_path, epoch, history, best_acc, best_state, stale
                )
            fault_point("trainer.epoch_end")
            if stale >= self.patience:
                break

        if best_state is not None:
            self.model.load_state_dict(best_state)
        return history

    # ------------------------------------------------------------------
    def _write_checkpoint(
        self,
        path: str | Path,
        epoch: int,
        history: TrainingHistory,
        best_acc: float,
        best_state: dict | None,
        stale: int,
    ) -> None:
        """Capture current loop state and persist it atomically."""
        save_checkpoint(
            TrainingCheckpoint(
                epoch=epoch,
                model_state=self.model.state_dict(),
                optimizer_state=self.optimizer.state_dict(),
                scheduler_state=(
                    self.scheduler.state_dict() if self.scheduler is not None else None
                ),
                rng_states={
                    "shuffle": self.shuffle_rng.bit_generator.state,
                    "forward": collect_forward_rng_states(self.model),
                },
                history=history,
                best_val_accuracy=best_acc,
                best_state=best_state,
                stale=stale,
            ),
            path,
        )
