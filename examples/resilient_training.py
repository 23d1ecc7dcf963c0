"""Surviving failures: atomic persistence, checkpoint/resume, fault injection.

Long training runs on shared clusters get preempted, and model files get
written by processes that can die mid-byte.  Part one crashes a
``save_model`` on purpose (via :mod:`repro.resilience`'s fault points) and
shows the old file surviving untouched, then bit-flips an archive and
watches the CRC32 check reject it.  Part two interrupts an LSTM training
run mid-epoch, resumes it from its crash-safe checkpoint, and verifies the
stitched history is *bit-identical* to an uninterrupted twin — the
invariant ``tests/test_resilience_crash.py`` asserts under real SIGKILLs
at preemptions drawn from the simulated cluster's failure process::

    python examples/resilient_training.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.models import LSTMClassifier
from repro.nn.loss import NLLLoss
from repro.nn.optim.adam import Adam
from repro.nn.optim.schedulers import CyclicCosineLR
from repro.nn.training import Trainer, load_checkpoint
from repro.resilience import FaultSpec, InjectedFault, inject
from repro.utils.persist import load_model, save_model


def crash_safe_persistence_demo(workdir: Path) -> None:
    """Kill a writer mid-write; detect a corrupted archive."""
    from repro.ml.preprocessing import StandardScaler

    path = workdir / "scaler.pkl"
    save_model(StandardScaler(), path)
    good_bytes = path.read_bytes()

    # A writer dying halfway through the payload must not touch the old
    # file: the write goes to a temp file and only an atomic os.replace
    # publishes it.  mode="raise" simulates the death in-process; the
    # crash tests use mode="kill" (a real SIGKILL) in a subprocess.
    try:
        with inject(FaultSpec("persist.mid_write", mode="raise")):
            save_model(StandardScaler(), path)
    except InjectedFault:
        pass
    assert path.read_bytes() == good_bytes
    print("writer died mid-write: old archive intact, byte for byte")

    # Silent corruption (bad disk, partial rsync) is caught by the CRC32
    # stored in the repro-model-v1 header.
    raw = bytearray(good_bytes)
    raw[len(raw) - 10] ^= 0xFF  # land inside the pickled model payload
    victim = workdir / "corrupt.pkl"
    victim.write_bytes(bytes(raw))
    try:
        load_model(victim)
        raise SystemExit("corruption was not detected!")
    except ValueError as exc:
        print(f"bit-flipped archive rejected: {exc}")


def _make_trainer(seed: int = 7) -> Trainer:
    """Same construction for every incarnation — state comes from seeds
    (fresh run) or from the checkpoint (resume)."""
    model = LSTMClassifier(n_sensors=3, seq_len=8, n_classes=3,
                           hidden_size=6, seed=seed)
    optimizer = Adam(model.parameters(), lr=5e-3)
    scheduler = CyclicCosineLR(optimizer, cycle_len=3)
    return Trainer(model, optimizer, NLLLoss(), scheduler=scheduler,
                   batch_size=8, max_epochs=6, patience=10,
                   shuffle_rng=seed)


def checkpoint_resume_demo(workdir: Path) -> None:
    """Interrupt training mid-epoch; resume; compare histories bit for bit."""
    rng = np.random.default_rng(0)
    X_train = rng.standard_normal((32, 8, 3)).astype(np.float32)
    y_train = rng.integers(0, 3, 32)
    X_val = rng.standard_normal((16, 8, 3)).astype(np.float32)
    y_val = rng.integers(0, 3, 16)

    # The fault-free twin: what an uninterrupted run produces.
    history_free = _make_trainer().fit(X_train, y_train, X_val, y_val)

    # The preempted run: dies in the middle of epoch 4's second batch.
    ckpt = workdir / "lstm.ckpt"
    n_batches = -(-X_train.shape[0] // 8)
    try:
        with inject(FaultSpec("trainer.mid_epoch",
                              at_hit=3 * n_batches + 2, mode="raise")):
            _make_trainer().fit(X_train, y_train, X_val, y_val,
                                checkpoint_path=ckpt)
    except InjectedFault:
        pass
    print(f"training killed mid-epoch 4; checkpoint holds epoch "
          f"{load_checkpoint(ckpt).epoch}")

    # Resume restores parameters, Adam moments, the scheduler position,
    # the batch-shuffle RNG stream and the dropout RNGs — so the first
    # post-resume batch is the exact batch the dead run would have drawn.
    survivor = _make_trainer()
    history = survivor.resume(ckpt, X_train, y_train, X_val, y_val)

    assert history_free.matches(history), "histories diverged!"
    print(f"resumed history bit-identical to the fault-free run "
          f"({len(history.epochs)} epochs, "
          f"best val acc {history.best_val_accuracy:.2%})")


def main() -> None:
    """Run both demos in a temp directory."""
    with tempfile.TemporaryDirectory(prefix="repro-resilient-") as tmp:
        workdir = Path(tmp)
        crash_safe_persistence_demo(workdir)
        print()
        checkpoint_resume_demo(workdir)
    print("\nFor the SIGKILL version of this story (real process death, "
          "registry writers included):\n"
          "    python -m pytest tests/test_resilience_crash.py")


if __name__ == "__main__":
    main()
