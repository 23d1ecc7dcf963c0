"""Spawned-child helpers for the crash tests: die by SIGKILL mid-write.

A training run or a registry writer runs in a spawned child that a
fault point kills with a real SIGKILL (no unwinding, no atexit); the
parent then checks what survived on disk.  These live at module level
because spawned children unpickle the target function and its payload
by import path.
"""

import multiprocessing
import signal
from dataclasses import dataclass

from repro.resilience.faults import FaultInjector, FaultSpec, install


def _build_trainer(payload: dict):
    """Reconstruct the crash tests' trainer exactly (same seeds every process)."""
    from repro.models import LSTMClassifier
    from repro.nn.loss import NLLLoss
    from repro.nn.optim.adam import Adam
    from repro.nn.optim.schedulers import CyclicCosineLR
    from repro.nn.training import Trainer

    model = LSTMClassifier(
        n_sensors=int(payload["n_sensors"]),
        seq_len=int(payload["seq_len"]),
        n_classes=int(payload["n_classes"]),
        hidden_size=int(payload["hidden_size"]),
        seed=int(payload["seed"]),
    )
    optimizer = Adam(model.parameters(), lr=float(payload["lr"]))
    scheduler = CyclicCosineLR(optimizer, cycle_len=int(payload["cycle_len"]))
    return Trainer(
        model,
        optimizer,
        NLLLoss(),
        scheduler=scheduler,
        batch_size=int(payload["batch_size"]),
        max_epochs=int(payload["max_epochs"]),
        patience=int(payload["patience"]),
        shuffle_rng=int(payload["seed"]),
    )


def _crash_training_worker(payload: dict) -> None:
    """Child: train (or resume) with a SIGKILL scheduled mid-epoch."""
    install(FaultInjector([
        FaultSpec("trainer.mid_epoch", at_hit=int(payload["kill_hit"]), mode="kill")
    ]))
    trainer = _build_trainer(payload)
    ckpt = payload["checkpoint_path"]
    data = (payload["X_train"], payload["y_train"],
            payload["X_val"], payload["y_val"])
    if payload["resume"]:
        trainer.resume(ckpt, *data)
    else:
        trainer.fit(*data, checkpoint_path=ckpt)
    raise SystemExit("worker was supposed to die before finishing")


def _crash_registry_worker(payload: dict) -> None:
    """Child: run one registry write with a SIGKILL scheduled inside it."""
    from repro.serve.registry import ModelRegistry

    install(FaultInjector([FaultSpec(payload["point"], mode="kill")]))
    registry = ModelRegistry(payload["root"])
    if payload["op"] == "register":
        registry.register(
            payload["name"], payload["model"], version=int(payload["version"])
        )
    else:
        registry.set_active(payload["name"], int(payload["version"]))
    raise SystemExit("worker was supposed to die before finishing")


def _run_to_sigkill(worker, payload: dict, *, timeout_s: float = 300.0) -> bool:
    """Run ``worker(payload)`` in a child; True iff it died by SIGKILL."""
    ctx = multiprocessing.get_context("spawn")
    proc = ctx.Process(target=worker, args=(payload,))
    proc.start()
    proc.join(timeout_s)
    if proc.is_alive():  # pragma: no cover - hang safety net
        proc.kill()
        proc.join()
        return False
    return proc.exitcode == -signal.SIGKILL


@dataclass
class _StubModel:
    """Tiny picklable stand-in for a fitted pipeline in registry tests."""

    version: int
    blob: bytes = b""
