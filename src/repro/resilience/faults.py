"""Deterministic fault injection for crash-safety testing.

Crash-safety claims ("a kill mid-write cannot corrupt the registry",
"resume reproduces the uninterrupted history") are only credible when the
crash actually happens at the bad moment.  This module provides *named
fault points* — no-op markers compiled into the durable-write and training
code paths — and an injector that trips a configured point on its N-th
hit, either by raising :class:`InjectedFault` (for in-process tests of
error handling) or by sending ``SIGKILL`` to the current process (for
subprocess tests of abrupt preemption: no ``atexit``, no ``finally``, no
flushing — exactly what a cluster preemption or OOM kill looks like).

Instrumented points (grep for ``fault_point(`` to audit):

==============================  =================================================
``persist.mid_write``           half the payload bytes written to the tmp file
``persist.before_replace``      tmp file durable, before ``os.replace``
``persist.after_replace``       destination replaced, before directory fsync
``registry.before_active_flip`` version registered, before the ACTIVE pointer flips
``trainer.mid_epoch``           once per mini-batch, before the optimizer step
``trainer.epoch_end``           epoch finished, checkpoint (if any) durable
``store.wal.append``            half of one WAL record's bytes written
``store.segment.finalize``      segment data durable in tmp, before the rename
``store.manifest.swap``         segments finalized, before the manifest replace
``fleet.worker.crash``          top of a fleet worker's step, before any work
``fleet.heartbeat.drop``        a worker's heartbeat, dropped in transit
``trace.sink.flush``            half of a trace WAL batch's bytes written
==============================  =================================================

Injection is process-local and off by default; ``fault_point`` is a single
``is None`` check when no injector is installed, so production paths pay
nothing.

Usage::

    with inject(FaultSpec("persist.mid_write", mode="raise")):
        save_model(model, path)        # raises InjectedFault mid-write

    # In a sacrificial child process:
    install(FaultInjector([FaultSpec("trainer.epoch_end", at_hit=3)]))
    trainer.fit(...)                   # SIGKILLed at the end of epoch 3
"""

from __future__ import annotations

import contextlib
import os
import signal
from dataclasses import dataclass, field

__all__ = [
    "FAULT_POINTS",
    "FaultInjector",
    "FaultSpec",
    "InjectedFault",
    "fault_point",
    "inject",
    "install",
    "uninstall",
]

#: Every fault point compiled into the codebase, for spec validation.
FAULT_POINTS = frozenset({
    "persist.mid_write",
    "persist.before_replace",
    "persist.after_replace",
    "registry.before_active_flip",
    "trainer.mid_epoch",
    "trainer.epoch_end",
    "store.wal.append",
    "store.segment.finalize",
    "store.manifest.swap",
    "fleet.worker.crash",
    "fleet.heartbeat.drop",
    "trace.sink.flush",
})


class InjectedFault(RuntimeError):
    """Raised by a tripped fault point in ``mode="raise"``."""


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault: trip ``point`` on its ``at_hit``-th execution.

    Parameters
    ----------
    point:
        A name from :data:`FAULT_POINTS`.
    at_hit:
        1-based hit count at which the fault fires (``at_hit=3`` lets the
        point pass twice, then fires).
    mode:
        ``"kill"`` sends ``SIGKILL`` to the current process (abrupt death,
        use in a sacrificial subprocess); ``"raise"`` raises
        :class:`InjectedFault` (unwinds like a transient error).
    """

    point: str
    at_hit: int = 1
    mode: str = "kill"

    def __post_init__(self):
        if self.point not in FAULT_POINTS:
            raise ValueError(
                f"unknown fault point {self.point!r}; "
                f"known: {sorted(FAULT_POINTS)}"
            )
        if self.at_hit < 1:
            raise ValueError(f"at_hit must be >= 1, got {self.at_hit}")
        if self.mode not in ("kill", "raise"):
            raise ValueError(f"mode must be 'kill' or 'raise', got {self.mode!r}")


@dataclass
class FaultInjector:
    """Counts fault-point hits and fires matching :class:`FaultSpec` s.

    Each spec fires at most once; hit counts are kept per point name so
    several specs can target different occurrences of the same point.
    """

    specs: list[FaultSpec] = field(default_factory=list)
    hits: dict[str, int] = field(default_factory=dict)
    fired: list[FaultSpec] = field(default_factory=list)

    def trip(self, point: str) -> None:
        """Record one hit of ``point``; fire any spec scheduled for it."""
        count = self.hits.get(point, 0) + 1
        self.hits[point] = count
        for spec in self.specs:
            if spec.point == point and spec.at_hit == count and spec not in self.fired:
                self.fired.append(spec)
                if spec.mode == "kill":
                    os.kill(os.getpid(), signal.SIGKILL)
                raise InjectedFault(f"injected fault at {point} (hit {count})")


_ACTIVE: FaultInjector | None = None


def install(injector: FaultInjector) -> FaultInjector:
    """Install ``injector`` as this process's active injector."""
    global _ACTIVE
    _ACTIVE = injector
    return injector


def uninstall() -> None:
    """Remove the active injector (fault points become no-ops again)."""
    global _ACTIVE
    _ACTIVE = None


@contextlib.contextmanager
def inject(*specs: FaultSpec):
    """Context manager installing a fresh injector for the given specs."""
    injector = install(FaultInjector(list(specs)))
    try:
        yield injector
    finally:
        uninstall()


def fault_point(name: str) -> None:
    """Mark a crash-relevant point in the calling code path.

    A no-op (one ``is None`` test) unless an injector is installed in this
    process.
    """
    if _ACTIVE is not None:
        _ACTIVE.trip(name)
