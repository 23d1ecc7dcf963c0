"""Preemption/failure events for the simulated cluster.

The MIT Supercloud dataset paper records the node failures behind this
telemetry, and "Revisiting Reliability in Large-Scale ML Research
Clusters" (Kokolis et al.) measures preemption/failure handling as the
dominant cost at fleet scale.  This module samples *when* those events
hit a running job, with the same determinism contract as the rest of
:mod:`repro.simcluster`: one seed, one stream name, bit-stable events
regardless of what else draws randomness.

Used by the crash tests to decide where to SIGKILL a training run, and
available to the scheduler simulation for failure-aware traces.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.rng import SeedSequenceFactory

__all__ = ["PreemptionEvent", "PreemptionProcess"]


@dataclass(frozen=True)
class PreemptionEvent:
    """One preemption: the job dies abruptly at ``time_s``.

    ``kind`` distinguishes scheduler preemptions (requeue-able) from node
    failures (the hardware-rooted events the Supercloud paper documents);
    both look identical to the dying process.
    """

    time_s: float
    kind: str = "preemption"

    def __post_init__(self):
        if self.time_s < 0:
            raise ValueError(f"time_s must be >= 0, got {self.time_s}")
        if self.kind not in ("preemption", "node_failure"):
            raise ValueError(f"unknown event kind {self.kind!r}")


class PreemptionProcess:
    """Deterministic Poisson process of preemptions for one job.

    Inter-arrival times are exponential with mean ``mtbf_s`` (mean time
    between failures); a fraction ``node_failure_fraction`` of events are
    hard node failures.  Events are a pure function of ``(seed, job)`` —
    the standard :class:`~repro.utils.rng.SeedSequenceFactory` contract —
    so a test can replay the exact preemption schedule that killed a run.
    """

    def __init__(
        self,
        mtbf_s: float,
        *,
        seed: int | None = 0,
        job: str = "job-0",
        node_failure_fraction: float = 0.2,
    ):
        if mtbf_s <= 0:
            raise ValueError(f"mtbf_s must be positive, got {mtbf_s}")
        if not 0.0 <= node_failure_fraction <= 1.0:
            raise ValueError(
                f"node_failure_fraction must be in [0, 1], "
                f"got {node_failure_fraction}"
            )
        self.mtbf_s = mtbf_s
        self.job = job
        self.node_failure_fraction = node_failure_fraction
        self._factory = SeedSequenceFactory(seed)

    def events(self, horizon_s: float) -> list[PreemptionEvent]:
        """All events striking within ``[0, horizon_s)``, in time order."""
        if horizon_s < 0:
            raise ValueError(f"horizon_s must be >= 0, got {horizon_s}")
        rng = self._factory.stream(f"preemption:{self.job}")
        out: list[PreemptionEvent] = []
        t = 0.0
        while True:
            t += float(rng.exponential(self.mtbf_s))
            if t >= horizon_s:
                return out
            kind = (
                "node_failure"
                if rng.random() < self.node_failure_fraction
                else "preemption"
            )
            out.append(PreemptionEvent(time_s=t, kind=kind))

    def kill_epochs(self, n_epochs: int, epoch_s: float) -> list[int]:
        """Map events onto epoch indices for an ``n_epochs`` training run.

        An event at time ``t`` kills the run during epoch
        ``int(t // epoch_s) + 1`` (1-based).  Duplicate epochs are
        collapsed; an empty list means the run finishes untouched.
        """
        if n_epochs < 1:
            raise ValueError(f"n_epochs must be >= 1, got {n_epochs}")
        if epoch_s <= 0:
            raise ValueError(f"epoch_s must be positive, got {epoch_s}")
        epochs: list[int] = []
        for event in self.events(horizon_s=n_epochs * epoch_s):
            epoch = int(event.time_s // epoch_s) + 1
            if epoch not in epochs:
                epochs.append(epoch)
        return epochs
