"""Job lifecycle phase model.

Every simulated training job moves through the same lifecycle the paper's
discussion of the ``60-start-1`` dataset appeals to:

``STARTUP`` (framework import, dataset staging — *generic across classes*)
→ ``WARMUP`` (first slow epoch: compilation, cudnn autotuning)
→ ``TRAIN`` (steady-state epochs with boundary dips)
→ interleaved ``CHECKPOINT`` stalls
→ ``COOLDOWN`` (final evaluation / teardown).

The phase schedule is sampled per job, so window extraction at the start,
middle, or a random offset of the series lands in different phase mixtures —
which is exactly the mechanism behind the start/middle/random accuracy
ordering in Tables V and VI.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.simcluster.signatures import SignatureParams

__all__ = ["PhaseKind", "Phase", "PhaseSchedule", "build_phase_schedule"]


class PhaseKind(enum.Enum):
    """Lifecycle phases of a training job."""

    STARTUP = "startup"
    WARMUP = "warmup"
    TRAIN = "train"
    CHECKPOINT = "checkpoint"
    COOLDOWN = "cooldown"


@dataclass(frozen=True)
class Phase:
    """A contiguous interval of the job timeline, in seconds."""

    kind: PhaseKind
    start_s: float
    end_s: float

    @property
    def duration_s(self) -> float:
        """Duration in seconds."""
        return self.end_s - self.start_s

    def __post_init__(self):
        if self.end_s <= self.start_s:
            raise ValueError(
                f"phase {self.kind.value} has non-positive duration "
                f"[{self.start_s}, {self.end_s})"
            )


@dataclass(frozen=True)
class PhaseSchedule:
    """Ordered, gap-free phase list covering ``[0, total_s)``."""

    phases: tuple[Phase, ...]
    total_s: float

    def __post_init__(self):
        t = 0.0
        for ph in self.phases:
            if abs(ph.start_s - t) > 1e-9:
                raise ValueError(f"phase gap/overlap at t={t}: {ph}")
            t = ph.end_s
        if abs(t - self.total_s) > 1e-9:
            raise ValueError(f"phases cover [0, {t}) but total_s={self.total_s}")

    def kind_at(self, t: np.ndarray) -> np.ndarray:
        """Vectorized phase lookup: per-timestamp index into ``PhaseKind``.

        Returns an int array where value ``k`` means ``list(PhaseKind)[k]``.
        """
        kinds = list(PhaseKind)
        starts = np.array([ph.start_s for ph in self.phases])
        idx = np.searchsorted(starts, t, side="right") - 1
        idx = np.clip(idx, 0, len(self.phases) - 1)
        kind_codes = np.array([kinds.index(ph.kind) for ph in self.phases])
        return kind_codes[idx]

    def masks(self, t: np.ndarray, *kinds: PhaseKind) -> list[np.ndarray]:
        """One boolean mask per ``kind``, from a single :meth:`kind_at` lookup."""
        codes = self.kind_at(t)
        order = list(PhaseKind)
        return [codes == order.index(kind) for kind in kinds]

    def mask(self, t: np.ndarray, kind: PhaseKind) -> np.ndarray:
        """Boolean mask of timestamps falling inside phases of ``kind``."""
        return self.masks(t, kind)[0]

    def first(self, kind: PhaseKind) -> Phase | None:
        """First phase of the given kind, or None."""
        for ph in self.phases:
            if ph.kind == kind:
                return ph
        return None


def build_phase_schedule(
    sig: SignatureParams,
    total_s: float,
    rng: np.random.Generator,
    *,
    startup_mean_s: float = 40.0,
) -> PhaseSchedule:
    """Sample a phase schedule for one job.

    Parameters
    ----------
    sig:
        Class signature — supplies the epoch period and checkpoint cadence.
    total_s:
        Total job duration.  Must be long enough to hold a startup phase and
        at least a sliver of training (≥ ~3× the startup mean is sensible).
    rng:
        Per-job random stream.
    startup_mean_s:
        Mean duration of the generic startup phase.  The actual duration is
        log-normal around this, shared by *all* classes — the startup length
        itself carries no class signal.
    """
    if total_s <= startup_mean_s:
        raise ValueError(
            f"job too short ({total_s}s) for startup phase (~{startup_mean_s}s)"
        )
    phases: list[Phase] = []
    t = 0.0

    # Generic startup: log-normal, clipped so training always exists and so
    # a 60-second start window usually reaches into warmup/training (the
    # real dataset's start windows are degraded but not class-free).
    startup = float(np.clip(rng.lognormal(np.log(startup_mean_s), 0.30),
                            10.0, min(48.0, 0.45 * total_s)))
    phases.append(Phase(PhaseKind.STARTUP, t, t + startup))
    t += startup

    # Warmup: a fraction of one epoch, slower than steady state.
    warmup = float(np.clip(rng.uniform(0.4, 0.9) * sig.epoch_period_s,
                           2.0, 0.25 * (total_s - t)))
    phases.append(Phase(PhaseKind.WARMUP, t, t + warmup))
    t += warmup

    # Cooldown reserved at the end.
    cooldown = float(np.clip(rng.uniform(3.0, 12.0), 1.0, 0.1 * total_s))
    train_end = total_s - cooldown

    # Steady-state training with periodic checkpoint stalls.
    epoch = 0
    while t < train_end - 1e-9:
        epoch_len = sig.epoch_period_s * float(rng.normal(1.0, 0.06))
        epoch_len = max(2.0, epoch_len)
        seg_end = min(t + epoch_len, train_end)
        phases.append(Phase(PhaseKind.TRAIN, t, seg_end))
        t = seg_end
        epoch += 1
        if (
            sig.checkpoint_every > 0
            and epoch % sig.checkpoint_every == 0
            and t < train_end - sig.checkpoint_dur_s - 1.0
        ):
            ck = sig.checkpoint_dur_s * float(rng.uniform(0.7, 1.3))
            phases.append(Phase(PhaseKind.CHECKPOINT, t, t + ck))
            t += ck

    phases.append(Phase(PhaseKind.COOLDOWN, t, total_s))
    return PhaseSchedule(tuple(phases), total_s)
