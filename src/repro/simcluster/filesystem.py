"""Parallel-filesystem (Lustre-style) I/O log synthesis.

The MIT Supercloud Dataset ships "file system logs" alongside CPU/GPU
telemetry (Section II-A).  This module completes that part of the
substrate: per-job I/O counter series in the style of Lustre job-stats —
cumulative operation counts and byte counters, driven by the job's phase
schedule (dataset staging at startup, steady input-pipeline reads during
training, bursty checkpoint writes).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.simcluster.phases import PhaseKind, PhaseSchedule
from repro.simcluster.signatures import SignatureParams

__all__ = ["FsCounters", "FsModel", "FS_COUNTER_NAMES", "DEFAULT_FS_DT_S"]

#: Lustre job-stats-like counters, in column order.
FS_COUNTER_NAMES: tuple[str, ...] = (
    "open_ops",        # cumulative file opens
    "close_ops",       # cumulative file closes
    "read_ops",        # cumulative read calls
    "write_ops",       # cumulative write calls
    "read_bytes",      # cumulative bytes read
    "write_bytes",     # cumulative bytes written
    "metadata_ops",    # stat/lookup traffic
)

DEFAULT_FS_DT_S = 30.0  # Lustre job-stats aggregation interval


@dataclass
class FsCounters:
    """One job's filesystem counter series: ``(n_samples, 7)`` cumulative."""

    data: np.ndarray
    dt_s: float

    @property
    def n_samples(self) -> int:
        """Number of time samples in the series."""
        return self.data.shape[0]

    def rates(self) -> np.ndarray:
        """Per-interval deltas (non-cumulative view)."""
        return np.diff(self.data, axis=0, prepend=self.data[:1] * 0.0)


class FsModel:
    """Synthesizes per-job Lustre-style I/O counters."""

    def __init__(self, dt_s: float = DEFAULT_FS_DT_S, read_chunk_mib: float = 4.0,
                 write_chunk_mib: float = 16.0):
        if dt_s <= 0:
            raise ValueError(f"dt_s must be positive, got {dt_s}")
        self.dt_s = dt_s
        self.read_chunk = read_chunk_mib * 2**20
        self.write_chunk = write_chunk_mib * 2**20

    def generate(
        self,
        sig: SignatureParams,
        schedule: PhaseSchedule,
        rng: np.random.Generator,
    ) -> FsCounters:
        """Counter series aligned to the job's phase schedule."""
        n = max(2, int(np.ceil(schedule.total_s / self.dt_s)))
        t = np.arange(n) * self.dt_s

        startup, ckpt, cooldown = schedule.masks(
            t, PhaseKind.STARTUP, PhaseKind.CHECKPOINT, PhaseKind.COOLDOWN)

        # Read throughput (bytes/s): staging burst, then the input pipeline.
        read_rate = np.full(n, sig.io_read_mbps * 2**20 / 60.0)
        read_rate[startup] *= 4.0
        read_rate[cooldown] *= 0.05
        read_rate *= rng.lognormal(0.0, 0.15, size=n)

        # Write throughput: trickle of logs, checkpoint bursts.
        write_rate = np.full(n, sig.io_write_mbps * 2**20 / 60.0 * 0.2)
        write_rate[ckpt] = sig.io_write_mbps * 2**20 / 60.0 * 30.0
        write_rate *= rng.lognormal(0.0, 0.15, size=n)

        read_bytes = np.cumsum(read_rate * self.dt_s)
        write_bytes = np.cumsum(write_rate * self.dt_s)
        read_ops = np.ceil(read_bytes / self.read_chunk)
        write_ops = np.ceil(write_bytes / self.write_chunk)

        # Opens: dataset shards at startup, checkpoint files later.
        open_rate = np.where(startup, 30.0, 0.6) + np.where(ckpt, 6.0, 0.0)
        open_ops = np.cumsum(open_rate * self.dt_s / 60.0
                             * rng.lognormal(0.0, 0.2, size=n))
        # Closes trail opens by roughly one interval.
        close_ops = np.concatenate([[0.0], open_ops[:-1]])
        metadata_ops = np.cumsum(
            (open_rate * 8.0 + 2.0) * self.dt_s / 60.0
            * rng.lognormal(0.0, 0.2, size=n)
        )

        data = np.column_stack([
            np.floor(open_ops), np.floor(close_ops),
            read_ops, write_ops, read_bytes, write_bytes,
            np.floor(metadata_ops),
        ])
        # Cumulative counters: enforce monotonicity exactly.
        data = np.maximum.accumulate(data, axis=0)
        return FsCounters(data=data, dt_s=self.dt_s)
