"""CPU-side telemetry synthesis (paper Table II).

The real dataset samples CPU metrics at a *different* (slower) rate than the
GPU series — one of the challenge's stated difficulties ("the CPU and GPU
time series are sampled at different rates, they will have different lengths
for the same trial").  We reproduce that: the default CPU interval is 10 s
vs the GPU's ~0.11 s.

The CPU profile tracks the job lifecycle: heavy I/O and CPU activity during
startup (dataset staging), steady input-pipeline load during training that
scales with the class's I/O appetite, and monotone cumulative counters
(CPUTime, ReadMB, WriteMB, Pages) as the schedulers report them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.simcluster.node import NodeSpec, TX_GAIA_GPU_NODE
from repro.simcluster.phases import PhaseKind, PhaseSchedule
from repro.simcluster.sensors import CPU_HI, CPU_LO
from repro.simcluster.signatures import SignatureParams

__all__ = ["CpuSeries", "CpuModel", "DEFAULT_CPU_DT_S"]

#: Slurm profiling default sampling interval on the real system.
DEFAULT_CPU_DT_S = 10.0


@dataclass
class CpuSeries:
    """CPU metrics of one job: ``(n_samples, 8)`` in Table II column order."""

    data: np.ndarray
    dt_s: float

    @property
    def n_samples(self) -> int:
        """Number of time samples in the series."""
        return self.data.shape[0]


class CpuModel:
    """Synthesizes the eight Table II CPU metrics for a job."""

    def __init__(self, node: NodeSpec = TX_GAIA_GPU_NODE, dt_s: float = DEFAULT_CPU_DT_S):
        if dt_s <= 0:
            raise ValueError(f"dt_s must be positive, got {dt_s}")
        self.node = node
        self.dt_s = dt_s

    def generate(
        self,
        sig: SignatureParams,
        schedule: PhaseSchedule,
        rng: np.random.Generator,
    ) -> CpuSeries:
        """Generate the CPU series aligned to a job's phase schedule."""
        n = max(2, int(round(schedule.total_s / self.dt_s)))
        t = np.arange(n) * self.dt_s

        startup, ckpt, cooldown = schedule.masks(
            t, PhaseKind.STARTUP, PhaseKind.CHECKPOINT, PhaseKind.COOLDOWN)

        # --- Utilization: staging burst at startup, input pipeline steady state.
        util = np.full(n, sig.cpu_util_mean, dtype=np.float64)
        util[startup] = 70.0 + rng.normal(0.0, 6.0, size=int(startup.sum()))
        util[ckpt] *= 0.5
        util[cooldown] *= 0.4
        util += rng.normal(0.0, 3.0, size=n)
        util = np.clip(util, 0.0, 100.0)

        # --- Clock frequency: turbo under load, base otherwise.
        freq = np.where(
            util > 50.0,
            self.node.turbo_freq_mhz - rng.uniform(0, 200, size=n),
            self.node.base_freq_mhz + rng.uniform(-100, 300, size=n),
        )

        # --- Cumulative CPU time: integral of utilization over allotted cores.
        cores = max(1, self.node.total_cores // max(1, self.node.gpus_per_node))
        cpu_time = np.cumsum(util / 100.0 * cores * self.dt_s)

        # --- Memory: RSS ramps during startup then plateaus; VMSize ~ 2.5x RSS.
        ramp = np.clip(t / max(schedule.first(PhaseKind.STARTUP).end_s, 1.0), 0.0, 1.0)
        rss = 800.0 + ramp * (sig.rss_mib - 800.0) + rng.normal(0, 30.0, size=n)
        rss = np.clip(rss, 0.0, self.node.ram_gib * 1024.0)
        vmsize = rss * 2.5 + 4096.0
        pages = np.cumsum(np.clip(np.diff(rss, prepend=rss[0]), 0, None)) * 256.0 + rss * 256.0

        # --- Cumulative I/O: staging reads at startup, steady pipeline reads,
        #     checkpoint writes.
        read_rate = np.full(n, sig.io_read_mbps)
        read_rate[startup] *= 4.0
        read_rate[cooldown] *= 0.1
        read_mb = np.cumsum(read_rate * self.dt_s / 60.0 * rng.uniform(0.9, 1.1, size=n))
        write_rate = np.full(n, sig.io_write_mbps * 0.2)
        write_rate[ckpt] = sig.io_write_mbps * 30.0
        write_mb = np.cumsum(write_rate * self.dt_s / 60.0 * rng.uniform(0.9, 1.1, size=n))

        out = np.column_stack([freq, cpu_time, util, rss, vmsize, pages, read_mb, write_mb])
        np.clip(out, CPU_LO, CPU_HI, out=out)
        return CpuSeries(data=out, dt_s=self.dt_s)
