"""Per-job GPU activity synthesis.

:class:`WorkloadGenerator` turns (architecture class, job duration, random
stream) into one 7-sensor GPU time series per GPU of the job:

1. the class signature is jittered per job (run-to-run variation: batch
   size, input pipeline, co-located load),
2. a phase schedule is sampled (:mod:`repro.simcluster.phases`),
3. activity traces — compute utilization, memory-bandwidth utilization and
   memory footprint — are synthesized phase by phase,
4. :class:`repro.simcluster.gpu.GpuModel` maps activity to the physical
   sensors (power, temperatures, free/used memory).

Everything is vectorized over time; the only Python-level loops are over a
job's handful of phases and GPUs.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from repro.simcluster.architectures import ArchitectureSpec
from repro.simcluster.gpu import GpuModel
from repro.simcluster.phases import PhaseKind, PhaseSchedule, build_phase_schedule
from repro.simcluster.signatures import SignatureParams, signature_for
from repro.telemetry import DEFAULT_DT_S

__all__ = ["GpuSeries", "JobTelemetry", "WorkloadGenerator", "DEFAULT_DT_S"]


@dataclass
class GpuSeries:
    """One GPU's telemetry for one job.

    Attributes
    ----------
    data:
        ``(n_samples, 7)`` sensor matrix in Table III column order.
    dt_s:
        Sampling interval.
    gpu_index:
        Index of this GPU within the job (0-based).
    """

    data: np.ndarray
    dt_s: float
    gpu_index: int

    @property
    def n_samples(self) -> int:
        """Number of time samples in the series."""
        return self.data.shape[0]

    @property
    def duration_s(self) -> float:
        """Duration in seconds."""
        return self.n_samples * self.dt_s


@dataclass
class JobTelemetry:
    """Everything the generator knows about one job's GPU side.

    ``signature`` and ``schedule`` are exposed so the CPU model (which
    samples on its own, slower clock) can stay aligned with the job's
    lifecycle, and so tests can assert phase-conditional behaviour.
    """

    gpu_series: list[GpuSeries]
    signature: SignatureParams
    schedule: PhaseSchedule


def _ar1_noise(n: int, std: float, corr: float, rng: np.random.Generator) -> np.ndarray:
    """Temporally correlated (AR(1)) noise with stationary std ``std``."""
    if std <= 0:
        return np.zeros(n)
    from scipy.signal import lfilter  # imported here: serving never simulates

    white = rng.normal(0.0, std * np.sqrt(1.0 - corr**2), size=n)
    out = lfilter([1.0], [1.0, -corr], white)
    return out


def _step_wave(t: np.ndarray, period_s: float, duty: float, phase0: float) -> np.ndarray:
    """Smoothed rectangular training-step wave in [0, 1].

    A pure square wave aliases badly at 9 Hz sampling, so edges are softened
    with a narrow logistic transition (mimicking the utilization counter's
    own windowed averaging on real GPUs).
    """
    frac = np.mod(t / period_s + phase0, 1.0)
    sharp = 18.0
    rise = 1.0 / (1.0 + np.exp(-sharp * (duty - frac)))
    lead = 1.0 / (1.0 + np.exp(-sharp * frac))
    return rise * lead


class WorkloadGenerator:
    """Synthesizes per-job GPU telemetry from architecture signatures."""

    def __init__(
        self,
        gpu_model: GpuModel | None = None,
        dt_s: float = DEFAULT_DT_S,
        startup_mean_s: float = 40.0,
        glitch_rate: float = 0.004,
    ):
        if dt_s <= 0:
            raise ValueError(f"dt_s must be positive, got {dt_s}")
        if glitch_rate < 0 or glitch_rate >= 0.5:
            raise ValueError(f"glitch_rate must be in [0, 0.5), got {glitch_rate}")
        self.gpu_model = gpu_model if gpu_model is not None else GpuModel()
        self.dt_s = dt_s
        self.startup_mean_s = startup_mean_s
        self.glitch_rate = glitch_rate

    # ------------------------------------------------------------------
    # Per-job randomization
    # ------------------------------------------------------------------
    def jitter_signature(
        self, sig: SignatureParams, rng: np.random.Generator
    ) -> SignatureParams:
        """Apply per-job run-to-run variation to a class signature.

        A shared "batch scale" factor moves step period, utilization and
        memory footprint together (as a user's batch-size choice does), plus
        independent small jitters per parameter.  Batch scale is drawn from
        a *discrete* grid (users pick batch sizes like 32/64/128), which
        makes each class a handful of tight clusters in feature space — the
        multi-modal structure tree ensembles exploit on the real data.
        """
        batch = float(
            rng.choice([0.90, 1.0, 1.12], p=[0.3, 0.4, 0.3])
            * rng.lognormal(0.0, 0.02)
        )
        return dataclasses.replace(
            sig,
            util_mean=float(np.clip(
                sig.util_mean * rng.normal(1.0, 0.015) * batch**0.15, 5.0, 99.5)),
            util_amp=float(np.clip(sig.util_amp * rng.normal(1.0, 0.04), 2.0, 60.0)),
            step_period_s=max(0.4, sig.step_period_s * batch * rng.normal(1.0, 0.02)),
            mem_used_mib=float(np.clip(
                sig.mem_used_mib * batch**0.5 * rng.normal(1.0, 0.02),
                500.0, 0.95 * self.gpu_model.spec.memory_mib)),
            mem_util_mean=float(np.clip(
                sig.mem_util_mean * rng.normal(1.0, 0.02), 2.0, 98.0)),
            epoch_period_s=max(4.0, sig.epoch_period_s * batch * rng.normal(1.0, 0.04)),
            power_per_util=max(0.3, sig.power_per_util * rng.normal(1.0, 0.015)),
        )

    # ------------------------------------------------------------------
    # Activity synthesis
    # ------------------------------------------------------------------
    def activity_traces(
        self,
        sig: SignatureParams,
        schedule: PhaseSchedule,
        t: np.ndarray,
        rng: np.random.Generator,
        *,
        step_phase0: float,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Synthesize (util %, mem-util %, mem-used MiB) over timestamps ``t``."""
        n = t.shape[0]
        util = np.zeros(n)
        mem_used = np.zeros(n)

        lo = max(2.0, sig.util_mean - sig.util_amp)
        hi = sig.util_mean + 0.35 * sig.util_amp
        steady = lo + (hi - lo) * _step_wave(t, sig.step_period_s, sig.duty, step_phase0)

        for ph in schedule.phases:
            m = (t >= ph.start_s - 1e-12) & (t < ph.end_s - 1e-12)
            if not m.any():
                continue
            rel = (t[m] - ph.start_s) / max(ph.duration_s, 1e-9)
            if ph.kind == PhaseKind.STARTUP:
                # Generic near-idle compute with sparse autotune spikes.
                base = rng.uniform(1.0, 4.0) + 1.5 * np.abs(_ar1_noise(m.sum(), 1.0, 0.8, rng))
                spikes = (rng.random(m.sum()) < 0.01) * rng.uniform(10.0, 35.0, size=m.sum())
                util[m] = base + spikes
                # Memory ramps to the working set in discrete allocation
                # steps — the only (weak) class signal in this phase.
                k = max(1, sig.startup_alloc_steps)
                levels = np.floor(rel * k + 1e-9) / k
                util_frac = np.clip(levels + rng.normal(0, 0.01, size=m.sum()), 0, 1)
                mem_used[m] = 400.0 + util_frac * (sig.mem_used_mib - 400.0)
            elif ph.kind == PhaseKind.WARMUP:
                ramp = 0.45 + 0.55 * rel
                util[m] = steady[m] * ramp
                mem_used[m] = sig.mem_used_mib
            elif ph.kind == PhaseKind.TRAIN:
                u = steady[m].copy()
                dip = rel > (1.0 - sig.epoch_dip_frac)
                u[dip] *= 1.0 - sig.epoch_dip_depth
                util[m] = u
                mem_used[m] = sig.mem_used_mib
            elif ph.kind == PhaseKind.CHECKPOINT:
                util[m] = rng.uniform(4.0, 12.0) + _ar1_noise(m.sum(), 2.0, 0.6, rng)
                mem_used[m] = sig.mem_used_mib
            elif ph.kind == PhaseKind.COOLDOWN:
                util[m] = steady[m] * np.clip(1.0 - rel * 1.4, 0.0, 1.0)
                mem_used[m] = sig.mem_used_mib * np.clip(1.0 - rel * 0.9, 0.05, 1.0)

        util = util + _ar1_noise(n, sig.noise_util, 0.75, rng)
        util = np.clip(util, 0.0, 100.0)

        # Memory-bandwidth utilization: partially coupled to compute.
        coupled = sig.mem_util_mean * util / max(sig.util_mean, 1e-9)
        mem_util = (
            sig.mem_util_coupling * coupled
            + (1.0 - sig.mem_util_coupling) * sig.mem_util_mean
            + _ar1_noise(n, sig.noise_mem_util, 0.7, rng)
        )
        # Startup/checkpoint phases do little DRAM traffic regardless of class.
        quiet = schedule.mask(t, PhaseKind.STARTUP) | schedule.mask(t, PhaseKind.CHECKPOINT)
        mem_util[quiet] = np.clip(mem_util[quiet] * 0.12, 0.0, 8.0)
        mem_util = np.clip(mem_util, 0.0, 100.0)

        # Small measurement jitter on the footprint (allocator churn).
        mem_used = np.clip(
            mem_used + _ar1_noise(n, 25.0, 0.9, rng),
            0.0, self.gpu_model.spec.memory_mib,
        )
        return util, mem_util, mem_used

    def apply_glitches(self, data: np.ndarray, rng: np.random.Generator) -> None:
        """Inject telemetry read failures in place (sensor columns: Table III).

        Real monitoring pipelines drop samples (``nvidia-smi`` timeouts read
        as zero on the instantaneous counters) and occasionally spike.  The
        per-job glitch rate is itself heavy-tailed, so a minority of trials
        become feature-space outliers — robustness to which separates tree
        models from distance-based models on the real data.
        """
        if self.glitch_rate <= 0:
            return
        n = data.shape[0]
        rate = min(0.4, self.glitch_rate * float(rng.lognormal(0.0, 1.0)))
        drop = rng.random(n) < rate
        if drop.any():
            # Instantaneous counters read zero; temperatures and memory
            # footprint are cached by the collector and persist.
            data[drop, 0] = 0.0   # utilization_gpu_pct
            data[drop, 1] = 0.0   # utilization_memory_pct
            data[drop, 6] = 0.0   # power_draw_W
        spike = rng.random(n) < rate * 0.25
        if spike.any():
            data[spike, 0] = 100.0
            data[spike, 6] = self.gpu_model.spec.tdp_w

    # ------------------------------------------------------------------
    # Public entry point
    # ------------------------------------------------------------------
    def generate_job(
        self,
        spec: ArchitectureSpec,
        duration_s: float,
        rng: np.random.Generator,
        *,
        n_gpus: int = 1,
    ) -> JobTelemetry:
        """Generate the telemetry of one job: one :class:`GpuSeries` per GPU.

        GPUs of a data-parallel job share the jittered signature, phase
        schedule and step phase (synchronized all-reduce steps) but carry
        independent sensor noise and a small per-GPU utilization offset
        (straggler imbalance).
        """
        if n_gpus < 1:
            raise ValueError(f"n_gpus must be >= 1, got {n_gpus}")
        if duration_s < 3.0 * self.startup_mean_s:
            raise ValueError(
                f"duration_s={duration_s} too short; need >= {3 * self.startup_mean_s}"
            )
        sig = self.jitter_signature(signature_for(spec), rng)
        schedule = build_phase_schedule(
            sig, duration_s, rng, startup_mean_s=self.startup_mean_s
        )
        n = int(round(duration_s / self.dt_s))
        t = np.arange(n) * self.dt_s
        step_phase0 = float(rng.random())

        series: list[GpuSeries] = []
        for g in range(n_gpus):
            gpu_sig = sig
            if g > 0:
                gpu_sig = dataclasses.replace(
                    sig,
                    util_mean=float(np.clip(sig.util_mean * rng.normal(1.0, 0.02),
                                            5.0, 99.0)),
                )
            util, mem_util, mem_used = self.activity_traces(
                gpu_sig, schedule, t, rng, step_phase0=step_phase0
            )
            data = self.gpu_model.assemble(
                util, mem_util, mem_used, gpu_sig, self.dt_s, rng
            )
            self.apply_glitches(data, rng)
            series.append(GpuSeries(data=data, dt_s=self.dt_s, gpu_index=g))
        return JobTelemetry(gpu_series=series, signature=sig, schedule=schedule)
