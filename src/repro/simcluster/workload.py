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

Passes.  The AR(1) noises of step 3 and the thermal lags of step 4 are
first-order filters, and a release runs each kind in one time loop over all
of its series (:func:`repro.simcluster._recurrence.first_order_pass`).  So
a job is generated in passes, by a generator that suspends at each filter
pass (:meth:`WorkloadGenerator.job_passes`):

1. every random draw of the job, in stream order; AR(1) noises queued;
2. after the AR(1) pass: activity and power arithmetic; thermal lags queued;
3. after the thermal pass: throttling, the sensor matrix, glitches.

Every draw's size depends only on the schedule, never on a filter output,
so deferring the filters changes neither the stream order nor any byte of
the release.  :meth:`WorkloadGenerator.generate_job` runs the passes on one
job.  Everything is vectorized over time (the filter passes over series
too); the only Python-level loops are over a job's phases and GPUs and the
passes' time steps.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from repro.simcluster._recurrence import Recurrences
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
    def _series_passes(
        self,
        sig: SignatureParams,
        gpu_index: int,
        t: np.ndarray,
        wave: np.ndarray,
        spans: list,
        quiet: np.ndarray,
        rng: np.random.Generator,
        queue: Recurrences,
    ) -> Iterator:
        """One GPU series in three passes (see the module docstring).

        ``wave`` is the job's training-step wave over timestamps ``t``,
        ``spans`` its ``(phase, lo, hi)`` sample slices and ``quiet`` its
        startup/checkpoint mask.  Yields twice before a filter pass, then
        the :class:`GpuSeries`.  A suspended generator keeps its locals
        alive through every other series' passes, so each stage deletes
        what the later stages do not read.
        """
        n = t.shape[0]
        util = np.zeros(n)
        mem_used = np.zeros(n)

        lo = max(2.0, sig.util_mean - sig.util_amp)
        hi = sig.util_mean + 0.35 * sig.util_amp
        steady = lo + (hi - lo) * wave

        # (slice, level, AR(1) noise, spikes or None): utilization that
        # waits on its noise until the AR(1) pass.
        noisy = []
        for ph, a, b in spans:
            if a >= b:
                continue
            m = slice(a, b)
            rel = (t[m] - ph.start_s) / max(ph.duration_s, 1e-9)
            if ph.kind == PhaseKind.STARTUP:
                # Generic near-idle compute with sparse autotune spikes.
                level = rng.uniform(1.0, 4.0)
                noise = queue.ar1(b - a, 1.0, 0.8, rng)
                spikes = (rng.random(b - a) < 0.01) * rng.uniform(10.0, 35.0, size=b - a)
                noisy.append((m, level, noise, spikes))
                # Memory ramps to the working set in discrete allocation
                # steps — the only (weak) class signal in this phase.
                k = max(1, sig.startup_alloc_steps)
                levels = np.floor(rel * k + 1e-9) / k
                util_frac = np.clip(levels + rng.normal(0, 0.01, size=b - a), 0, 1)
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
                level = rng.uniform(4.0, 12.0)
                noisy.append((m, level, queue.ar1(b - a, 2.0, 0.6, rng), None))
                mem_used[m] = sig.mem_used_mib
            elif ph.kind == PhaseKind.COOLDOWN:
                util[m] = steady[m] * np.clip(1.0 - rel * 1.4, 0.0, 1.0)
                mem_used[m] = sig.mem_used_mib * np.clip(1.0 - rel * 0.9, 0.05, 1.0)
        del steady
        util_noise = queue.ar1(n, sig.noise_util, 0.75, rng)
        mem_util_noise = queue.ar1(n, sig.noise_mem_util, 0.7, rng)
        # Small measurement jitter on the footprint (allocator churn).
        mem_used_noise = queue.ar1(n, 25.0, 0.9, rng)
        power_noise, ambient, cooling = self.gpu_model.draw_noise(sig, n, rng)
        glitches = self._draw_glitches(n, rng)
        yield  # the AR(1) pass

        for m, level, noise, spikes in noisy:
            if spikes is None:
                util[m] = level + noise
            else:
                util[m] = level + 1.5 * np.abs(noise) + spikes
        del noisy
        util = util + util_noise
        util = np.clip(util, 0.0, 100.0)

        # Memory-bandwidth utilization: partially coupled to compute.
        coupled = sig.mem_util_mean * util / max(sig.util_mean, 1e-9)
        mem_util = (
            sig.mem_util_coupling * coupled
            + (1.0 - sig.mem_util_coupling) * sig.mem_util_mean
            + mem_util_noise
        )
        # Startup/checkpoint phases do little DRAM traffic regardless of class.
        mem_util[quiet] = np.clip(mem_util[quiet] * 0.12, 0.0, 8.0)
        mem_util = np.clip(mem_util, 0.0, 100.0)

        mem_used = np.clip(
            mem_used + mem_used_noise, 0.0, self.gpu_model.spec.memory_mib,
        )
        del coupled, util_noise, mem_util_noise, mem_used_noise
        power = self.gpu_model.power_from_noise(util, mem_util, sig, power_noise)
        del power_noise
        temp_core, temp_mem = self.gpu_model.queue_temperatures(
            queue, power, mem_util, self.dt_s, ambient_c=ambient, cooling=cooling
        )
        yield  # the thermal pass

        data = self.gpu_model.sensors(
            util, mem_util, mem_used, power, temp_core, temp_mem)
        del util, mem_util, mem_used, power, temp_core, temp_mem
        if glitches is not None:
            self._put_glitches(data, *glitches)
        del glitches
        yield GpuSeries(data=data, dt_s=self.dt_s, gpu_index=gpu_index)

    def _draw_glitches(self, n: int, rng: np.random.Generator):
        """A series' telemetry read failures: ``(drop, spike)`` masks, or None."""
        if self.glitch_rate <= 0:
            return None
        rate = min(0.4, self.glitch_rate * float(rng.lognormal(0.0, 1.0)))
        drop = rng.random(n) < rate
        spike = rng.random(n) < rate * 0.25
        return drop, spike

    def _put_glitches(self, data: np.ndarray, drop: np.ndarray, spike: np.ndarray) -> None:
        if drop.any():
            # Instantaneous counters read zero; temperatures and memory
            # footprint are cached by the collector and persist.
            data[drop, 0] = 0.0   # utilization_gpu_pct
            data[drop, 1] = 0.0   # utilization_memory_pct
            data[drop, 6] = 0.0   # power_draw_W
        if spike.any():
            data[spike, 0] = 100.0
            data[spike, 6] = self.gpu_model.spec.tdp_w

    def apply_glitches(self, data: np.ndarray, rng: np.random.Generator) -> None:
        """Inject telemetry read failures in place (sensor columns: Table III).

        Real monitoring pipelines drop samples (``nvidia-smi`` timeouts read
        as zero on the instantaneous counters) and occasionally spike.  The
        per-job glitch rate is itself heavy-tailed, so a minority of trials
        become feature-space outliers — robustness to which separates tree
        models from distance-based models on the real data.
        """
        glitches = self._draw_glitches(data.shape[0], rng)
        if glitches is not None:
            self._put_glitches(data, *glitches)

    # ------------------------------------------------------------------
    # Public entry points
    # ------------------------------------------------------------------
    def job_passes(
        self,
        spec: ArchitectureSpec,
        duration_s: float,
        rng: np.random.Generator,
        queue: Recurrences,
        *,
        n_gpus: int = 1,
    ) -> Iterator:
        """Generate one job's telemetry in passes: a generator.

        The first ``next`` takes every draw of the job's GPU side, queues
        its AR(1) noises on ``queue`` and yields ``(signature, schedule)``
        (the CPU and filesystem models draw next, from the same stream).
        :meth:`finish_jobs` then runs the filter passes and yields the
        :class:`JobTelemetry`.

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
        # One step wave, phase lookup and set of phase slices per job: the
        # wave depends on the step period, duty and phase, which its GPUs
        # share.  ``t`` is sorted, so each phase [start, end) (less 1e-12)
        # is the sample slice between two searchsorted bounds.
        wave = _step_wave(t, sig.step_period_s, sig.duty, step_phase0)
        bounds = np.searchsorted(
            t, [(ph.start_s - 1e-12, ph.end_s - 1e-12) for ph in schedule.phases]
        ).tolist()
        spans = [(ph, a, b) for ph, (a, b) in zip(schedule.phases, bounds)]
        quiet = np.logical_or(
            *schedule.masks(t, PhaseKind.STARTUP, PhaseKind.CHECKPOINT))

        series = []
        for g in range(n_gpus):
            gpu_sig = sig
            if g > 0:
                gpu_sig = dataclasses.replace(
                    sig,
                    util_mean=float(np.clip(sig.util_mean * rng.normal(1.0, 0.02),
                                            5.0, 99.0)),
                )
            passes = self._series_passes(
                gpu_sig, g, t, wave, spans, quiet, rng, queue)
            next(passes)
            series.append(passes)
        del t, wave, quiet   # the series hold them until they finish
        yield sig, schedule
        for passes in series:
            next(passes)
        yield
        gpu_series = [next(passes) for passes in series]
        del series
        yield JobTelemetry(gpu_series=gpu_series, signature=sig, schedule=schedule)

    @staticmethod
    def finish_jobs(jobs: list, queue: Recurrences) -> list[JobTelemetry]:
        """Finish jobs whose draws :meth:`job_passes` took, all on ``queue``.

        One AR(1) pass, every series' activity and power, one thermal pass,
        then every series' sensor matrix.
        """
        queue.run()
        for job in jobs:
            next(job)
        queue.run()
        return [next(job) for job in jobs]

    def generate_job(
        self,
        spec: ArchitectureSpec,
        duration_s: float,
        rng: np.random.Generator,
        *,
        n_gpus: int = 1,
    ) -> JobTelemetry:
        """Generate the telemetry of one job: one :class:`GpuSeries` per GPU."""
        queue = Recurrences()
        job = self.job_passes(spec, duration_s, rng, queue, n_gpus=n_gpus)
        next(job)
        return self.finish_jobs([job], queue)[0]
