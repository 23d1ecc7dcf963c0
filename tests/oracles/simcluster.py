"""Per-job reference generator of a simulated release.

The simulator as it was before it ran in passes: each job is generated
start to finish, and every AR(1) noise and thermal lag is its own
:func:`scipy.signal.lfilter` call.  The classes below subclass the
production models and override, verbatim, every method the pass structure
replaced; :func:`generate_one` and :func:`generate_release` are
``ClusterSimulator.generate_one`` and ``generate`` as they were.  The
production simulator must produce the same release byte for byte.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.simcluster import cluster, cpu_model, filesystem, gpu, workload
from repro.simcluster.architectures import ARCHITECTURES, ArchitectureSpec
from repro.simcluster.cpu_model import CpuSeries
from repro.simcluster.filesystem import FsCounters
from repro.simcluster.phases import PhaseKind, PhaseSchedule, build_phase_schedule
from repro.simcluster.scheduler import SchedulerLog
from repro.simcluster.sensors import CPU_METRICS, GPU_SENSORS, gpu_sensor_index
from repro.simcluster.signatures import SignatureParams, signature_for
from repro.simcluster.workload import GpuSeries, JobTelemetry, _step_wave

__all__ = ["GpuModel", "WorkloadGenerator", "CpuModel", "FsModel",
           "generate_one", "generate_release"]


def _ar1_noise(n: int, std: float, corr: float, rng: np.random.Generator) -> np.ndarray:
    """Temporally correlated (AR(1)) noise with stationary std ``std``."""
    if std <= 0:
        return np.zeros(n)
    from scipy.signal import lfilter  # imported here: serving never simulates

    white = rng.normal(0.0, std * np.sqrt(1.0 - corr**2), size=n)
    out = lfilter([1.0], [1.0, -corr], white)
    return out


def _first_order(target: np.ndarray, dt: float, tau: float, y0: float) -> np.ndarray:
    """Run ``y' = (target - y) / tau`` over a uniformly sampled target.

    Implemented as a single-pole IIR filter via :func:`scipy.signal.lfilter`
    (vectorized; no Python-level time loop).
    """
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    from scipy.signal import lfilter  # imported here: serving never simulates

    alpha = 1.0 - np.exp(-dt / tau)
    b = [alpha]
    a = [1.0, -(1.0 - alpha)]
    zi = np.array([(1.0 - alpha) * y0])
    y, _ = lfilter(b, a, target, zi=zi)
    return y


class GpuModel(gpu.GpuModel):
    """Per-series power, thermal lags and assembly."""

    def power(
        self,
        util_pct: np.ndarray,
        mem_util_pct: np.ndarray,
        sig: SignatureParams,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Instantaneous board power from compute and memory activity.

        Power = class base + class-specific watts/percent-util on compute,
        plus a smaller universal memory-bandwidth term, plus measurement
        noise; clipped to ``[idle, TDP]``.
        """
        p = (
            sig.power_base_w
            + sig.power_per_util * util_pct
            + 0.35 * mem_util_pct
            + rng.normal(0.0, sig.noise_power, size=util_pct.shape)
        )
        return np.clip(p, self.spec.idle_power_w, self.spec.tdp_w)

    def temperatures(
        self,
        power_w: np.ndarray,
        mem_util_pct: np.ndarray,
        dt: float,
        *,
        ambient_c: float | None = None,
        cooling: float = 1.0,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Core and HBM temperature series driven by power.

        Both follow first-order dynamics toward ``ambient + k * power``; the
        memory temperature additionally tracks memory-bandwidth activity
        (HBM self-heating).

        ``ambient_c`` and ``cooling`` model per-node environment variation
        (rack position, fan curves).  This injects *class-irrelevant*
        variance into the temperature channels — on the real cluster,
        temperature carries more node identity than workload identity,
        which is part of why distance-based models underperform tree models
        on covariance features (Table V).
        """
        spec = self.spec
        if ambient_c is None:
            ambient_c = spec.ambient_c
        core_target = ambient_c + cooling * spec.core_c_per_w * power_w
        mem_target = (
            ambient_c
            + cooling * spec.mem_c_per_w * power_w
            + 0.06 * mem_util_pct
        )
        t0 = ambient_c + cooling * spec.core_c_per_w * spec.idle_power_w
        core = _first_order(core_target, dt, spec.core_tau_s, t0)
        mem = _first_order(mem_target, dt, spec.mem_tau_s, t0)
        return core, mem

    def assemble(
        self,
        util_pct: np.ndarray,
        mem_util_pct: np.ndarray,
        mem_used_mib: np.ndarray,
        sig: SignatureParams,
        dt: float,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Build the full ``(n_samples, 7)`` sensor matrix in Table III order."""
        n = util_pct.shape[0]
        power = self.power(util_pct, mem_util_pct, sig, rng)
        # Per-GPU thermal environment: rack ambient and cooling efficiency
        # vary by node, independent of the workload class.
        ambient = float(self.spec.ambient_c + rng.normal(0.0, 2.0))
        cooling = float(rng.lognormal(0.0, 0.07))
        temp_core, temp_mem = self.temperatures(
            power, mem_util_pct, dt, ambient_c=ambient, cooling=cooling
        )
        # Thermal throttling: above the slowdown temperature the driver caps
        # clocks, cutting power and effective utilization.  This is a sharp
        # regime switch — classes whose steady state approaches the limit
        # acquire a distinct clipped signature.
        throttle = temp_core > self.spec.throttle_c
        if throttle.any():
            power = power.copy()
            util_pct = np.asarray(util_pct, dtype=np.float64).copy()
            power[throttle] *= 0.82
            util_pct[throttle] = np.minimum(util_pct[throttle] * 0.88, 100.0)
        mem_used = np.clip(mem_used_mib, 0.0, self.spec.memory_mib)
        out = np.empty((n, len(GPU_SENSORS)), dtype=np.float64)
        out[:, gpu_sensor_index("utilization_gpu_pct")] = np.clip(util_pct, 0.0, 100.0)
        out[:, gpu_sensor_index("utilization_memory_pct")] = np.clip(
            mem_util_pct, 0.0, 100.0
        )
        out[:, gpu_sensor_index("memory_free_MiB")] = self.spec.memory_mib - mem_used
        out[:, gpu_sensor_index("memory_used_MiB")] = mem_used
        out[:, gpu_sensor_index("temperature_gpu")] = temp_core
        out[:, gpu_sensor_index("temperature_memory")] = temp_mem
        out[:, gpu_sensor_index("power_draw_W")] = power
        # Final physical-range clip per sensor spec.
        for j, spec_j in enumerate(GPU_SENSORS):
            out[:, j] = spec_j.clip(out[:, j])
        return out


class WorkloadGenerator(workload.WorkloadGenerator):
    """Per-series activity, per-series filters, per-job generation."""

    def __init__(self, dt_s: float = workload.DEFAULT_DT_S,
                 startup_mean_s: float = 40.0, glitch_rate: float = 0.004):
        super().__init__(GpuModel(), dt_s=dt_s, startup_mean_s=startup_mean_s,
                         glitch_rate=glitch_rate)

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


class CpuModel(cpu_model.CpuModel):
    """Per-mask phase lookups and per-column clipping."""

    def generate(
        self,
        sig: SignatureParams,
        schedule: PhaseSchedule,
        rng: np.random.Generator,
    ) -> CpuSeries:
        """Generate the CPU series aligned to a job's phase schedule."""
        n = max(2, int(round(schedule.total_s / self.dt_s)))
        t = np.arange(n) * self.dt_s

        startup = schedule.mask(t, PhaseKind.STARTUP)
        ckpt = schedule.mask(t, PhaseKind.CHECKPOINT)
        cooldown = schedule.mask(t, PhaseKind.COOLDOWN)

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
        for j, spec_j in enumerate(CPU_METRICS):
            hi = spec_j.hi if np.isfinite(spec_j.hi) else np.inf
            out[:, j] = np.clip(out[:, j], spec_j.lo, hi)
        return CpuSeries(data=out, dt_s=self.dt_s)


class FsModel(filesystem.FsModel):
    """Per-mask phase lookups."""

    def generate(
        self,
        sig: SignatureParams,
        schedule: PhaseSchedule,
        rng: np.random.Generator,
    ) -> FsCounters:
        """Counter series aligned to the job's phase schedule."""
        n = max(2, int(np.ceil(schedule.total_s / self.dt_s)))
        t = np.arange(n) * self.dt_s

        startup = schedule.mask(t, PhaseKind.STARTUP)
        ckpt = schedule.mask(t, PhaseKind.CHECKPOINT)
        cooldown = schedule.mask(t, PhaseKind.COOLDOWN)

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


class _Simulator(cluster.ClusterSimulator):
    def __init__(self, config: cluster.SimulationConfig):
        super().__init__(config)
        self._workload = WorkloadGenerator(
            dt_s=self.config.dt_s, startup_mean_s=self.config.startup_mean_s)
        self._cpu = CpuModel(dt_s=self.config.cpu_dt_s)
        self._fs = FsModel(dt_s=self.config.fs_dt_s)

    def generate_one(self, job_id: int, spec: ArchitectureSpec) -> cluster.SimulatedJob:
        """Generate a single job's record and telemetry (order-independent)."""
        rng = self._seeds.stream(f"job-{job_id:06d}")
        cfg = self.config

        duration = float(np.clip(
            rng.lognormal(np.log(cfg.duration_lognorm_mean_s), cfg.duration_lognorm_sigma),
            *cfg.duration_clip_s,
        ))
        n_gpus = int(rng.choice(cfg.gpus_per_job_choices, p=cfg.gpus_per_job_probs))
        gpn = min(cfg.gpus_per_node, n_gpus)
        n_nodes = -(-n_gpus // gpn)  # ceil division

        record = SchedulerLog.make_record(
            job_id=job_id,
            architecture=spec.name,
            class_label=ARCHITECTURES.index(spec),
            duration_s=duration,
            rng=rng,
            n_nodes=n_nodes,
            gpus_per_node=gpn,
        )
        telemetry: JobTelemetry = self._workload.generate_job(
            spec, duration, rng, n_gpus=n_gpus
        )
        cpu = None
        if cfg.generate_cpu:
            cpu = self._cpu.generate(telemetry.signature, telemetry.schedule, rng)
        fs = None
        if cfg.generate_fs:
            fs = self._fs.generate(telemetry.signature, telemetry.schedule, rng)
        return cluster.SimulatedJob(record=record, gpu_series=telemetry.gpu_series,
                                    cpu_series=cpu, fs_counters=fs)


def generate_one(config: cluster.SimulationConfig, job_id: int,
                 spec: ArchitectureSpec) -> cluster.SimulatedJob:
    """One job of the release, generated start to finish."""
    return _Simulator(config).generate_one(job_id, spec)


def generate_release(config: cluster.SimulationConfig) -> list[cluster.SimulatedJob]:
    """Every job of the release, one after another."""
    sim = _Simulator(config)
    return [sim.generate_one(job_id, spec) for job_id, spec in sim.job_plan()]
