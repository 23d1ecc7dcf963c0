"""Whole-cluster simulation driver.

:class:`ClusterSimulator` generates the labelled-dataset substitute: for
each of the 26 architecture classes it samples jobs (count proportional to
the paper's Tables VII–IX job counts), gives each job a duration, node/GPU
allocation and identity, and synthesizes GPU (and optionally CPU) telemetry.

Determinism: every job draws from its own named random stream derived from
the config seed (see :class:`repro.utils.SeedSequenceFactory`), so the i-th
job of class c is bit-identical no matter the generation order.

Passes: :meth:`ClusterSimulator.generate` first takes every job's draws, in
plan order and in each job's stream order (duration, GPU count, scheduler
record, the GPU side's draws — see :mod:`repro.simcluster.workload` — then
the CPU and filesystem series).  It then runs one filter pass over every
AR(1) noise of the release, every series' activity and power arithmetic,
one pass over every thermal lag, and every series' sensor matrix.
:meth:`~ClusterSimulator.generate_one` runs the same passes on one job.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.simcluster._recurrence import Recurrences
from repro.simcluster.architectures import ARCHITECTURES, ArchitectureSpec
from repro.simcluster.cpu_model import CpuModel, CpuSeries, DEFAULT_CPU_DT_S
from repro.simcluster.filesystem import DEFAULT_FS_DT_S, FsCounters, FsModel
from repro.simcluster.scheduler import JobRecord, SchedulerLog
from repro.simcluster.workload import DEFAULT_DT_S, GpuSeries, WorkloadGenerator
from repro.utils.rng import SeedSequenceFactory

__all__ = ["SimulationConfig", "SimulatedJob", "ClusterSimulator"]


@dataclass(frozen=True)
class SimulationConfig:
    """Knobs of one simulated labelled-dataset release.

    Attributes
    ----------
    seed:
        Root seed; every number in the release derives from it.
    trials_scale:
        Multiplier on the paper's per-class job counts.  ``1.0`` reproduces
        the 3,430-job release; the default ``0.02`` yields a ~70-job release
        that the full test suite can regenerate in seconds.
    min_jobs_per_class:
        Floor on per-class job counts after scaling (keeps the rare GNN
        classes represented at small scales).
    duration_lognorm_mean_s / duration_lognorm_sigma:
        Job durations are log-normal (heavy right tail, like real queue
        traces), clipped to ``duration_clip_s``.
    gpus_per_job_choices / gpus_per_job_probs:
        Distribution over total GPUs per job.  Multi-GPU jobs contribute one
        labelled series per GPU, so the series count exceeds the job count
        (paper: >17k series from 3,430 jobs).
    """

    seed: int = 2022
    trials_scale: float = 0.02
    min_jobs_per_class: int = 3
    duration_lognorm_mean_s: float = 300.0
    duration_lognorm_sigma: float = 0.35
    duration_clip_s: tuple[float, float] = (150.0, 1200.0)
    gpus_per_job_choices: tuple[int, ...] = (1, 2, 4)
    gpus_per_job_probs: tuple[float, ...] = (0.70, 0.20, 0.10)
    gpus_per_node: int = 2
    dt_s: float = DEFAULT_DT_S
    cpu_dt_s: float = DEFAULT_CPU_DT_S
    fs_dt_s: float = DEFAULT_FS_DT_S
    startup_mean_s: float = 40.0
    generate_cpu: bool = True
    generate_fs: bool = False

    def __post_init__(self):
        if self.trials_scale <= 0:
            raise ValueError(f"trials_scale must be positive, got {self.trials_scale}")
        if self.min_jobs_per_class < 1:
            raise ValueError("min_jobs_per_class must be >= 1")
        if len(self.gpus_per_job_choices) != len(self.gpus_per_job_probs):
            raise ValueError("gpus_per_job_choices and probs must align")
        if abs(sum(self.gpus_per_job_probs) - 1.0) > 1e-9:
            raise ValueError("gpus_per_job_probs must sum to 1")
        if any(g < 1 for g in self.gpus_per_job_choices):
            raise ValueError(
                f"gpus_per_job_choices must be positive, got {self.gpus_per_job_choices}")
        if self.gpus_per_node < 1:
            raise ValueError(f"gpus_per_node must be >= 1, got {self.gpus_per_node}")
        for name in ("dt_s", "cpu_dt_s", "fs_dt_s"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        lo, hi = self.duration_clip_s
        if not 0 < lo < hi:
            raise ValueError(f"invalid duration_clip_s {self.duration_clip_s}")
        if lo < 3.0 * self.startup_mean_s:
            raise ValueError(
                f"duration_clip_s[0]={lo} is shorter than 3 * startup_mean_s="
                f"{3.0 * self.startup_mean_s}, so short jobs could not be generated")

    def jobs_for_class(self, spec: ArchitectureSpec) -> int:
        """Scaled job count for one class."""
        return max(self.min_jobs_per_class,
                   int(round(spec.paper_job_count * self.trials_scale)))

    def total_jobs(self) -> int:
        """Total jobs across all classes at this scale."""
        return sum(self.jobs_for_class(s) for s in ARCHITECTURES)


@dataclass
class SimulatedJob:
    """One labelled job: scheduler record plus telemetry."""

    record: JobRecord
    gpu_series: list[GpuSeries]
    cpu_series: CpuSeries | None = None
    fs_counters: FsCounters | None = None

    @property
    def label(self) -> int:
        """The job's class label."""
        return self.record.class_label

    @property
    def architecture(self) -> str:
        """The job's architecture class name."""
        return self.record.architecture


class ClusterSimulator:
    """Generates a full labelled-dataset release."""

    def __init__(self, config: SimulationConfig | None = None):
        self.config = config if config is not None else SimulationConfig()
        self._workload = WorkloadGenerator(
            dt_s=self.config.dt_s, startup_mean_s=self.config.startup_mean_s
        )
        self._cpu = CpuModel(dt_s=self.config.cpu_dt_s)
        self._fs = FsModel(dt_s=self.config.fs_dt_s)
        self._seeds = SeedSequenceFactory(self.config.seed)

    # ------------------------------------------------------------------
    def job_plan(self) -> list[tuple[int, ArchitectureSpec]]:
        """Deterministic (job_id, class) plan for the whole release."""
        plan: list[tuple[int, ArchitectureSpec]] = []
        job_id = 0
        for spec in ARCHITECTURES:
            for _ in range(self.config.jobs_for_class(spec)):
                plan.append((job_id, spec))
                job_id += 1
        return plan

    def generate_one(self, job_id: int, spec: ArchitectureSpec) -> SimulatedJob:
        """Generate a single job's record and telemetry (order-independent)."""
        return self._generate([(job_id, spec)])[0]

    def _generate(
        self, plan: list[tuple[int, ArchitectureSpec]]
    ) -> list[SimulatedJob]:
        """Every draw of every planned job, then the filter passes."""
        cfg = self.config
        queue = Recurrences()
        drawn = []
        for job_id, spec in plan:
            rng = self._seeds.stream(f"job-{job_id:06d}")
            duration = float(np.clip(
                rng.lognormal(np.log(cfg.duration_lognorm_mean_s),
                              cfg.duration_lognorm_sigma),
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
            job = self._workload.job_passes(spec, duration, rng, queue, n_gpus=n_gpus)
            sig, schedule = next(job)
            cpu = self._cpu.generate(sig, schedule, rng) if cfg.generate_cpu else None
            fs = self._fs.generate(sig, schedule, rng) if cfg.generate_fs else None
            drawn.append((record, job, cpu, fs))
        telemetry = self._workload.finish_jobs([job for _, job, _, _ in drawn], queue)
        return [SimulatedJob(record=record, gpu_series=tel.gpu_series,
                             cpu_series=cpu, fs_counters=fs)
                for (record, _, cpu, fs), tel in zip(drawn, telemetry)]

    def generate(
        self, *, store=None
    ) -> tuple[list[SimulatedJob], SchedulerLog]:
        """Generate the whole release.

        ``store`` (an optional :class:`~repro.store.TelemetryStore`)
        archives every GPU series as it is generated: the jobs are
        ingested and sealed before this returns, so a downstream replay
        reads back bit-identical float32 telemetry.
        """
        jobs = self._generate(self.job_plan())
        log = SchedulerLog()
        for job in jobs:
            log.append(job.record)
        if store is not None:
            store.ingest(jobs)
        return jobs, log
