"""Tests for the CPU model, scheduler log, anonymization and the cluster
simulator driver."""

import numpy as np
import pytest

from repro.simcluster.anonymize import anonymize_id
from repro.simcluster.architectures import ARCHITECTURES, get_architecture
from repro.simcluster.cluster import ClusterSimulator, SimulationConfig
from repro.simcluster.cpu_model import CpuModel
from repro.simcluster.phases import build_phase_schedule
from repro.simcluster.scheduler import JobRecord, SchedulerLog
from repro.simcluster.sensors import CPU_METRICS
from repro.simcluster.signatures import signature_for


class TestAnonymize:
    def test_deterministic(self):
        assert anonymize_id("alice") == anonymize_id("alice")

    def test_distinct_inputs_distinct_hashes(self):
        assert anonymize_id("alice") != anonymize_id("bob")

    def test_salt_changes_hash(self):
        assert anonymize_id("alice", salt="a") != anonymize_id("alice", salt="b")

    def test_length(self):
        assert len(anonymize_id("alice", length=12)) == 12

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            anonymize_id("")

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            anonymize_id("alice", length=2)


class TestCpuModel:
    def _series(self, name="VGG16", seed=0, total=300.0):
        sig = signature_for(get_architecture(name))
        sched = build_phase_schedule(sig, total, np.random.default_rng(seed))
        return CpuModel().generate(sig, sched, np.random.default_rng(seed)), sched

    def test_shape(self):
        series, _ = self._series()
        assert series.data.shape[1] == len(CPU_METRICS)
        assert series.n_samples == 30  # 300 s at 10 s sampling

    def test_sampled_slower_than_gpu(self):
        """The stated challenge difficulty: CPU and GPU series have
        different lengths for the same trial."""
        series, sched = self._series()
        gpu_samples = int(round(sched.total_s / (60.0 / 540.0)))
        assert series.n_samples < gpu_samples / 10

    def test_cumulative_counters_monotone(self):
        series, _ = self._series()
        for col, name in [(1, "CPUTime"), (6, "ReadMB"), (7, "WriteMB")]:
            values = series.data[:, col]
            assert np.all(np.diff(values) >= -1e-9), name

    def test_utilization_in_range(self):
        series, _ = self._series()
        util = series.data[:, 2]
        assert util.min() >= 0.0 and util.max() <= 100.0

    def test_rss_below_node_ram(self):
        series, _ = self._series("Bert")
        assert series.data[:, 3].max() <= 384 * 1024

    def test_invalid_dt(self):
        with pytest.raises(ValueError):
            CpuModel(dt_s=0.0)


class TestJobRecord:
    def test_derived_quantities(self):
        r = JobRecord(1, "abc", "VGG16", 1, n_nodes=2, gpus_per_node=2,
                      submit_time_s=0.0, start_time_s=10.0, end_time_s=110.0)
        assert r.n_gpus == 4
        assert r.duration_s == 100.0
        assert r.queue_wait_s == 10.0

    def test_rejects_end_before_start(self):
        with pytest.raises(ValueError, match="end before start"):
            JobRecord(1, "a", "VGG16", 1, 1, 1, 0.0, 10.0, 5.0)

    def test_rejects_start_before_submit(self):
        with pytest.raises(ValueError, match="before submission"):
            JobRecord(1, "a", "VGG16", 1, 1, 1, 20.0, 10.0, 50.0)

    def test_rejects_zero_resources(self):
        with pytest.raises(ValueError):
            JobRecord(1, "a", "VGG16", 1, 0, 1, 0.0, 1.0, 2.0)


class TestSchedulerLog:
    def test_total_gpu_series_counts_multi_gpu(self):
        log = SchedulerLog()
        rng = np.random.default_rng(0)
        log.append(SchedulerLog.make_record(0, "VGG16", 1, 100.0, rng,
                                            n_nodes=2, gpus_per_node=2))
        log.append(SchedulerLog.make_record(1, "Bert", 20, 100.0, rng))
        assert log.total_gpu_series() == 5
        assert len(log) == 2

    def test_by_class(self):
        log = SchedulerLog()
        rng = np.random.default_rng(0)
        log.append(SchedulerLog.make_record(0, "VGG16", 1, 100.0, rng))
        log.append(SchedulerLog.make_record(1, "Bert", 20, 100.0, rng))
        assert len(log.by_class(20)) == 1

    def test_user_hash_is_anonymized(self):
        rng = np.random.default_rng(0)
        rec = SchedulerLog.make_record(0, "VGG16", 1, 100.0, rng, user="alice")
        assert rec.user_hash == anonymize_id("alice")
        assert "alice" not in rec.user_hash


class TestSimulationConfig:
    def test_defaults_valid(self):
        SimulationConfig()

    def test_jobs_for_class_proportional(self):
        cfg = SimulationConfig(trials_scale=0.1, min_jobs_per_class=1)
        vgg11 = get_architecture("VGG11")
        assert cfg.jobs_for_class(vgg11) == round(185 * 0.1)

    def test_min_jobs_floor(self):
        cfg = SimulationConfig(trials_scale=0.01, min_jobs_per_class=5)
        pna = get_architecture("PNA")  # 27 paper jobs -> 0 scaled
        assert cfg.jobs_for_class(pna) == 5

    def test_full_scale_total_jobs(self):
        """trials_scale=1.0 reproduces the 3,430-job release size."""
        cfg = SimulationConfig(trials_scale=1.0, min_jobs_per_class=1)
        assert cfg.total_jobs() == 3430

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(trials_scale=0.0),
            dict(min_jobs_per_class=0),
            dict(gpus_per_job_probs=(0.5, 0.5, 0.5)),
            dict(duration_clip_s=(500.0, 100.0)),
            dict(gpus_per_node=0),
            dict(gpus_per_job_choices=(0, 2, 4)),
            dict(gpus_per_job_choices=(1, -2, 4)),
            dict(startup_mean_s=60.0),
            dict(dt_s=0.0),
            dict(cpu_dt_s=0.0),
            dict(fs_dt_s=-30.0),
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ValueError):
            SimulationConfig(**kwargs)


class TestClusterSimulator:
    def test_plan_covers_all_classes(self, tiny_sim_config):
        sim = ClusterSimulator(tiny_sim_config)
        plan = sim.job_plan()
        assert {spec.name for _, spec in plan} == {a.name for a in ARCHITECTURES}

    def test_generate_one_order_independent(self, tiny_sim_config):
        sim = ClusterSimulator(tiny_sim_config)
        plan = sim.job_plan()
        job_id, spec = plan[5]
        a = sim.generate_one(job_id, spec)
        # Generate a different job in between; stream isolation must hold.
        sim.generate_one(*plan[2])
        b = ClusterSimulator(tiny_sim_config).generate_one(job_id, spec)
        np.testing.assert_array_equal(
            a.gpu_series[0].data, b.gpu_series[0].data
        )

    def test_generate_full_release(self, tiny_sim_config):
        jobs, log = ClusterSimulator(tiny_sim_config).generate()
        assert len(jobs) == len(log)
        assert log.total_gpu_series() >= len(jobs)
        for job in jobs:
            assert len(job.gpu_series) == job.record.n_gpus
            assert job.cpu_series is not None

    def test_durations_respect_clip(self, tiny_sim_config):
        jobs, _ = ClusterSimulator(tiny_sim_config).generate()
        lo, hi = tiny_sim_config.duration_clip_s
        for job in jobs:
            assert lo <= job.record.duration_s <= hi
