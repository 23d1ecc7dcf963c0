"""Tests for the GPU device model and workload generator."""

import numpy as np
import pytest

from repro.simcluster.architectures import get_architecture
from repro.simcluster._recurrence import Recurrences
from repro.simcluster.gpu import GpuModel, V100_SPEC, _lag
from repro.simcluster.phases import PhaseKind, build_phase_schedule
from repro.simcluster.sensors import GPU_SENSORS, gpu_sensor_index
from repro.simcluster.signatures import signature_for
from repro.simcluster.workload import DEFAULT_DT_S, WorkloadGenerator


def _first_order(target, dt, tau, y0):
    """One series through the release's thermal-lag filter pass."""
    queue = Recurrences()
    y = queue.add(np.array(target, dtype=np.float64), *_lag(dt, tau, y0))
    queue.run()
    return y


def _temperatures(model, power, mem_util, dt, **env):
    """Core and HBM temperatures of one series: queue its lags, run them."""
    queue = Recurrences()
    core, mem = model.queue_temperatures(queue, power, mem_util, dt, **env)
    queue.run()
    return core, mem


def assemble(model, util, mem_util, mem_used, sig, dt, rng):
    """One series' ``(n, 7)`` sensor matrix through the release's pass steps."""
    noise, ambient, cooling = model.draw_noise(sig, util.shape[0], rng)
    power = model.power_from_noise(util, mem_util, sig, noise)
    temp_core, temp_mem = _temperatures(model, power, mem_util, dt,
                                        ambient_c=ambient, cooling=cooling)
    return model.sensors(util, mem_util, mem_used, power, temp_core, temp_mem)


class TestFirstOrderFilter:
    def test_converges_to_constant_target(self):
        target = np.full(5000, 80.0)
        y = _first_order(target, dt=0.1, tau=5.0, y0=30.0)
        assert abs(y[-1] - 80.0) < 0.5

    def test_monotone_approach(self):
        target = np.full(200, 80.0)
        y = _first_order(target, dt=0.1, tau=5.0, y0=30.0)
        assert np.all(np.diff(y) >= -1e-9)

    def test_smooths_high_frequency(self):
        rng = np.random.default_rng(0)
        target = 50.0 + rng.normal(0, 20, size=2000)
        y = _first_order(target, dt=0.1, tau=10.0, y0=50.0)
        assert y.std() < target.std() / 3

    def test_invalid_tau(self):
        with pytest.raises(ValueError):
            _lag(0.1, 0.0, 0.0)


class TestGpuModel:
    def _inputs(self, n=500):
        rng = np.random.default_rng(1)
        util = np.clip(rng.normal(70, 10, n), 0, 100)
        mem_util = np.clip(rng.normal(40, 8, n), 0, 100)
        mem_used = np.full(n, 12_000.0)
        return util, mem_util, mem_used, rng

    def test_power_within_envelope(self):
        util, mem_util, _, rng = self._inputs()
        sig = signature_for(get_architecture("VGG16"))
        model = GpuModel()
        noise = model.draw_noise(sig, util.shape[0], rng)[0]
        p = model.power_from_noise(util, mem_util, sig, noise)
        assert p.min() >= V100_SPEC.idle_power_w
        assert p.max() <= V100_SPEC.tdp_w

    def test_power_increases_with_util(self):
        sig = signature_for(get_architecture("VGG16"))
        rng = np.random.default_rng(2)
        model = GpuModel()

        def power(util, mem_util):
            noise = model.draw_noise(sig, 200, rng)[0]
            return model.power_from_noise(np.full(200, util),
                                          np.full(200, mem_util), sig, noise)

        low = power(10.0, 10.0)
        high = power(90.0, 60.0)
        assert high.mean() > low.mean() + 50

    def test_assemble_shape_and_order(self):
        util, mem_util, mem_used, rng = self._inputs()
        sig = signature_for(get_architecture("Bert"))
        out = assemble(GpuModel(), util, mem_util, mem_used, sig, 0.1, rng)
        assert out.shape == (500, 7)
        np.testing.assert_allclose(
            out[:, gpu_sensor_index("utilization_gpu_pct")], util, atol=1e-9
        )

    def test_memory_free_plus_used_is_capacity(self):
        util, mem_util, mem_used, rng = self._inputs()
        sig = signature_for(get_architecture("Bert"))
        out = assemble(GpuModel(), util, mem_util, mem_used, sig, 0.1, rng)
        free = out[:, gpu_sensor_index("memory_free_MiB")]
        used = out[:, gpu_sensor_index("memory_used_MiB")]
        np.testing.assert_allclose(free + used, V100_SPEC.memory_mib, rtol=1e-6)

    def test_all_sensors_in_physical_range(self):
        util, mem_util, mem_used, rng = self._inputs()
        sig = signature_for(get_architecture("U5-128"))
        out = assemble(GpuModel(), util, mem_util, mem_used, sig, 0.1, rng)
        for j, spec in enumerate(GPU_SENSORS):
            assert out[:, j].min() >= spec.lo, spec.name
            assert out[:, j].max() <= spec.hi, spec.name

    def test_temperature_lags_power(self):
        """Thermal response is low-pass: temperature must vary less
        (relatively) than power."""
        rng = np.random.default_rng(3)
        power = np.clip(50 + 100 * (rng.random(2000) > 0.5), 0, 300)
        t_core, _ = _temperatures(GpuModel(), power, np.zeros(2000), dt=0.11)
        assert t_core.std() / t_core.mean() < power.std() / power.mean()


class TestWorkloadGenerator:
    def test_series_shape_matches_duration(self):
        gen = WorkloadGenerator()
        telemetry = gen.generate_job(
            get_architecture("VGG11"), 200.0, np.random.default_rng(0)
        )
        series = telemetry.gpu_series[0]
        assert series.n_samples == int(round(200.0 / DEFAULT_DT_S))
        assert series.data.shape[1] == 7

    def test_multi_gpu_count_and_shared_rhythm(self):
        gen = WorkloadGenerator()
        telemetry = gen.generate_job(
            get_architecture("ResNet50"), 220.0, np.random.default_rng(1), n_gpus=3
        )
        assert len(telemetry.gpu_series) == 3
        # Data-parallel GPUs share step phase: utilization traces should be
        # strongly correlated (not identical).
        a = telemetry.gpu_series[0].data[:, 0]
        b = telemetry.gpu_series[1].data[:, 0]
        corr = np.corrcoef(a, b)[0, 1]
        assert corr > 0.8
        assert not np.array_equal(a, b)

    def test_startup_is_quiet(self):
        """During startup GPU utilization must be near idle for all classes
        — the generic-start mechanism."""
        gen = WorkloadGenerator()
        for name in ("VGG19", "Bert", "NNConv"):
            telemetry = gen.generate_job(
                get_architecture(name), 250.0, np.random.default_rng(7)
            )
            startup = telemetry.schedule.first(PhaseKind.STARTUP)
            data = telemetry.gpu_series[0].data
            n_start = int(startup.end_s / DEFAULT_DT_S)
            start_util = data[: max(1, n_start - 5), 0]
            assert np.median(start_util) < 15.0, name

    def test_steady_state_tracks_signature(self):
        gen = WorkloadGenerator()
        spec = get_architecture("Bert")
        telemetry = gen.generate_job(spec, 400.0, np.random.default_rng(5))
        sig = telemetry.signature
        t = np.arange(telemetry.gpu_series[0].n_samples) * DEFAULT_DT_S
        train = telemetry.schedule.mask(t, PhaseKind.TRAIN)
        util = telemetry.gpu_series[0].data[train, 0]
        # Mean steady utilization should be in the ballpark of the
        # (jittered) signature level.
        assert abs(util.mean() - sig.util_mean) < 0.45 * sig.util_mean

    def test_determinism(self):
        spec = get_architecture("Schnet")
        a = WorkloadGenerator().generate_job(spec, 180.0, np.random.default_rng(9))
        b = WorkloadGenerator().generate_job(spec, 180.0, np.random.default_rng(9))
        np.testing.assert_array_equal(
            a.gpu_series[0].data, b.gpu_series[0].data
        )

    def test_rejects_too_short_jobs(self):
        with pytest.raises(ValueError, match="too short"):
            WorkloadGenerator().generate_job(
                get_architecture("VGG11"), 50.0, np.random.default_rng(0)
            )

    def test_rejects_bad_gpu_count(self):
        with pytest.raises(ValueError, match="n_gpus"):
            WorkloadGenerator().generate_job(
                get_architecture("VGG11"), 200.0, np.random.default_rng(0), n_gpus=0
            )

    def test_jitter_varies_between_jobs(self):
        gen = WorkloadGenerator()
        spec = get_architecture("Inception3")
        sig = signature_for(spec)
        j1 = gen.jitter_signature(sig, np.random.default_rng(1))
        j2 = gen.jitter_signature(sig, np.random.default_rng(2))
        assert j1.util_mean != j2.util_mean

    def test_jitter_stays_physical(self):
        gen = WorkloadGenerator()
        for name in ("VGG19", "Bert", "NNConv", "U5-128"):
            sig = signature_for(get_architecture(name))
            for seed in range(20):
                j = gen.jitter_signature(sig, np.random.default_rng(seed))
                assert 0 < j.util_mean <= 100
                assert j.step_period_s > 0
                assert 0 < j.mem_used_mib <= 0.95 * 32_510
