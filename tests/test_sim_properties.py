"""Property sweeps over the whole telemetry generator, plus targeted tests
for the thermal-throttling path."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.simcluster.architectures import ARCHITECTURES, get_architecture
from repro.simcluster.gpu import GpuModel, V100_SPEC
from repro.simcluster.sensors import GPU_SENSORS, gpu_sensor_index
from repro.simcluster.signatures import signature_for
from repro.simcluster.workload import WorkloadGenerator
from tests.test_sim_gpu_workload import assemble


class TestGeneratorProperties:
    @settings(max_examples=12, deadline=None)
    @given(
        st.integers(0, 10_000),
        st.sampled_from([a.name for a in ARCHITECTURES]),
        st.floats(min_value=150.0, max_value=500.0),
    )
    def test_any_job_physically_valid(self, seed, name, duration):
        """Every class, seed and duration yields in-range, finite data."""
        gen = WorkloadGenerator(startup_mean_s=28.0)
        telemetry = gen.generate_job(
            get_architecture(name), duration, np.random.default_rng(seed)
        )
        data = telemetry.gpu_series[0].data
        assert np.all(np.isfinite(data))
        for j, spec in enumerate(GPU_SENSORS):
            assert data[:, j].min() >= spec.lo - 1e-9, (name, spec.name)
            assert data[:, j].max() <= spec.hi + 1e-9, (name, spec.name)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000),
           st.sampled_from([a.name for a in ARCHITECTURES]))
    def test_determinism_across_instances(self, seed, name):
        spec = get_architecture(name)
        a = WorkloadGenerator(startup_mean_s=28.0).generate_job(
            spec, 200.0, np.random.default_rng(seed))
        b = WorkloadGenerator(startup_mean_s=28.0).generate_job(
            spec, 200.0, np.random.default_rng(seed))
        np.testing.assert_array_equal(a.gpu_series[0].data,
                                      b.gpu_series[0].data)

    def test_glitch_rate_zero_is_clean(self):
        """glitch_rate=0 produces no dropped-sample zeros mid-training."""
        gen = WorkloadGenerator(startup_mean_s=28.0, glitch_rate=0.0)
        telemetry = gen.generate_job(
            get_architecture("Bert"), 300.0, np.random.default_rng(0))
        power = telemetry.gpu_series[0].data[:, gpu_sensor_index("power_draw_W")]
        # Power never reads exactly zero without glitches (idle floor is 42W).
        assert power.min() >= V100_SPEC.idle_power_w - 1e-9

    def test_glitches_zero_instantaneous_counters(self):
        gen = WorkloadGenerator(startup_mean_s=28.0, glitch_rate=0.2)
        rng = np.random.default_rng(1)
        data = assemble(
            gen.gpu_model,
            np.full(2000, 80.0), np.full(2000, 50.0), np.full(2000, 10_000.0),
            signature_for(get_architecture("VGG16")), 0.111, rng,
        )
        gen._put_glitches(data, *gen._draw_glitches(data.shape[0], rng))
        dropped = data[:, 6] == 0.0
        assert dropped.any()
        # Memory footprint persists through glitches (collector caches it).
        assert np.all(data[dropped, 3] > 0.0)

    def test_invalid_glitch_rate(self):
        with pytest.raises(ValueError):
            WorkloadGenerator(glitch_rate=0.6)


class TestThermalThrottle:
    def _assemble(self, util_level, seed=0):
        sig = signature_for(get_architecture("Bert"))
        rng = np.random.default_rng(seed)
        n = 4000
        return assemble(
            GpuModel(),
            np.full(n, util_level), np.full(n, 60.0), np.full(n, 20_000.0),
            sig, 0.111, rng,
        )

    def test_sustained_load_can_throttle(self):
        """Find a seed whose thermal environment pushes a flat-out workload
        over the slowdown temperature; its power must then drop below the
        unthrottled trend."""
        throttled_seen = False
        for seed in range(20):
            data = self._assemble(100.0, seed=seed)
            temp = data[:, gpu_sensor_index("temperature_gpu")]
            if temp.max() > V100_SPEC.throttle_c:
                throttled_seen = True
                hot = temp > V100_SPEC.throttle_c
                power = data[:, gpu_sensor_index("power_draw_W")]
                # Hot samples draw noticeably less than the hottest
                # non-throttled samples would (power was cut 18%).
                assert power[hot].mean() < power[~hot].max()
        assert throttled_seen, "no seed reached the throttle point"

    def test_light_load_never_throttles(self):
        data = self._assemble(15.0, seed=3)
        temp = data[:, gpu_sensor_index("temperature_gpu")]
        assert temp.max() < V100_SPEC.throttle_c

    def test_throttle_temperature_in_spec(self):
        assert 70.0 < V100_SPEC.throttle_c < 90.0
