"""Fleet control-plane tests: router, failover, autoscaler, metric merge."""

import numpy as np
import pytest

from repro.fleet import (
    AutoscaleConfig,
    Autoscaler,
    FleetRouter,
    FleetWorker,
    HeartbeatMonitor,
    WorkerUnavailable,
)
from repro.resilience.faults import FaultSpec, inject
from repro.serve import (
    FleetLoadGenerator,
    Histogram,
    MetricsRegistry,
    ServeConfig,
    SimulatedClock,
    SubmitResult,
)
from tests.stubs import ThresholdModel


def _series(n_rows, seed=0, n_series=6):
    rng = np.random.default_rng(seed)
    return [rng.random((n_rows, 7)) * 100.0 for _ in range(n_series)]


def _config(**over):
    # window == hop == chunk: one emission per served chunk.
    defaults = dict(window=90, hop=90, flush_deadline_s=0.0)
    defaults.update(over)
    return ServeConfig(**defaults)


def _fleet(n_workers, clock, *, history=None, capacity=None, health=None,
           config=None):
    config = config or _config()
    workers = [
        FleetWorker(f"w{i}", ThresholdModel(), config, clock=clock,
                    capacity_per_step=capacity, heartbeat=health)
        for i in range(n_workers)
    ]
    return FleetRouter(workers, clock=clock, history=history, health=health)


def _gen(clock, *, n_jobs=8, rows=900, seed=3):
    return FleetLoadGenerator(
        _series(rows), n_jobs=n_jobs, samples_per_tick=90,
        max_samples_per_job=rows, seed=seed, clock=clock,
    )


def _trace(emissions):
    out = {}
    for e in emissions:
        out.setdefault(e.job_id, []).append(
            (e.prediction.sample_index, e.prediction.label,
             e.prediction.smoothed_label, e.prediction.confidence))
    return out


class TestRouting:
    def test_session_affinity_follows_the_ring(self):
        clock = SimulatedClock()
        router = _fleet(3, clock)
        for job in range(12):
            assert router.submit(job, np.ones((5, 7))) is SubmitResult.ACCEPTED
            assert router.owner_of(job) == router.ring.owner(job)
        router.step()
        # every session lives on exactly the worker the ring names
        per_worker = {wid: router.worker(wid).n_sessions
                      for wid in router.worker_ids}
        assert sum(per_worker.values()) == 12
        assert router.n_sessions == 12

    def test_router_drives_like_a_single_server(self):
        clock = SimulatedClock()
        gen = _gen(clock)
        router = _fleet(3, clock, history=gen.job_stream)
        report = gen.run(router)
        # 900 rows / 90-row windows -> 10 emissions per job, exactly once
        emitted = sorted((e.job_id, e.prediction.sample_index)
                         for e in report.emissions)
        expected = sorted((job, 90 * (k + 1))
                          for job in range(gen.n_jobs) for k in range(10))
        assert emitted == expected

    def test_submit_with_no_workers_left_raises(self):
        clock = SimulatedClock()
        router = _fleet(1, clock)
        router.worker("w0").kill()
        with pytest.raises(WorkerUnavailable):
            router.submit(0, np.ones((5, 7)))


class TestFailover:
    def _run(self, kill_tick=None, n_workers=3):
        clock = SimulatedClock()
        gen = _gen(clock)
        router = _fleet(n_workers, clock, history=gen.job_stream)
        victim = router.owner_of(0)

        def on_tick(tick, emissions):
            if kill_tick is not None and tick == kill_tick:
                if victim in router.worker_ids:
                    router.worker(victim).kill()

        report = gen.run(router, on_tick=on_tick)
        return report, router, victim

    def test_crash_failover_is_emission_parity_with_unfailed_twin(self):
        clean, _, _ = self._run(kill_tick=None)
        killed, router, victim = self._run(kill_tick=4)
        assert _trace(killed.emissions) == _trace(clean.emissions)
        events = [e for e in router.events if e.kind == "failover"]
        assert len(events) == 1
        assert events[0].worker_id == victim
        assert victim not in router.worker_ids
        assert victim not in router.ring

    @staticmethod
    def _run_killed_mid_step():
        # Workers step in sorted-id order, one crash-point hit each, so
        # hit 3 * 3 + idx + 1 is the top of job 0's owner's step on tick 3:
        # after that tick's chunks were routed to it, before it serves them.
        clock = SimulatedClock()
        gen = _gen(clock)
        router = _fleet(3, clock, history=gen.job_stream)
        idx = sorted(router.worker_ids).index(router.owner_of(0))
        with inject(FaultSpec("fleet.worker.crash", at_hit=3 * 3 + idx + 1,
                              mode="raise")):
            report = gen.run(router)
        return report, router

    def test_crash_via_fault_point_mid_step(self):
        clean, _, _ = self._run(kill_tick=None)
        report, router = self._run_killed_mid_step()
        assert _trace(report.emissions) == _trace(clean.emissions)
        # lost telemetry would void parity by definition
        assert router.fleet_metrics().counter("ingress.shed").value == 0
        assert router.metrics.counter("fleet.failovers").value == 1
        # the mid-step crash lost routed-but-unserved chunks; replay
        # must have re-emitted at least one window for them
        assert router.metrics.counter("fleet.predictions.recovered").value >= 1

    def test_killed_replay_is_deterministic(self):
        # Two fresh replays that lose the same worker mid-step emit the
        # same sequence (cross-job order included) and record the same
        # failover timeline.
        def replay():
            report, router = self._run_killed_mid_step()
            emissions = [
                (e.job_id, e.prediction.sample_index, e.prediction.label,
                 e.prediction.smoothed_label, e.prediction.confidence)
                for e in report.emissions
            ]
            timeline = [(ev.at_s, ev.kind, ev.worker_id, ev.n_jobs,
                         ev.n_recovered) for ev in router.events]
            return emissions, timeline

        first, second = replay(), replay()
        assert first == second
        assert [ev[1] for ev in first[1]] == ["failover"]

    def test_failover_without_history_restarts_cold(self):
        clock = SimulatedClock()
        gen = _gen(clock)
        router = _fleet(3, clock, history=None)
        victim = router.owner_of(0)

        def on_tick(tick, emissions):
            if tick == 4 and victim in router.worker_ids:
                router.worker(victim).kill()

        report = gen.run(router, on_tick=on_tick)
        clean, _, _ = self._run(kill_tick=None)
        # rerouting still works, but the migrated session restarted cold:
        # its sample_index numbering resets, so the trace diverges from
        # the unfailed twin (with history replay it would match — pinned
        # by test_crash_failover_is_emission_parity_with_unfailed_twin)
        assert _trace(report.emissions)[0] != _trace(clean.emissions)[0]
        assert victim not in router.worker_ids


class TestMembership:
    def test_add_worker_migrates_exactly_the_claimed_jobs(self):
        clock = SimulatedClock()
        gen = _gen(clock)
        router = _fleet(2, clock, history=gen.job_stream)
        moved = []

        def on_tick(tick, emissions):
            if tick == 4:
                # "w3" verifiably claims jobs {1, 3} on this ring layout
                worker = FleetWorker("w3", ThresholdModel(), _config(),
                                     clock=clock)
                moved.extend(router.add_worker(worker))

        report = gen.run(router, on_tick=on_tick)
        assert moved, "new worker claimed no jobs; pick a different id"
        for job in moved:
            assert router.ring.owner(job) == "w3"
        # lossless resize: exactly-once emission across the migration
        emitted = sorted((e.job_id, e.prediction.sample_index)
                         for e in report.emissions)
        expected = sorted((job, 90 * (k + 1))
                          for job in range(gen.n_jobs) for k in range(10))
        assert emitted == expected

    def test_remove_worker_hands_off_losslessly(self):
        clock = SimulatedClock()
        gen = _gen(clock)
        router = _fleet(3, clock, history=gen.job_stream)

        def on_tick(tick, emissions):
            if tick == 4 and router.n_workers == 3:
                router.remove_worker(router.worker_ids[-1])

        report = gen.run(router, on_tick=on_tick)
        assert router.n_workers == 2
        emitted = sorted((e.job_id, e.prediction.sample_index)
                         for e in report.emissions)
        expected = sorted((job, 90 * (k + 1))
                          for job in range(gen.n_jobs) for k in range(10))
        assert emitted == expected
        assert any(e.kind == "scale-down" for e in router.events)

    def test_cannot_remove_last_worker(self):
        router = _fleet(1, SimulatedClock())
        with pytest.raises(ValueError, match="last"):
            router.remove_worker("w0")

    def test_duplicate_worker_rejected(self):
        clock = SimulatedClock()
        router = _fleet(2, clock)
        with pytest.raises(ValueError, match="duplicate|already"):
            router.add_worker(FleetWorker("w0", ThresholdModel(), _config(),
                                          clock=clock))


class TestHealth:
    def test_lease_expiry_triggers_failover(self):
        clock = SimulatedClock()
        health = HeartbeatMonitor(lease_s=25.0, clock=clock)
        gen = _gen(clock)
        router = _fleet(3, clock, history=gen.job_stream, health=health)
        clean_clock = SimulatedClock()
        clean_gen = _gen(clean_clock)
        clean = clean_gen.run(_fleet(3, clean_clock,
                                     history=clean_gen.job_stream))
        victim = router.owner_of(0)
        # Drop every one of the victim's beats from tick 2 on: it keeps
        # serving until the lease (2.5 ticks) lapses, then is failed over
        # by the health check even though no call into it ever errored.
        n = router.n_workers
        idx = sorted(router.worker_ids).index(victim)
        specs = [
            FaultSpec("fleet.heartbeat.drop", at_hit=tick * n + idx + 1,
                      mode="raise")
            for tick in range(2, 10)
        ]
        with inject(*specs):
            report = gen.run(router)
        assert router.metrics.counter("fleet.lease_expired").value == 1
        assert victim not in router.worker_ids
        assert _trace(report.emissions) == _trace(clean.emissions)

    def test_dropped_beats_within_lease_do_not_page(self):
        clock = SimulatedClock()
        health = HeartbeatMonitor(lease_s=25.0, clock=clock)
        monitorees = _fleet(2, clock, health=health)
        # one dropped beat (lease covers 2.5 ticks) must not expire anyone
        with inject(FaultSpec("fleet.heartbeat.drop", at_hit=1,
                              mode="raise")):
            monitorees.step()
        clock.advance(10.0)
        monitorees.step()
        assert health.expired() == []

    def test_monitor_validates_lease(self):
        with pytest.raises(ValueError, match="lease"):
            HeartbeatMonitor(lease_s=0.0)


class _FakeRouter:
    """Minimal router surface for exercising the control loop alone."""

    def __init__(self):
        self.queue_depth = 0
        self._ids = ["w0"]

    @property
    def n_workers(self):
        return len(self._ids)

    @property
    def worker_ids(self):
        return list(self._ids)

    def add_worker(self, worker):
        self._ids.append(worker.worker_id)

    def remove_worker(self, worker_id):
        self._ids.remove(worker_id)


class _FakeWorker:
    def __init__(self, worker_id):
        self.worker_id = worker_id


class TestAutoscaler:
    def _scaler(self, **over):
        router = _FakeRouter()
        defaults = dict(min_workers=1, max_workers=3,
                        high_queue_per_worker=10.0, low_queue_per_worker=2.0,
                        for_ticks=2, cooldown_ticks=3)
        defaults.update(over)
        scaler = Autoscaler(router, _FakeWorker,
                            config=AutoscaleConfig(**defaults))
        return router, scaler

    def test_debounce_requires_consecutive_breaches(self):
        router, scaler = self._scaler()
        router.queue_depth = 50
        assert scaler.tick() is None            # streak 1
        router.queue_depth = 5                  # breach interrupted
        assert scaler.tick() is None
        router.queue_depth = 50
        assert scaler.tick() is None            # streak 1 again
        decision = None
        router.queue_depth = 50
        decision = scaler.tick()                # streak 2 -> act
        assert decision is not None and decision.action == "scale-up"
        assert router.n_workers == 2

    def test_cooldown_blocks_consecutive_actions(self):
        router, scaler = self._scaler(for_ticks=1, cooldown_ticks=2)
        router.queue_depth = 100
        assert scaler.tick().action == "scale-up"       # acts immediately
        assert scaler.tick() is None                    # cooldown 2
        assert scaler.tick() is None                    # cooldown 1
        assert scaler.tick().action == "scale-up"       # window closed
        assert router.n_workers == 3

    def test_bounds_are_respected(self):
        router, scaler = self._scaler(for_ticks=1, cooldown_ticks=0,
                                      max_workers=2)
        router.queue_depth = 100
        for _ in range(5):
            scaler.tick()
        assert router.n_workers == 2                    # clamped at max
        router.queue_depth = 0
        for _ in range(5):
            scaler.tick()
        assert router.n_workers == 1                    # clamped at min

    def test_scale_down_retires_newest_worker_first(self):
        router, scaler = self._scaler(for_ticks=1, cooldown_ticks=0)
        router.queue_depth = 100
        scaler.tick()
        router.queue_depth = 0
        decision = scaler.tick()
        assert decision.action == "scale-down"
        assert decision.worker_id == "auto-1"
        assert router.worker_ids == ["w0"]

    def test_config_validation(self):
        with pytest.raises(ValueError, match="min_workers"):
            AutoscaleConfig(min_workers=0)
        with pytest.raises(ValueError, match="max_workers"):
            AutoscaleConfig(min_workers=4, max_workers=2)
        with pytest.raises(ValueError, match="low_queue_per_worker"):
            AutoscaleConfig(high_queue_per_worker=1.0,
                            low_queue_per_worker=2.0)


class TestCapacityModel:
    """Workers serve at most ``capacity_per_step`` chunks per tick of the
    simulated clock, so these tests check how the control plane spreads
    load over workers, not how fast the host runs them."""

    def test_fixed_capacity_goodput_spreads_3x_over_four_workers(self):
        def goodput(n_workers):
            # windows emitted inside the replay horizon; the final
            # unbounded drain does not count
            clock = SimulatedClock()
            gen = _gen(clock, n_jobs=24)
            router = _fleet(n_workers, clock, history=gen.job_stream,
                            capacity=4)
            served = 0

            def on_tick(tick, emissions):
                nonlocal served
                served += len(emissions)

            gen.run(router, on_tick=on_tick)
            return served

        one, four = goodput(1), goodput(4)
        assert one > 0
        assert four >= 3 * one

    def test_autoscaled_fleet_grows_shrinks_and_emits_every_window_once(self):
        clock = SimulatedClock()
        gen = _gen(clock, n_jobs=24)

        def spawn(worker_id):
            return FleetWorker(worker_id, ThresholdModel(), _config(),
                               clock=clock, capacity_per_step=4)

        router = FleetRouter([spawn("w0")], clock=clock,
                             history=gen.job_stream)
        scaler = Autoscaler(router, spawn, config=AutoscaleConfig(
            min_workers=1, max_workers=4, high_queue_per_worker=8.0,
            low_queue_per_worker=1.0, for_ticks=2, cooldown_ticks=3))
        peak = 1

        def on_tick(tick, emissions):
            nonlocal peak
            scaler.tick()
            peak = max(peak, router.n_workers)

        report = gen.run(router, end_sessions=False, on_tick=on_tick)
        # run() drained the load; idle ticks must shrink the fleet back
        for _ in range(40):
            if router.n_workers == 1:
                break
            router.step()
            scaler.tick()
            clock.advance(gen.tick_s)

        actions = [d.action for d in scaler.decisions]
        assert "scale-up" in actions and "scale-down" in actions
        assert peak <= 4
        assert router.n_workers == 1
        assert router.fleet_metrics().counter("ingress.shed").value == 0
        # 900 rows / 90-row windows -> 10 emissions per job, exactly once
        emitted = sorted((e.job_id, e.prediction.sample_index)
                         for e in report.emissions)
        expected = sorted((job, 90 * (k + 1))
                          for job in range(gen.n_jobs) for k in range(10))
        assert emitted == expected


class TestMetricsMerge:
    def test_histogram_merge_matches_single_histogram_ground_truth(self):
        rng = np.random.default_rng(7)
        values = rng.exponential(0.1, size=400)
        whole = Histogram("h")
        parts = [Histogram("h") for _ in range(4)]
        for i, v in enumerate(values):
            whole.observe(v)
            parts[i % 4].observe(v)
        merged = Histogram("h")
        for part in parts:
            merged.merge(part)
        truth, got = whole.summary(), merged.summary()
        assert got["count"] == truth["count"] == 400
        for q in ("p50", "p95", "p99", "min", "max", "mean"):
            assert got[q] == pytest.approx(truth[q]), q

    def test_registry_merge_matches_single_registry_ground_truth(self):
        whole = MetricsRegistry()
        parts = [MetricsRegistry() for _ in range(3)]
        for i in range(90):
            for r in (whole, parts[i % 3]):
                r.counter("chunks").inc()
                r.gauge("depth").inc(i % 5)
                r.histogram("lat").observe(i * 0.01)
        merged = MetricsRegistry()
        for part in parts:
            merged.merge(part)
        assert merged.counter("chunks").value == whole.counter("chunks").value
        assert merged.gauge("depth").value == whole.gauge("depth").value
        truth = whole.histogram("lat").summary()
        got = merged.histogram("lat").summary()
        # percentiles/extremes are exact; mean differs only by float
        # summation order
        for key in ("count", "min", "p50", "p95", "p99", "max"):
            assert got[key] == truth[key], key
        assert got["mean"] == pytest.approx(truth["mean"])

    def test_registry_merge_preserves_nondefault_histogram_capacity(self):
        # Regression: a merged-in histogram created with a non-default
        # capacity must not be re-created at the default capacity on the
        # merging registry — that silently re-decimates worker latency
        # distributions during fleet aggregation.
        part = MetricsRegistry()
        big = part.histogram("lat", capacity=4096)
        for i in range(3000):
            big.observe(i * 1e-4)
        merged = MetricsRegistry()
        merged.merge(part)
        assert merged.histogram("lat").capacity == 4096
        # no decimation happened: the full distribution survived intact
        assert len(merged.histogram("lat")._values) == 3000
        assert merged.histogram("lat").percentile(50) == pytest.approx(
            big.percentile(50))

    def test_registry_merge_of_decimated_histograms_with_mixed_capacities(self):
        small, large = MetricsRegistry(), MetricsRegistry()
        for i in range(5000):
            small.histogram("lat", capacity=32).observe(i * 1e-3)
            large.histogram("lat", capacity=512).observe(i * 1e-3)
        merged = MetricsRegistry()
        merged.merge(large)
        merged.merge(small)
        h = merged.histogram("lat")
        assert h.capacity == 512            # first-merged capacity sticks
        assert h.count == 10000
        # extremes are exact even though both sources decimated heavily
        assert h.percentile(0) == 0.0
        assert h.percentile(100) == pytest.approx(4.999)
        assert abs(h.percentile(50) - 2.5) < 0.5

    def test_fleet_metrics_aggregates_router_and_workers(self):
        clock = SimulatedClock()
        gen = _gen(clock)
        router = _fleet(3, clock, history=gen.job_stream)
        gen.run(router)
        fleet = router.fleet_metrics()
        per_worker = sum(
            router.worker(wid).metrics_registry()
            .counter("predictions.emitted").value
            for wid in router.worker_ids
        )
        assert fleet.counter("predictions.emitted").value == per_worker
        assert fleet.counter("fleet.chunks.routed").value == (
            router.metrics.counter("fleet.chunks.routed").value)
        assert fleet.gauge("fleet.workers").value == 3
