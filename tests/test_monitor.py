"""Monitor subsystem tests: drift, shadow, rollout, alerts, injection."""

import numpy as np
import pytest

from repro.data import build_challenge_suite
from repro.data.labelled import build_labelled_dataset
from repro.models import make_rf_cov
from repro.monitor import (
    AlertManager,
    AlertRule,
    CanaryController,
    DriftConfig,
    DriftInjection,
    FleetDriftMonitor,
    PageHinkley,
    RolloutConfig,
    SensorDriftDetector,
    ShadowEvaluator,
    inject_series,
)
from repro.monitor.rollout import CANARY, PROMOTED, ROLLED_BACK, SHADOW
from repro.serve import (
    FleetLoadGenerator,
    InferenceServer,
    MetricsRegistry,
    ModelRegistry,
    ServeConfig,
)
from repro.simcluster.architectures import N_CLASSES
from repro.simcluster.cluster import SimulationConfig


def _stationary(n, seed=0, loc=(50.0, 30.0, 20000.0, 12000.0, 50.0, 55.0, 150.0)):
    """IID Gaussian telemetry around realistic operating points."""
    rng = np.random.default_rng(seed)
    out = rng.normal(0.0, 1.0, size=(n, 7)) * np.array(
        [8.0, 5.0, 300.0, 300.0, 0.5, 0.5, 20.0]
    )
    return out + np.asarray(loc)


class TestPageHinkley:
    def test_no_false_positives_on_stationary_noise(self):
        """Default thresholds stay silent over >= 10 seeds of iid noise."""
        for seed in range(12):
            rng = np.random.default_rng(seed)
            ph = PageHinkley()
            assert not any(ph.update(x) for x in rng.normal(size=4000))

    def test_detects_mean_shift_within_bounded_samples(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            ph = PageHinkley()
            assert not any(ph.update(x) for x in rng.normal(size=500))
            detected_at = None
            for i, x in enumerate(rng.normal(loc=2.0, size=400)):
                if ph.update(x):
                    detected_at = i
                    break
            assert detected_at is not None and detected_at < 200

    def test_detects_downward_shift(self):
        rng = np.random.default_rng(3)
        ph = PageHinkley()
        assert not any(ph.update(x) for x in rng.normal(size=500))
        assert any(ph.update(x) for x in rng.normal(loc=-2.0, size=400))

    def test_reset_after_fire_and_validation(self):
        ph = PageHinkley(delta=0.05, threshold=5.0)
        rng = np.random.default_rng(0)
        list(map(ph.update, rng.normal(size=100)))
        assert any(ph.update(x) for x in rng.normal(loc=3.0, size=200))
        assert ph.statistic == 0.0          # reset on fire
        with pytest.raises(ValueError, match="positive"):
            PageHinkley(delta=0.0)


class TestSensorDriftDetector:
    def test_stationary_stream_stays_silent(self):
        for seed in range(10):
            det = SensorDriftDetector(seed)
            assert det.update_many(_stationary(3000, seed=seed)) == []
            assert not det.drifted

    def test_injected_gain_detected_with_bounded_latency(self):
        inj = DriftInjection(start_sample=1200, ramp_samples=270,
                             gain=1.6, sensors=(0, 6))
        latencies = []
        for seed in range(10):
            det = SensorDriftDetector(seed)
            events = det.update_many(
                inject_series(_stationary(3000, seed=seed), inj))
            assert events, f"seed {seed} missed the injected gain"
            assert det.first_event_sample >= inj.start_sample
            latencies.append(det.first_event_sample - inj.start_sample)
        assert max(latencies) <= 2 * 270 + 90   # ramp + one check period

    def test_injected_offset_detected(self):
        inj = DriftInjection(start_sample=1200, ramp_samples=270,
                             offset=30.0, sensors=(6,))
        det = SensorDriftDetector()
        events = det.update_many(
            inject_series(_stationary(2400, seed=4), inj))
        assert any(e.sensor == "power_draw_W" for e in events)

    def test_state_is_bounded(self):
        """O(window) state: nothing grows with stream length."""
        det = SensorDriftDetector(config=DriftConfig(window=270))
        det.update_many(_stationary(2000, seed=1))
        rows_at_2k = len(det._rows)
        fired_at_2k = len(det._last_fired)
        det.update_many(_stationary(8000, seed=2))
        assert len(det._rows) == rows_at_2k == 270
        assert det._ref_rows is None            # reference buffer freed
        # _last_fired is keyed by (kind, sensor): bounded by the schema,
        # not the stream.
        assert len(det._last_fired) <= 3 * 28
        assert fired_at_2k <= len(det._last_fired)

    def test_warmup_skips_leading_samples(self):
        cfg = DriftConfig(warmup=500, reference=270)
        det = SensorDriftDetector(config=cfg)
        det.update_many(_stationary(400, seed=0) * 100.0)  # wild warmup
        assert not det.ready
        det.update_many(_stationary(800, seed=1))
        assert det.ready
        assert det.update_many(_stationary(600, seed=2)) == []

    def test_events_carry_sensor_names_and_cooldown(self):
        inj = DriftInjection(start_sample=1200, ramp_samples=90,
                             gain=2.0, sensors=(0,))
        det = SensorDriftDetector("job-7")
        events = det.update_many(
            inject_series(_stationary(3000, seed=5), inj))
        util = [e for e in events if e.sensor == "utilization_gpu_pct"
                and e.kind == "mean"]
        assert util and all(e.session_id == "job-7" for e in util)
        gaps = np.diff([e.sample_index for e in util])
        assert (gaps >= det.config.cooldown).all()

    def test_row_shape_validated(self):
        det = SensorDriftDetector()
        with pytest.raises(ValueError, match="row"):
            det.update(np.zeros(5))

    def test_config_validation(self):
        with pytest.raises(ValueError, match="reference"):
            DriftConfig(reference=8, n_blocks=6)
        with pytest.raises(ValueError, match="warmup"):
            DriftConfig(warmup=-1)
        with pytest.raises(ValueError, match="positive"):
            DriftConfig(z_mean=0.0)
        with pytest.raises(ValueError, match="floor"):
            DriftConfig(mean_floor_frac=-0.1)

    def test_config_rejects_blocks_cooldown_horizon_up_front(self):
        with pytest.raises(ValueError, match="n_blocks"):
            DriftConfig(n_blocks=0)
        with pytest.raises(ValueError, match="cooldown"):
            DriftConfig(cooldown=-1)
        with pytest.raises(ValueError, match="horizon"):
            DriftConfig(horizon=-1)
        # Zero is a valid cooldown (every firing reported) and horizon.
        DriftConfig(cooldown=0, horizon=0)


class TestFleetDriftMonitor:
    def _drive(self, monitor, streams, chunk=90):
        n = max(len(s) for s in streams)
        for start in range(0, n, chunk):
            monitor.on_ingress([(job, s[start:start + chunk])
                                for job, s in enumerate(streams)
                                if len(s) > start])

    def test_tracks_sessions_and_detections(self):
        inj = DriftInjection(start_sample=1200, ramp_samples=270,
                             gain=1.6, sensors=(0, 6))
        streams = [inject_series(_stationary(2400, seed=s), inj)
                   for s in range(4)]
        streams += [_stationary(2400, seed=s) for s in range(4, 8)]
        metrics = MetricsRegistry()
        monitor = FleetDriftMonitor(metrics=metrics)
        self._drive(monitor, streams)
        first = monitor.first_detections()
        assert set(first) == {0, 1, 2, 3}
        latencies = monitor.detection_latencies(1200)
        assert len(latencies) == 4
        assert all(0 <= lat <= 720 for lat in latencies.values())
        assert monitor.drifted_fraction == pytest.approx(0.5)
        snap = metrics.as_dict()
        assert snap["monitor.drift.sessions_drifted"] == 4
        assert snap["monitor.drift.events"] >= 4

    def test_drifting_fraction_is_recency_windowed(self):
        inj = DriftInjection(start_sample=1200, ramp_samples=90,
                             gain=1.8, sensors=(0,))
        monitor = FleetDriftMonitor(config=DriftConfig(horizon=540))
        streams = [inject_series(_stationary(4000, seed=s), inj)
                   for s in range(3)]
        self._drive(monitor, [s[:1800] for s in streams])
        assert monitor.drifting_fraction == 1.0     # all just fired
        # The injected gain *holds*, so windows far past the ramp look like
        # the new normal again: detectors go quiet and recency decays.
        self._drive(monitor, [s[1800:] for s in streams])
        assert monitor.drifting_fraction < 1.0 or all(
            d.last_event_sample > 3400 - 540
            for d in monitor._detectors.values())

    def test_end_session_frees_detector_keeps_history(self):
        monitor = FleetDriftMonitor()
        monitor.on_ingress([("a", _stationary(600, seed=0))])
        assert monitor.n_sessions == 1
        assert monitor.end_session("a")
        assert not monitor.end_session("a")
        assert monitor.n_sessions == 0

    def test_gauges_track_the_fleet_view_after_every_call(self):
        inj = DriftInjection(start_sample=600, ramp_samples=90,
                             gain=1.8, sensors=(0,))
        streams = [inject_series(_stationary(1800, seed=s), inj)
                   for s in range(3)] + [_stationary(1800, seed=3)]
        metrics = MetricsRegistry()
        monitor = FleetDriftMonitor(config=DriftConfig(horizon=180),
                                    metrics=metrics)
        views = set()
        for start in range(0, 1800, 90):
            # Sessions start and end mid-stream.
            live = [(job, s[start:start + 90])
                    for job, s in enumerate(streams)
                    if (job != 3 or start >= 450)
                    and (job != 0 or start < 1350)]
            monitor.on_ingress(live)
            if start == 1350:
                monitor.end_session(0)
            snap = metrics.as_dict()
            view = (len(monitor.first_detections()), monitor.drifted_fraction,
                    monitor.drifting_fraction)
            assert (snap["monitor.drift.sessions_drifted"],
                    snap["monitor.drift.drifted_fraction"],
                    snap["monitor.drift.drifting_fraction"]) == view
            views.add(view)
        assert len(views) > 2                  # the view actually moved
        assert snap["monitor.drift.events"] == monitor.n_events > 0

    @pytest.mark.parametrize("bad", [np.zeros((12, 3)), np.zeros(7),
                                     np.zeros((2, 3, 7))])
    def test_malformed_chunk_changes_nothing(self, bad):
        monitor = FleetDriftMonitor()
        monitor.on_ingress([("a", _stationary(300, seed=0))])
        before = monitor.n_sessions, monitor.drifted_fraction
        with pytest.raises(ValueError, match="rows"):
            monitor.on_ingress([("a", _stationary(90, seed=1)),
                                ("new", _stationary(90, seed=2)),
                                ("bad", bad)])
        assert (monitor.n_sessions, monitor.drifted_fraction) == before
        assert set(monitor._detectors) == monitor._seen == {"a"}
        assert monitor._detectors["a"].n_seen == 300

    def test_detection_latencies_exclude_pre_start_firings(self):
        monitor = FleetDriftMonitor()
        monitor._first_detection = {"early": 500, "late": 1500}
        monitor._seen = {"early", "late"}
        assert monitor.detection_latencies(1000) == {"late": 500}


class TestInjection:
    def test_pre_start_untouched_and_pure(self):
        series = _stationary(1000, seed=0)
        before = series.copy()
        inj = DriftInjection(start_sample=400, ramp_samples=100,
                             gain=1.5, sensors=(0,))
        out = inject_series(series, inj)
        np.testing.assert_array_equal(series, before)     # no mutation
        np.testing.assert_array_equal(out[:400], series[:400])
        assert not np.array_equal(out[600:], series[600:])

    def test_full_ramp_gain_and_offset(self):
        series = np.full((300, 7), 50.0)
        inj = DriftInjection(start_sample=0, ramp_samples=1, gain=1.4,
                             offset=3.0, sensors=(0,), clip=False)
        out = inject_series(series, inj)
        np.testing.assert_allclose(out[2:, 0], 50.0 * 1.4 + 3.0)
        np.testing.assert_allclose(out[:, 1:], 50.0)

    def test_clipping_to_physical_range(self):
        series = np.full((100, 7), 90.0)
        inj = DriftInjection(start_sample=0, ramp_samples=1, gain=2.0)
        out = inject_series(series, inj)
        assert out[:, 0].max() <= 100.0       # utilization_gpu_pct
        assert out[:, 1].max() <= 100.0

    def test_noop_injection_returns_input(self):
        series = _stationary(100, seed=0)
        inj = DriftInjection(gain=1.0, offset=0.0)
        assert inject_series(series, inj) is series
        assert not inj.perturbs_sensors

    def test_validation(self):
        with pytest.raises(ValueError, match="sensor indices"):
            DriftInjection(sensors=(9,))
        with pytest.raises(ValueError, match="class_shift_fraction"):
            DriftInjection(class_shift_fraction=1.5)
        with pytest.raises(ValueError, match="ramp_samples"):
            DriftInjection(ramp_samples=0)
        with pytest.raises(ValueError, match="expected"):
            inject_series(np.zeros((10, 5)),
                          DriftInjection(gain=2.0))


class _Window:
    """Minimal stand-ins for server completion objects."""

    def __init__(self, window):
        self.window = window


class _Completion:
    def __init__(self, window, label):
        self.request = _Window(window)
        self.label = label


class _SignModel:
    """Labels by the sign of sensor 0's window mean."""

    def __init__(self, flip=False):
        self.flip = flip

    def predict(self, X):
        X = np.asarray(X)
        labels = (X[:, :, 0].mean(axis=1) > 0).astype(np.int64)
        return 1 - labels if self.flip else labels


def _batch(levels, model):
    """Build completions the way the champion server would."""
    windows = [np.full((30, 7), lv, dtype=float) for lv in levels]
    labels = model.predict(np.stack(windows))
    return [_Completion(w, int(lb)) for w, lb in zip(windows, labels)]


class TestShadowEvaluator:
    def test_agreement_and_disagreement_matrix(self):
        champion = _SignModel()
        shadow = ShadowEvaluator(_SignModel(flip=True))
        shadow.on_batch(_batch([1.0, -1.0, 2.0, 3.0], champion))
        assert shadow.n_windows == 4
        assert shadow.agreement == 0.0
        agree_shadow = ShadowEvaluator(_SignModel())
        agree_shadow.on_batch(_batch([1.0, -1.0], champion))
        assert agree_shadow.agreement == 1.0
        top = shadow.disagreements_by_class(1)
        assert top[0][0] in {(1, 0), (0, 1)}
        dists = shadow.label_distributions()
        assert sum(dists["champion"].values()) == 4

    def test_empty_and_metrics(self):
        metrics = MetricsRegistry()
        shadow = ShadowEvaluator(_SignModel(), metrics=metrics)
        assert np.isnan(shadow.agreement)
        shadow.on_batch([])
        shadow.on_batch(_batch([1.0, -2.0], _SignModel()))
        snap = metrics.as_dict()
        assert snap["monitor.shadow.windows"] == 2
        assert snap["monitor.shadow.agreement"] == 1.0
        assert snap["monitor.shadow.predict_wall_s"]["count"] == 1

    def test_report_and_validation(self):
        with pytest.raises(TypeError, match="predict"):
            ShadowEvaluator(object())
        shadow = ShadowEvaluator(_SignModel(flip=True))
        shadow.on_batch(_batch([1.0], _SignModel()))
        report = shadow.report()
        assert report["windows"] == 1
        assert report["top_disagreements"][0]["count"] == 1


class TestCanaryController:
    def test_hash_routing_deterministic_and_proportional(self):
        controller = CanaryController(RolloutConfig(canary_fraction=0.25))
        cohort = [s for s in range(4000) if controller.in_canary_cohort(s)]
        assert cohort == [s for s in range(4000)
                          if controller.in_canary_cohort(s)]
        assert 0.2 < len(cohort) / 4000 < 0.3
        salted = CanaryController(
            RolloutConfig(canary_fraction=0.25, salt="other"))
        assert [s for s in range(4000) if salted.in_canary_cohort(s)] != cohort

    def test_shadow_to_canary_to_promoted(self):
        controller = CanaryController(RolloutConfig(
            canary_fraction=0.5, min_shadow_windows=10,
            min_canary_windows=5, min_agreement=0.85,
            rollback_agreement=0.6))
        assert controller.state == SHADOW
        assert controller.update(shadow_windows=5, shadow_agreement=0.99) is None
        decision = controller.update(shadow_windows=12, shadow_agreement=0.95)
        assert decision.to_state == CANARY
        assert controller.route(5) in ("champion", "challenger")
        assert controller.update(
            shadow_windows=20, shadow_agreement=0.95, canary_windows=3) is None
        decision = controller.update(
            shadow_windows=30, shadow_agreement=0.95, canary_windows=6,
            latency_ratio=1.2, now_s=42.0)
        assert decision.to_state == PROMOTED and decision.at_s == 42.0
        assert controller.terminal
        assert controller.route("anything") == "challenger"
        assert controller.update(shadow_windows=99, shadow_agreement=0.0) is None

    def test_rollback_paths(self):
        low = CanaryController(RolloutConfig(min_shadow_windows=10))
        assert low.update(
            shadow_windows=15, shadow_agreement=0.3).to_state == ROLLED_BACK
        slow = CanaryController(RolloutConfig(
            min_shadow_windows=5, min_canary_windows=5,
            max_latency_ratio=2.0))
        slow.update(shadow_windows=10, shadow_agreement=0.99)
        decision = slow.update(shadow_windows=12, shadow_agreement=0.99,
                               canary_windows=10, latency_ratio=3.5)
        assert decision.to_state == ROLLED_BACK
        assert "latency" in decision.reason

    def test_registry_pointer_flipped(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        registry.register("m", _SignModel())          # v1 champion
        registry.register("m", _SignModel())          # v2 challenger
        registry.set_active("m", 1)
        controller = CanaryController(
            RolloutConfig(min_shadow_windows=5, min_canary_windows=1),
            registry=registry, name="m",
            champion_version=1, challenger_version=2)
        controller.update(shadow_windows=10, shadow_agreement=0.99)
        controller.update(shadow_windows=10, shadow_agreement=0.99,
                          canary_windows=2)
        assert controller.state == PROMOTED
        assert registry.active_version("m") == 2

    def test_partial_registry_binding_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="together"):
            CanaryController(registry=ModelRegistry(tmp_path), name="m")

    def test_config_validation(self):
        with pytest.raises(ValueError, match="canary_fraction"):
            RolloutConfig(canary_fraction=0.0)
        with pytest.raises(ValueError, match="rollback_agreement"):
            RolloutConfig(min_agreement=0.5, rollback_agreement=0.7)

    def test_state_gauge_published(self):
        metrics = MetricsRegistry()
        controller = CanaryController(
            RolloutConfig(min_shadow_windows=1), metrics=metrics)
        assert metrics.gauge("monitor.rollout.state").value == 0
        controller.update(shadow_windows=5, shadow_agreement=0.1)
        assert metrics.gauge("monitor.rollout.state").value == -1


class TestAlerts:
    def test_firing_and_resolved_lifecycle(self):
        metrics = MetricsRegistry()
        manager = AlertManager(
            rules=[AlertRule("depth", "queue.depth", ">", 10, for_ticks=2)],
            metrics=metrics)
        gauge = metrics.gauge("queue.depth")
        gauge.set(50)
        assert manager.evaluate(now_s=1.0) == []      # streak 1 < for_ticks
        events = manager.evaluate(now_s=2.0)
        assert [(e.kind, e.at_s) for e in events] == [("firing", 2.0)]
        assert manager.evaluate(now_s=3.0) == []      # stays active silently
        assert manager.active() == {"depth": 2.0}
        gauge.set(0)
        events = manager.evaluate(now_s=4.0)
        assert [(e.kind, e.value) for e in events] == [("resolved", 0.0)]
        assert manager.active() == {}
        assert [e.kind for e in manager.timeline] == ["firing", "resolved"]

    def test_streak_resets_on_recovery(self):
        metrics = MetricsRegistry()
        manager = AlertManager(
            rules=[AlertRule("r", "g", ">", 1, for_ticks=2)], metrics=metrics)
        g = metrics.gauge("g")
        for value in (5, 0, 5, 0, 5):                 # never 2 in a row
            g.set(value)
            assert manager.evaluate() == []

    def test_histogram_summary_paths(self):
        metrics = MetricsRegistry()
        hist = metrics.histogram("latency.window_s")
        manager = AlertManager(
            rules=[AlertRule("p95", "latency.window_s.p95", ">", 1.0)],
            metrics=metrics)
        assert manager.evaluate() == []               # no observations yet
        for v in (0.1,) * 18 + (9.0, 9.0):
            hist.observe(v)
        assert [e.kind for e in manager.evaluate()] == ["firing"]

    def test_missing_metric_not_breached(self):
        manager = AlertManager(
            rules=[AlertRule("ghost", "does.not.exist", ">", 0)],
            metrics=MetricsRegistry())
        assert manager.evaluate() == []

    def test_validation(self):
        with pytest.raises(ValueError, match="op"):
            AlertRule("r", "m", "!!", 0)
        with pytest.raises(ValueError, match="for_ticks"):
            AlertRule("r", "m", ">", 0, for_ticks=0)
        with pytest.raises(ValueError, match="duplicate"):
            AlertManager(rules=[AlertRule("r", "m", ">", 0),
                                AlertRule("r", "m2", ">", 0)],
                         metrics=MetricsRegistry())


def _rollout(registry_dir, champion, challenger, series, labels, *, window,
             n_jobs, max_samples, injection, drift, rollout, seed=2022):
    """Roll ``challenger`` out against ``champion`` on a drifting fleet.

    The champion is registered as v1 and made active, the challenger as
    v2.  The fleet replays ``series`` with ``injection`` ramped in
    mid-stream.  A :class:`FleetDriftMonitor` taps both servers' ingress
    (a canary-routed job keeps its detector) and a
    :class:`ShadowEvaluator` taps the champion's batches.  After every
    tick a :class:`CanaryController` re-checks its gates, with the
    challenger/champion predict-time ratio as the latency guardrail, and
    an :class:`AlertManager` evaluates its rules.  Returns the controller,
    registry, shadow evaluator, drift monitor and alert manager.
    """
    registry = ModelRegistry(registry_dir)
    registry.register("workload", champion)
    registry.register("workload", challenger)
    registry.set_active("workload", 1)
    gen = FleetLoadGenerator(series, labels, n_jobs=n_jobs,
                             samples_per_tick=90,
                             max_samples_per_job=max_samples, seed=seed,
                             drift=injection)
    config = ServeConfig(window=window, max_batch=64, flush_deadline_s=30.0)
    metrics = MetricsRegistry()
    monitor = FleetDriftMonitor(config=drift, metrics=metrics)
    shadow = ShadowEvaluator(registry.get("workload", 2), metrics=metrics)
    champion_server = InferenceServer(
        registry.get_active("workload"), config, clock=gen.clock,
        metrics=metrics, taps=[monitor, shadow])
    challenger_server = InferenceServer(
        registry.get("workload", 2), config, clock=gen.clock, taps=[monitor])
    controller = CanaryController(
        rollout, registry=registry, name="workload", champion_version=1,
        challenger_version=2, metrics=metrics)
    alerts = AlertManager(
        rules=[
            AlertRule("fleet-drift", "monitor.drift.drifting_fraction", ">=",
                      0.75, for_ticks=2),
            AlertRule("shadow-agreement-low", "monitor.shadow.agreement",
                      "<", rollout.rollback_agreement, for_ticks=2),
            AlertRule("ingress-shed", "ingress.shed", ">", 0),
        ],
        metrics=metrics)

    def route(job):
        if controller.route(job) == "challenger":
            return challenger_server
        return None

    def on_tick(tick, emissions):
        champ = metrics.histogram("batch.predict_wall_s")
        chall = metrics.histogram("monitor.shadow.predict_wall_s")
        controller.update(
            shadow_windows=shadow.n_windows,
            shadow_agreement=shadow.agreement,
            canary_windows=int(challenger_server.metrics.counter(
                "predictions.emitted").value),
            latency_ratio=(chall.mean / champ.mean if champ.count
                           and chall.count and champ.mean > 0
                           else float("nan")),
            now_s=gen.clock())
        alerts.evaluate(now_s=gen.clock())

    gen.run(champion_server, route=route, on_tick=on_tick)
    return controller, registry, shadow, monitor, alerts


class TestMonitorBenchEndToEnd:
    """The rollout loop on stub models: sign-of-sensor-0 labellers."""

    def _run(self, tmp_path, flip):
        streams = [_stationary(1400, seed=s) for s in range(8)]
        return _rollout(
            tmp_path, _SignModel(), _SignModel(flip=flip), streams,
            [1] * len(streams), window=270, n_jobs=8, max_samples=1400,
            injection=DriftInjection(start_sample=700, ramp_samples=90,
                                     gain=1.7, sensors=(0, 6)),
            drift=DriftConfig(warmup=0, ph_delta=0.25, ph_threshold=75.0),
            rollout=RolloutConfig(
                canary_fraction=0.5, min_shadow_windows=20,
                min_canary_windows=6, min_agreement=0.8,
                rollback_agreement=0.55, max_latency_ratio=10.0,
                salt="2022"))

    def test_good_challenger_promoted(self, tmp_path):
        controller, registry, shadow, monitor, _ = self._run(tmp_path, False)
        assert controller.state == PROMOTED
        assert registry.active_version("workload") == 2
        assert shadow.report()["agreement"] == 1.0
        assert len(monitor.first_detections()) >= 6
        latencies = sorted(monitor.detection_latencies(700).values())
        assert latencies[len(latencies) // 2] <= 540

    def test_bad_challenger_rolled_back(self, tmp_path):
        controller, registry, _, _, alerts = self._run(tmp_path, True)
        assert controller.state == ROLLED_BACK
        assert registry.active_version("workload") == 1
        assert any(a.rule == "shadow-agreement-low" for a in alerts.timeline)


class _PermutedLabelModel:
    """A broken challenger: the champion's labels through a permutation."""

    def __init__(self, base, n_classes, seed):
        self.base = base
        self.perm = np.random.default_rng(seed).permutation(n_classes)

    def predict(self, X):
        return self.perm[np.asarray(self.base.predict(X)).astype(np.int64)]


@pytest.fixture(scope="module")
def release_models():
    """A simulated release, its RF-cov champion and a +10%-trees challenger.

    ``trials_scale=0.01`` and 10 trees on 60-random-1, small enough for
    tier-1; fitted once for the module.
    """
    labelled = build_labelled_dataset(
        SimulationConfig(seed=2022, trials_scale=0.01))
    ds = build_challenge_suite(labelled, seed=2022,
                               names=("60-random-1",))["60-random-1"]
    champion = make_rf_cov(n_estimators=10, random_state=0)
    champion.fit(ds.X_train, ds.y_train)
    challenger = make_rf_cov(n_estimators=11, random_state=0)
    challenger.fit(ds.X_train, ds.y_train)
    trials = labelled.eligible(ds.n_samples).trials
    return (champion, challenger, [t.series for t in trials],
            [t.label for t in trials], ds.n_samples)


class TestRolloutOnASimulatedRelease:
    """RF-cov models on a simulated fleet whose sensors 0 and 6 drift by
    a 1.6x gain two minutes into every stream."""

    def _run(self, tmp_path, release_models, challenger):
        champion, _, series, labels, window = release_models
        return _rollout(
            tmp_path, champion, challenger, series, labels, window=window,
            n_jobs=10, max_samples=2700,
            injection=DriftInjection(start_sample=1080, ramp_samples=270,
                                     gain=1.6, sensors=(0, 6)),
            drift=DriftConfig(warmup=540, ph_delta=0.25, ph_threshold=75.0),
            rollout=RolloutConfig(
                canary_fraction=0.4, min_shadow_windows=60,
                min_canary_windows=24, min_agreement=0.8,
                rollback_agreement=0.55, max_latency_ratio=10.0,
                salt="2022"))

    def test_more_trees_challenger_promoted(self, tmp_path, release_models):
        controller, registry, _, monitor, _ = self._run(
            tmp_path, release_models, release_models[1])
        assert [d.to_state for d in controller.decisions] == [
            CANARY, PROMOTED]
        assert registry.active_version("workload") == 2
        assert monitor.n_events > 0

    def test_label_permuted_challenger_rolled_back(self, tmp_path,
                                                   release_models):
        bad = _PermutedLabelModel(release_models[0], N_CLASSES, seed=2023)
        controller, registry, _, _, _ = self._run(
            tmp_path, release_models, bad)
        assert [d.to_state for d in controller.decisions] == [ROLLED_BACK]
        assert registry.active_version("workload") == 1

    def test_same_seed_same_rollout(self, tmp_path, release_models):
        def timelines(workdir):
            controller, _, _, monitor, alerts = self._run(
                workdir, release_models, release_models[1])
            # The promotion reason ends with the measured latency ratio,
            # which reads wall time; every other field is simulated.
            decisions = [(d.at_s, d.from_state, d.to_state,
                          d.reason.split(", latency guardrail")[0])
                         for d in controller.decisions]
            return decisions, list(alerts.timeline), monitor.n_events

        first = timelines(tmp_path / "first")
        assert first[0] and first[1]
        assert timelines(tmp_path / "second") == first
