"""Serving subsystem tests: micro-batcher, server, metrics, load generator."""

import gc
import weakref

import numpy as np
import pytest

from repro.core.streaming import OnlineWorkloadClassifier
from repro.serve import (
    FleetLoadGenerator,
    Histogram,
    InferenceServer,
    MetricsRegistry,
    MicroBatcher,
    ServeConfig,
    SimulatedClock,
    StreamSession,
    SubmitResult,
)


class _CountingModel:
    """Deterministic classifier that counts its predict() invocations."""

    def __init__(self):
        self.calls = 0
        self.windows = 0

    def predict(self, X):
        X = np.asarray(X)
        self.calls += 1
        self.windows += X.shape[0]
        return (X[:, :, 0].mean(axis=1) > 0).astype(np.int64)


def _series(n, level=1.0, seed=0):
    rng = np.random.default_rng(seed)
    out = rng.normal(0, 0.1, size=(n, 7))
    out[:, 0] += level
    return out


def _requests(n, window=10, seed=0):
    session = StreamSession("j", window=window, hop=1)
    return session.push(_series(window + n - 1, seed=seed))[:n]


class TestMicroBatcher:
    def test_flushes_when_batch_fills(self):
        model = _CountingModel()
        batcher = MicroBatcher(model, max_batch=3, max_delay_s=1e9)
        reqs = _requests(4)
        batcher.enqueue(reqs[:2])
        assert batcher.poll() == []          # short of a batch, no deadline
        batcher.enqueue(reqs[2:])
        done = batcher.flush()               # the oldest max_batch windows
        assert [c.request.seq for c in done] == [0, 1, 2]
        assert model.calls == 1 and model.windows == 3
        assert batcher.queued == 1
        assert [c.request.seq for c in batcher.flush()] == [3]

    def test_deadline_flush_with_fake_clock(self):
        clock = SimulatedClock()
        model = _CountingModel()
        batcher = MicroBatcher(model, max_batch=100, max_delay_s=5.0,
                               clock=clock)
        batcher.enqueue(_requests(1))
        assert batcher.poll() == []          # deadline not reached
        clock.advance(4.9)
        assert batcher.poll() == []
        clock.advance(0.2)                   # oldest has now waited 5.1s
        done = batcher.poll()
        assert len(done) == 1
        assert done[0].waited_s == pytest.approx(5.1)
        assert model.calls == 1

    def test_drain_flushes_everything(self):
        model = _CountingModel()
        batcher = MicroBatcher(model, max_batch=4, max_delay_s=1e9)
        batcher.enqueue(_requests(6))
        # 6 queued at max_batch 4: one full flush takes 4, drain gets 2.
        assert len(batcher.flush()) == 4
        assert batcher.queued == 2
        done = batcher.drain()
        assert len(done) == 2
        assert batcher.queued == 0
        assert model.calls == 2

    def test_labels_routed_to_matching_request(self):
        model = _CountingModel()
        batcher = MicroBatcher(model, max_batch=2, max_delay_s=1e9)
        pos = StreamSession("pos", window=10, hop=1)
        neg = StreamSession("neg", window=10, hop=1)
        (rp,) = pos.push(_series(10, level=1.0))
        (rn,) = neg.push(_series(10, level=-1.0))
        batcher.enqueue([rp, rn])
        done = batcher.flush()
        labels = {c.request.session_id: c.label for c in done}
        assert labels == {"pos": 1, "neg": 0}

    def test_bad_model_output_shape(self):
        class Bad:
            def predict(self, X):
                return np.zeros(99)

        batcher = MicroBatcher(Bad(), max_batch=1)
        batcher.enqueue(_requests(1))
        with pytest.raises(ValueError, match="shape"):
            batcher.flush()

    def test_validates_parameters(self):
        with pytest.raises(TypeError, match="predict"):
            MicroBatcher(object())
        with pytest.raises(ValueError, match="max_batch"):
            MicroBatcher(_CountingModel(), max_batch=0)


class TestInferenceServer:
    def _server(self, model=None, **overrides):
        clock = SimulatedClock()
        defaults = dict(window=10, hop=5, vote_window=3, max_batch=4,
                        flush_deadline_s=5.0, queue_capacity=1024)
        defaults.update(overrides)
        server = InferenceServer(model or _CountingModel(),
                                 ServeConfig(**defaults), clock=clock)
        return server, clock

    def test_end_to_end_emissions(self):
        server, clock = self._server()
        server.submit("a", _series(20, level=1.0))
        server.submit("b", _series(20, level=-1.0, seed=1))
        emissions = server.step()
        clock.advance(10.0)
        emissions += server.step()           # deadline flush of the rest
        by_job = {}
        for e in emissions:
            by_job.setdefault(e.job_id, []).append(e.prediction.label)
        assert set(by_job["a"]) == {1}
        assert set(by_job["b"]) == {0}
        assert server.n_sessions == 2

    def test_shed_oldest_under_tiny_queue(self):
        server, _ = self._server(queue_capacity=2, admission="shed-oldest")
        assert server.submit("a", _series(5))
        assert server.submit("b", _series(5))
        assert server.submit("c", _series(5))     # queue full: sheds "a"
        assert server.queue_depth == 2
        assert server.metrics.counter("ingress.shed").value == 1
        server.step()
        # "a"'s chunk never reached its session; b and c got theirs.
        assert server.n_sessions == 2

    @pytest.mark.parametrize("shape", [(12, 3), (2, 3, 7), (7, 0)])
    def test_malformed_chunk_refused_at_submit(self, shape):
        # It used to be admitted, then abort the next step midway through
        # its pop loop with the rest of the queue left behind.
        server, _ = self._server()
        server.submit("a", _series(10))
        with pytest.raises(ValueError, match="telemetry chunk"):
            server.submit("bad", np.zeros(shape))
        assert server.queue_depth == 1
        assert server.metrics.counter("ingress.chunks").value == 1
        assert server.metrics.counter("ingress.samples").value == 10
        server.submit("b", _series(10, seed=1))
        server.step()
        assert server.queue_depth == 0 and server.n_sessions == 2

    def test_reject_policy_returns_false(self):
        server, _ = self._server(queue_capacity=1, admission="reject")
        assert server.submit("a", _series(5))
        assert not server.submit("b", _series(5))
        assert server.metrics.counter("ingress.rejected").value == 1
        assert server.queue_depth == 1

    def test_graceful_drain_and_reopen(self):
        model = _CountingModel()
        server, _ = self._server(model, max_batch=1000,
                                 flush_deadline_s=1e9)
        server.submit("a", _series(10))
        emissions = server.drain()               # forces the partial batch out
        assert len(emissions) == 1
        # Draining is a typed (falsy) refusal, not an exception — the
        # fleet router relies on telling it apart from overload.
        result = server.submit("a", _series(5))
        assert result is SubmitResult.DRAINING
        assert not result
        assert server.metrics.counter("ingress.draining").value == 1
        server.reopen()
        assert server.submit("a", _series(5)) is SubmitResult.ACCEPTED

    def test_end_session_orphans_inflight_windows(self):
        server, _ = self._server(max_batch=1000, flush_deadline_s=1e9)
        server.submit("a", _series(10))
        server.step()                            # window queued in batcher
        assert server.end_session("a")
        assert not server.end_session("a")
        emissions = server.drain()
        assert emissions == []
        assert server.metrics.counter("predictions.orphaned").value == 1

    def test_latency_measured_on_server_clock(self):
        server, clock = self._server(max_batch=1000, flush_deadline_s=3.0)
        server.submit("a", _series(10))
        server.step()                            # request created at t=0
        clock.advance(4.0)
        (emission,) = server.step()
        assert emission.latency_s == pytest.approx(4.0)
        summary = server.metrics.histogram("latency.window_s").summary()
        assert summary["count"] == 1

    def test_invalid_admission_policy(self):
        with pytest.raises(ValueError, match="admission"):
            ServeConfig(admission="drop-newest")

    def test_predict_failure_keeps_done_windows_and_leaks_no_pending(self):
        class _FailsOnSecondCall(_CountingModel):
            def predict(self, X):
                if self.calls == 1:
                    self.calls += 1
                    raise RuntimeError("predict failed")
                return super().predict(X)

        model = _FailsOnSecondCall()
        server, _ = self._server(model, window=30, hop=10, max_batch=1)
        server.submit("a", _series(50))          # windows end at 30, 40, 50
        with pytest.raises(RuntimeError, match="predict failed"):
            server.step()
        # The 1st window's batch succeeded, the 2nd failed, the 3rd was
        # cut by the same push and stays queued behind it.
        assert server.batcher.queued == 1
        assert server.metrics.counter("predictions.failed").value == 1
        emissions = server.drain()
        assert [e.prediction.sample_index for e in emissions] == [30, 50]
        assert server._session("a").pending == 0
        assert server.metrics.counter("predictions.emitted").value == 2

    def test_predict_failure_in_drain_keeps_earlier_batches(self):
        class _FailsOnSecondCall(_CountingModel):
            def predict(self, X):
                if self.calls == 1:
                    self.calls += 1
                    raise RuntimeError("predict failed")
                return super().predict(X)

        server, _ = self._server(_FailsOnSecondCall(), max_batch=2,
                                 flush_deadline_s=1e9)
        for seed, job in enumerate("abc"):
            server.submit(job, _series(10, seed=seed))
        # [a, b] fills a batch while ingress is consumed; the forced
        # flush of [c] raises.
        with pytest.raises(RuntimeError, match="predict failed"):
            server.drain()
        emissions = server.drain()
        assert [e.job_id for e in emissions] == ["a", "b"]
        assert all(server._session(j).pending == 0 for j in "abc")
        assert server.metrics.counter("predictions.failed").value == 1

    def test_server_is_freed_without_the_cycle_collector(self):
        server, _ = self._server()
        server.submit("a", _series(20))
        server.step()
        ref = weakref.ref(server)
        gc.disable()
        try:
            del server
            assert ref() is None
        finally:
            gc.enable()

    def test_window_of_ended_session_is_not_emitted_to_its_successor(self):
        server, _ = self._server(_CountingModel(), window=10, hop=5,
                                 max_batch=100, flush_deadline_s=1e9)
        server.submit("a", _series(10))
        assert server.step() == [] and server.batcher.queued == 1
        server.end_session("a")
        server.submit("a", _series(10, seed=1))  # the job restarts
        emissions = server.drain()
        # Only the restarted session's own window reaches its vote.
        assert [e.prediction.sample_index for e in emissions] == [10]
        assert server._session("a").pending == 0
        assert server.metrics.counter("predictions.orphaned").value == 1

    def test_failed_window_of_ended_session_is_not_retired_on_successor(self):
        class _AlwaysFails:
            def predict(self, X):
                raise RuntimeError("predict failed")

        server, _ = self._server(_AlwaysFails(), window=10, hop=5,
                                 max_batch=100, flush_deadline_s=1e9)
        server.submit("a", _series(10))
        server.step()
        server.end_session("a")
        server.submit("a", _series(3, seed=1))   # restarted, no window yet
        with pytest.raises(RuntimeError, match="predict failed"):
            server.drain()
        assert server._session("a").pending == 0
        assert server.metrics.counter("predictions.failed").value == 1


class TestBatchingBeatsPerSession:
    def test_fewer_predict_calls_than_online_classifiers(self):
        """The tentpole claim: micro-batched serving of M streams issues
        strictly fewer predict calls than M online classifiers, while
        emitting the same labels for the same telemetry."""
        streams = {
            j: _series(64, level=(1.0 if j % 2 else -1.0), seed=j)
            for j in range(6)
        }
        kwargs = dict(window=10, hop=5, vote_window=3)

        baseline = _CountingModel()
        expected = {}
        for j, data in streams.items():
            online = OnlineWorkloadClassifier(model=baseline, **kwargs)
            preds = []
            for i in range(0, data.shape[0], 8):
                preds.extend(online.push(data[i: i + 8]))
            expected[j] = preds

        batched = _CountingModel()
        clock = SimulatedClock()
        server = InferenceServer(
            batched,
            ServeConfig(max_batch=16, flush_deadline_s=1e9,
                        queue_capacity=1024, **kwargs),
            clock=clock,
        )
        emissions = []
        for i in range(0, 64, 8):
            for j, data in streams.items():
                server.submit(j, data[i: i + 8])
            emissions.extend(server.step())
        emissions.extend(server.drain())

        got = {}
        for e in emissions:
            got.setdefault(e.job_id, []).append(e.prediction)
        assert got == expected
        assert batched.windows == baseline.windows
        assert batched.calls < baseline.calls
        # All per-session overhead amortized: every predict call classified
        # several sessions' windows on average.
        assert baseline.calls / batched.calls > 2


class TestMetrics:
    def test_counter_and_gauge(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.counter("c").inc(4)
        registry.gauge("g").set(2.5)
        snap = registry.as_dict()
        assert snap["c"] == 5 and snap["g"] == 2.5
        with pytest.raises(ValueError, match=">= 0"):
            registry.counter("c").inc(-1)

    def test_histogram_percentile_math(self):
        h = Histogram("lat")
        for v in range(1, 101):                  # 1..100
            h.observe(float(v))
        assert h.count == 100
        assert h.mean == pytest.approx(50.5)
        assert h.percentile(50) == 50
        assert h.percentile(95) == 95
        assert h.percentile(99) == 99
        assert h.percentile(0) == 1
        assert h.percentile(100) == 100
        s = h.summary()
        assert (s["min"], s["max"]) == (1.0, 100.0)
        with pytest.raises(ValueError, match="percentile"):
            h.percentile(101)

    def test_histogram_empty_and_invalid(self):
        h = Histogram("lat")
        assert h.summary() == {"count": 0}
        assert np.isnan(h.percentile(50))
        with pytest.raises(ValueError, match="finite"):
            h.observe(float("inf"))

    def test_histogram_decimation_bounds_memory(self):
        h = Histogram("big", capacity=64)
        for v in range(1000):
            h.observe(float(v))
        assert h.count == 1000
        assert len(h._values) < 64
        # Percentiles stay approximately right after decimation.
        assert abs(h.percentile(50) - 500) < 50

    def test_histogram_extreme_percentiles_exact_after_decimation(self):
        # p0/p100 come from the exactly-tracked min/max, never from the
        # decimated reservoir — which very likely dropped both extremes.
        h = Histogram("lat", capacity=16)
        values = [500.0] * 200 + [1.0] + [500.0] * 200 + [9999.0]
        for i, v in enumerate(values):
            h.observe(v)
        assert h.percentile(0) == 1.0
        assert h.percentile(100) == 9999.0
        s = h.summary()
        assert (s["min"], s["max"]) == (1.0, 9999.0)

    def test_report_renders_every_metric(self):
        registry = MetricsRegistry()
        registry.counter("requests").inc(3)
        registry.gauge("depth").set(1)
        registry.histogram("lat").observe(0.5)
        report = registry.report()
        for name in ("requests", "depth", "lat", "p95"):
            assert name in report


class TestFleetLoadGenerator:
    def _generator(self, **kwargs):
        series = [_series(40, level=1.0, seed=1),
                  _series(55, level=-1.0, seed=2)]
        defaults = dict(n_jobs=5, samples_per_tick=10, stagger_ticks=2, seed=9)
        defaults.update(kwargs)
        return FleetLoadGenerator(series, [1, 0], **defaults)

    def _run(self):
        gen = self._generator()
        server = InferenceServer(
            _CountingModel(),
            ServeConfig(window=10, hop=5, vote_window=3, max_batch=8,
                        flush_deadline_s=2.0, queue_capacity=64),
            clock=gen.clock,
        )
        return gen.run(server), server

    def test_deterministic_replay(self):
        r1, s1 = self._run()
        r2, s2 = self._run()
        assert r1.emissions == r2.emissions
        assert r1.n_ticks == r2.n_ticks
        assert s1.batcher.n_predict_calls == s2.batcher.n_predict_calls
        # batch.predict_wall_s is the one deliberately wall-clock metric
        # (rollout latency guardrails need real time); everything else
        # must replay bit-identically.
        m1, m2 = s1.metrics.as_dict(), s2.metrics.as_dict()
        wall1 = m1.pop("batch.predict_wall_s")
        wall2 = m2.pop("batch.predict_wall_s")
        assert m1 == m2
        assert wall1["count"] == wall2["count"]

    def test_report_contents(self):
        report, server = self._run()
        assert report.n_predictions > 0
        assert report.n_predictions == len(report.emissions)
        assert report.smoothed_accuracy() == 1.0
        assert set(report.final_smoothed()) <= set(range(5))
        assert report.sim_seconds == pytest.approx(
            report.n_ticks * 10 / 9.0, rel=1e-6)
        assert server.metrics.counter("predictions.emitted").value == \
            report.n_predictions

    def test_requires_shared_clock(self):
        gen = self._generator()
        server = InferenceServer(_CountingModel(),
                                 ServeConfig(window=10, hop=5))
        with pytest.raises(ValueError, match="clock"):
            gen.run(server)

    def test_max_samples_cap(self):
        gen = self._generator(max_samples_per_job=20)
        for j in range(gen.n_jobs):
            assert gen.job_stream(j).shape[0] <= 20

    def test_validates_inputs(self):
        with pytest.raises(ValueError, match="at least one"):
            FleetLoadGenerator([], n_jobs=1)
        with pytest.raises(ValueError, match="n_jobs"):
            FleetLoadGenerator([_series(10)], n_jobs=0)
        with pytest.raises(ValueError, match="labels"):
            FleetLoadGenerator([_series(10)], [1, 2], n_jobs=1)


class TestGaugeArithmetic:
    def test_inc_dec_default_and_sized(self):
        registry = MetricsRegistry()
        g = registry.gauge("depth")
        g.inc()
        g.inc(4)
        g.dec()
        g.dec(1.5)
        assert g.value == pytest.approx(2.5)

    def test_set_overrides_accumulation(self):
        g = MetricsRegistry().gauge("g")
        g.inc(10)
        g.set(3)
        g.dec(3)
        assert g.value == 0


class TestHistogramRunningExtremes:
    def test_min_max_survive_decimation(self):
        h = Histogram("lat", capacity=32)
        h.observe(123.0)                    # early max
        h.observe(-7.0)                     # early min
        for v in range(1000):               # forces repeated decimation
            h.observe(float(v % 50))
        s = h.summary()
        assert s["min"] == -7.0
        assert s["max"] == 123.0
        assert len(h._values) < 32          # reservoir decimated, extremes kept

    def test_extremes_track_every_observation(self):
        h = Histogram("lat")
        for v in (3.0, 1.0, 2.0):
            h.observe(v)
        assert (h.summary()["min"], h.summary()["max"]) == (1.0, 3.0)


class _RecordingTap:
    """Tap that records every hook invocation."""

    def __init__(self):
        self.ingress = []
        self.batches = []
        self.ended = []

    def on_ingress(self, chunks):
        self.ingress.append([(job_id, samples.shape)
                             for job_id, samples in chunks])

    def on_batch(self, completions):
        self.batches.append(len(completions))

    def end_session(self, job_id):
        self.ended.append(job_id)


class TestServerTaps:
    def _server(self, tap):
        clock = SimulatedClock()
        return InferenceServer(
            _CountingModel(),
            ServeConfig(window=10, hop=5, max_batch=4, flush_deadline_s=0.0),
            clock=clock, taps=[tap]), clock

    def test_taps_observe_ingress_batches_and_session_end(self):
        tap = _RecordingTap()
        server, clock = self._server(tap)
        server.submit("job", _series(20, seed=1))
        emissions = server.step()
        assert emissions                     # traffic actually flowed
        assert tap.ingress == [[("job", (20, 7))]]
        assert sum(tap.batches) == len(emissions)
        server.end_session("job")
        server.end_session("job")            # idempotent notify
        assert tap.ended == ["job", "job"]

    def test_ingress_only_tap_accepted(self):
        class _IngressOnly:
            def on_ingress(self, chunks):
                pass

        server, _ = self._server(_IngressOnly())
        server.submit("j", _series(12, seed=2))
        assert server.step() is not None

    def test_one_ingress_call_per_step_in_pop_order(self):
        tap = _RecordingTap()
        server, _ = self._server(tap)
        for job, n in (("b", 3), ("a", 4), ("b", 5), ("c", 6)):
            server.submit(job, _series(n, seed=n))
        server.step()
        assert tap.ingress == [[("b", (3, 7)), ("a", (4, 7)), ("b", (5, 7)),
                                ("c", (6, 7))]]
        server.step()                        # nothing queued: no call
        assert len(tap.ingress) == 1
        server.submit("a", _series(2, seed=9))
        server.step(max_chunks=0)            # bounded to nothing: no call
        assert len(tap.ingress) == 1
        server.step()
        assert tap.ingress[1:] == [[("a", (2, 7))]]

    def test_tap_without_hooks_rejected(self):
        with pytest.raises(TypeError, match="on_ingress"):
            InferenceServer(_CountingModel(), taps=[object()])


class TestLoadgenDriftHook:
    def _series_pair(self):
        return [_series(60, level=1.0, seed=1), _series(60, level=-1.0, seed=2)]

    def test_injected_streams_deterministic_and_length_preserving(self):
        from repro.monitor import DriftInjection

        # clip=False: _series() telemetry is synthetic, not physical.
        drift = DriftInjection(start_sample=20, ramp_samples=10,
                               gain=1.5, sensors=(0,), clip=False)
        make = lambda: FleetLoadGenerator(
            self._series_pair(), [1, 0], n_jobs=4, samples_per_tick=10,
            seed=9, drift=drift)
        g1, g2 = make(), make()
        for job in range(4):
            clean = FleetLoadGenerator(
                self._series_pair(), [1, 0], n_jobs=4,
                samples_per_tick=10, seed=9).job_stream(job)
            np.testing.assert_array_equal(g1.job_stream(job),
                                          g2.job_stream(job))
            assert g1.job_stream(job).shape == clean.shape
            np.testing.assert_array_equal(g1.job_stream(job)[:20], clean[:20])
            assert not np.array_equal(g1.job_stream(job)[40:], clean[40:])

    def test_class_shift_splices_donor_of_other_class(self):
        from repro.monitor import DriftInjection

        drift = DriftInjection(start_sample=30, class_shift_fraction=0.5)
        gen = FleetLoadGenerator(
            self._series_pair(), [1, 0], n_jobs=4, samples_per_tick=10,
            seed=9, drift=drift)
        shifted = gen.class_shifted_jobs()
        assert len(shifted) == 2
        for job, donor in shifted.items():
            assert gen.true_label(job) != [1, 0][donor]
            np.testing.assert_array_equal(
                gen.job_stream(job)[30:],
                gen.series[donor][30:60])

    def test_class_shift_without_labels_rejected(self):
        from repro.monitor import DriftInjection

        with pytest.raises(ValueError, match="labels"):
            FleetLoadGenerator(
                self._series_pair(), None, n_jobs=2,
                drift=DriftInjection(class_shift_fraction=0.5))
