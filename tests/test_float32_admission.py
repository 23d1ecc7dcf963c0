"""Float32 telemetry through admission, sessions and failover.

A store replay hands out float32 memmap views.  Admission keeps a
floating chunk's dtype, so those rows reach the session ring (and cross
a worker pipe) as float32; only non-floating chunks are coerced to
float64.  Every emission must equal the float64-coerced replay's: one
store release replayed through an :class:`InferenceServer` and through a
:class:`FleetRouter` over one :class:`SubprocessWorker`, each with the
store's float32 views (``keep_dtype=True``) and with float64 copies,
gives one emission digest.
"""

import hashlib

import numpy as np
import pytest

from repro.fleet import FleetRouter, FleetWorker, SubprocessWorker
from repro.fleet.ring import HashRing
from repro.models import make_rf_cov
from repro.monitor.drift import DriftConfig, FleetDriftMonitor
from repro.serve import (
    FleetLoadGenerator,
    InferenceServer,
    ServeConfig,
    SimulatedClock,
)
from repro.serve.metrics import MetricsRegistry
from repro.serve.server import IngressQueue
from repro.serve.session import StreamSession
from repro.store import TelemetryStore

_CONFIG = ServeConfig(window=90, hop=45, max_batch=16, flush_deadline_s=0.0)
_ROWS = 450
# Telemetry-shaped magnitudes, so float32 rounding shows in the values.
_LEVEL = np.array([50.0, 30.0, 60.0, 40.0, 1500.0, 5000.0, 150.0])
_SPREAD = np.array([30.0, 20.0, 5.0, 2.0, 10.0, 8.0, 60.0])


@pytest.fixture(scope="module")
def release(tmp_path_factory):
    """A sealed store of six float32 trials and an RF-cov model on them."""
    store = TelemetryStore(tmp_path_factory.mktemp("release"), n_shards=2)
    rng = np.random.default_rng(21)
    windows, labels = [], []
    for job_id in range(6):
        label = job_id % 3
        series = (_LEVEL + label * _SPREAD / 3
                  + rng.normal(size=(_ROWS, 7)) * _SPREAD).astype(np.float32)
        store.append(job_id, series, label=label, model_name=f"m{label}")
        windows.extend(series.reshape(-1, 90, 7))
        labels.extend([label] * (_ROWS // 90))
    store.flush()
    model = make_rf_cov(n_estimators=5, random_state=0).fit(
        np.stack(windows), np.array(labels))
    yield store, model
    store.close()


def _gen(store, clock, *, keep_dtype):
    return FleetLoadGenerator.from_store(
        store, n_jobs=6, min_samples=90, samples_per_tick=45,
        max_samples_per_job=_ROWS, seed=3, clock=clock, keep_dtype=keep_dtype)


def _digest(emissions) -> str:
    rows = sorted(
        (e.job_id, e.prediction.sample_index, e.prediction.label,
         e.prediction.smoothed_label, e.prediction.confidence)
        for e in emissions)
    assert rows, "the replay emitted nothing"
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def _served(store, model, *, keep_dtype):
    clock = SimulatedClock()
    gen = _gen(store, clock, keep_dtype=keep_dtype)
    return _digest(gen.run(InferenceServer(model, _CONFIG, clock=clock)).emissions)


def test_float32_and_float64_replays_emit_one_digest(release):
    store, model = release
    digests = {(kind, keep): None
               for kind in ("server", "fleet") for keep in (True, False)}
    for keep in (True, False):
        digests["server", keep] = _served(store, model, keep_dtype=keep)
        clock = SimulatedClock()
        gen = _gen(store, clock, keep_dtype=keep)
        assert {s.dtype for s in gen.series} == {
            np.dtype(np.float32 if keep else np.float64)}
        worker = SubprocessWorker("w0", model, _CONFIG, clock=clock)
        try:
            with pytest.raises(ValueError, match=r"\(k, 7\)"):
                worker.submit(0, np.zeros((4, 3), dtype=np.float32))
            router = FleetRouter([worker], clock=clock,
                                 history=gen.job_stream)
            digests["fleet", keep] = _digest(gen.run(router).emissions)
        finally:
            worker.close()
    assert len(set(digests.values())) == 1, digests


def test_killed_worker_rebuilds_from_float32_rows(release):
    store, model = release
    clean = _served(store, model, keep_dtype=False)

    victim = HashRing(["w0", "w1"]).owner(0)
    survivor = "w1" if victim == "w0" else "w0"
    clock = SimulatedClock()
    gen = _gen(store, clock, keep_dtype=True)
    replayed = []

    def history(job_id):
        rows = gen.job_stream(job_id)
        replayed.append(rows.dtype)
        return rows

    # The in-process victim dies; the subprocess survivor adopts its jobs
    # and rebuilds their sessions from rows sent over the pipe.
    dead = FleetWorker(victim, model, _CONFIG, clock=clock)
    sub = SubprocessWorker(survivor, model, _CONFIG, clock=clock)
    router = FleetRouter([dead, sub], clock=clock, history=history)

    def on_tick(tick, emissions):
        if tick == 3:
            dead.kill()

    try:
        report = gen.run(router, on_tick=on_tick)
    finally:
        sub.close()
    assert [e.worker_id for e in router.events if e.kind == "failover"] \
        == [victim]
    assert replayed and set(replayed) == {np.dtype(np.float32)}
    assert _digest(report.emissions) == clean


def test_rebuild_session_pushes_float32_rows_unconverted(release, monkeypatch):
    store, model = release
    pushed = []
    push = StreamSession.push

    def spy(self, samples, *args, **kwargs):
        pushed.append(samples.dtype)
        return push(self, samples, *args, **kwargs)

    monkeypatch.setattr(StreamSession, "push", spy)
    rows = _gen(store, SimulatedClock(), keep_dtype=True).job_stream(0)
    server = InferenceServer(model, _CONFIG, clock=SimulatedClock())
    out = server.rebuild_session(0, rows[:300])
    assert out and pushed == [np.dtype(np.float32)]


class TestAdmissionDtype:
    def _queue(self):
        return IngressQueue(_CONFIG, MetricsRegistry())

    def test_float32_chunk_is_queued_as_is(self):
        chunk = np.ones((90, 7), dtype=np.float32)
        queue = self._queue()
        assert queue.admit("j", chunk)
        _, samples, _ = queue.pop()
        assert samples.dtype == np.float32
        assert np.shares_memory(samples, chunk)

    def test_float64_chunk_stays_float64(self):
        chunk = np.ones((3, 7))
        queue = self._queue()
        queue.admit("j", chunk)
        assert queue.pop()[1].dtype == np.float64

    @pytest.mark.parametrize("chunk", [
        np.ones((2, 7), dtype=np.int32), np.ones((2, 7), dtype=np.bool_),
        [[1] * 7, [2] * 7]])
    def test_non_floating_chunk_becomes_float64(self, chunk):
        queue = self._queue()
        queue.admit("j", chunk)
        samples = queue.pop()[1]
        assert samples.dtype == np.float64
        assert np.array_equal(samples, np.asarray(chunk, dtype=np.float64))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int64])
    def test_wrong_sensor_count_raises_at_submit(self, dtype):
        server = InferenceServer(make_rf_cov(n_estimators=1), _CONFIG)
        with pytest.raises(ValueError, match=r"\(k, 7\)"):
            server.submit("j", np.zeros((5, 3), dtype=dtype))
        assert server.queue_depth == 0

    def test_taps_see_float32_chunks_and_the_same_drift_events(self, release):
        store, model = release

        class _DtypeTap:
            def __init__(self):
                self.dtypes = set()

            def on_ingress(self, chunks):
                self.dtypes.update(samples.dtype for _, samples in chunks)

        config = DriftConfig(reference=90, window=90, check_every=45,
                             n_blocks=3, cooldown=90)
        # Float32 streams whose power draw steps up a third of the way in.
        series = [store.series(job_id).copy() for job_id in range(6)]
        for rows in series:
            rows[_ROWS // 3:, 6] *= np.float32(1.5)
        seen = {}
        for keep in (True, False):
            clock = SimulatedClock()
            tap, monitor = _DtypeTap(), FleetDriftMonitor(config)
            gen = FleetLoadGenerator(
                series, n_jobs=6, samples_per_tick=45, seed=3, clock=clock,
                keep_dtype=keep)
            gen.run(InferenceServer(model, _CONFIG, clock=clock,
                                    taps=[tap, monitor]))
            seen[keep] = (tap.dtypes, monitor.recent_events())
        assert seen[True][0] == {np.dtype(np.float32)}
        assert seen[False][0] == {np.dtype(np.float64)}
        assert seen[True][1] and seen[True][1] == seen[False][1]
