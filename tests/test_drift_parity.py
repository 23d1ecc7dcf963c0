"""Chunked drift detector against the per-row oracle.

:class:`repro.monitor.SensorDriftDetector` consumes a whole ``(k, 7)``
chunk in a few array operations; :mod:`tests.oracles.drift` holds the
per-row detector it replaced.  For every way of splitting a stream into
chunks, the two must emit the same events (floats compared by ``==``)
and hold the same state after every chunk.  The same holds for
:class:`repro.monitor.FleetDriftMonitor`, which scans every session of a
serving step at once, against one oracle detector per session.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.monitor import (
    DriftConfig,
    DriftInjection,
    FleetDriftMonitor,
    SensorDriftDetector,
    inject_series,
)
from repro.monitor.drift import _MAX_CHUNK
from tests.oracles.drift import SensorDriftDetector as OracleDetector
from tests.test_monitor import _stationary

#: Chunk sizes checked on every input; None feeds the whole stream at once.
CHUNKS = (1, 7, 90, 270, None)

#: Fires all three detector kinds many times on the synthetic streams.
SENSITIVE = DriftConfig(warmup=50, z_mean=3.0, z_cov=3.0, ph_threshold=5.0,
                        cooldown=20)


def _state(det):
    return (
        det.n_seen, det.n_events, det._first_event_sample,
        det._last_event_sample, det._since_check, dict(det._last_fired),
        det._sum.tolist(), det._sum_prod.tolist(),
        [(p._n, p._mean, p._cum_up, p._min_up, p._cum_down, p._max_down)
         for p in det._ph],
    )


def _assert_parity(stream, config, chunks=CHUNKS):
    """Step the oracle row by row and one chunked detector per chunk size
    in lockstep; compare events and state at every chunk boundary.
    Returns the oracle's events."""
    n = len(stream)
    oracle = OracleDetector("job", config)
    fast = {c: SensorDriftDetector("job", config) for c in chunks}
    events = {c: [] for c in chunks}
    expected = []
    for t in range(n):
        expected.extend(oracle.update(stream[t]))
        for c in chunks:
            size = c or n
            if (t + 1) % size and t + 1 < n:
                continue
            new = fast[c].update_many(stream[t // size * size : t + 1])
            assert new == expected[len(events[c]):], f"chunk {c}, row {t}"
            events[c].extend(new)
            assert _state(fast[c]) == _state(oracle), f"chunk {c}, row {t}"
    for det in fast.values():
        np.testing.assert_array_equal(det._rows, np.stack(oracle._rows))
    return expected


def _drifting(n, seed):
    """Gain on utilization and power, then an offset on memory."""
    stream = inject_series(_stationary(n, seed), DriftInjection(
        start_sample=n // 3, ramp_samples=270, gain=1.6, sensors=(0, 6)))
    return inject_series(stream, DriftInjection(
        start_sample=2 * n // 3, ramp_samples=90, offset=800.0,
        sensors=(2,)))


@pytest.fixture(scope="module")
def release_streams(tmp_path_factory):
    """The serve-rf-monitored replay at seed 3: a ``trials_scale=0.02``
    release ingested into a 4-shard store, 32 jobs x 1350 rows."""
    from repro.serve import FleetLoadGenerator
    from repro.simcluster import ClusterSimulator, SimulationConfig
    from repro.store import TelemetryStore

    jobs, _ = ClusterSimulator(
        SimulationConfig(seed=3, trials_scale=0.02)).generate()
    root = tmp_path_factory.mktemp("release")
    with TelemetryStore(root, n_shards=4) as store:
        store.ingest(jobs)
    with TelemetryStore(root) as store:
        gen = FleetLoadGenerator.from_store(
            store, n_jobs=32, seed=3, max_samples_per_job=1350)
        return [np.array(gen.job_stream(j)) for j in range(32)]


class TestOracleParity:
    def test_benchmark_release(self, release_streams):
        events = []
        for stream in release_streams:
            assert stream.shape == (1350, 7)
            events.extend(_assert_parity(stream, DriftConfig()))
        assert len(events) == 1023
        assert Counter(e.kind for e in events) == {
            "mean": 599, "page_hinkley": 315, "covariance": 109}

    def test_page_hinkley_reports_the_crossing_statistic(
            self, release_streams):
        events = []
        for job, stream in enumerate(release_streams):
            events.extend(SensorDriftDetector(job).update_many(stream))
        ph = [e for e in events if e.kind == "page_hinkley"]
        assert len(ph) == 315
        assert all(e.statistic > e.threshold for e in ph)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_injected_drift_with_warmup(self, seed):
        # warmup=50 and reference=270 put both boundaries (rows 50 and
        # 320) inside a chunk for every chunk size but 1.
        for config in (DriftConfig(warmup=50), SENSITIVE):
            events = _assert_parity(_drifting(2400, seed), config)
            assert events
        assert {e.kind for e in events} == {
            "mean", "covariance", "page_hinkley"}

    def test_chunk_longer_than_one_detection_pass(self):
        stream = _drifting(9000, seed=2)
        oracle = OracleDetector(0, SENSITIVE)
        fast = SensorDriftDetector(0, SENSITIVE)
        assert fast.update_many(stream) == oracle.update_many(stream)
        assert _state(fast) == _state(oracle)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        warmup=st.integers(0, 60),
        window=st.integers(2, 120),
        check_every=st.integers(1, 150),
        cuts=st.lists(st.integers(1, 900), min_size=1, max_size=12),
    )
    def test_random_chunk_splits(self, seed, warmup, window, check_every,
                                 cuts):
        config = DriftConfig(warmup=warmup, reference=60, window=window,
                             check_every=check_every, z_mean=3.0, z_cov=3.0,
                             ph_threshold=5.0, cooldown=15)
        stream = _drifting(900, seed)
        bounds = np.unique(np.clip(np.cumsum(cuts), 0, len(stream)))
        oracle = OracleDetector(seed, config)
        fast = SensorDriftDetector(seed, config)
        lo = 0
        for hi in [*bounds, len(stream)]:
            chunk = stream[lo:hi]
            assert fast.update_many(chunk) == oracle.update_many(chunk)
            assert _state(fast) == _state(oracle)
            lo = hi
        np.testing.assert_array_equal(
            fast._rows, np.asarray(oracle._rows).reshape(-1, 7))


def _fleet_parity(config, steps, ends=None):
    """Feed each step's ``(job, rows)`` chunks to a FleetDriftMonitor in
    one call, and each chunk to its job's oracle row by row; compare
    every session's new events and state after every step.  ``ends``
    maps a step index to the jobs whose session ends after it.  Returns
    the oracle events in step order."""
    monitor = FleetDriftMonitor(config=config, max_recent=10**6)
    oracles = {}
    expected = []
    for t, step in enumerate(steps):
        seen = len(monitor.recent_events())
        monitor.on_ingress(step)
        got = {}
        for event in monitor.recent_events()[seen:]:
            got.setdefault(event.session_id, []).append(event)
        want = {}
        for job, rows in step:
            oracle = oracles.setdefault(job, OracleDetector(job, config))
            want.setdefault(job, []).extend(oracle.update_many(rows))
        assert got == {job: ev for job, ev in want.items() if ev}, t
        expected.extend(e for ev in want.values() for e in ev)
        assert monitor._detectors.keys() == oracles.keys()
        for job, oracle in oracles.items():
            assert _state(monitor._detectors[job]) == _state(oracle), (t, job)
        for job in (ends or {}).get(t, ()):
            assert monitor.end_session(job)
            del oracles[job]
    return expected


#: One fleet replay: sessions that start at a later step, feed ragged
#: rows per step and may end their session after their last chunk.  One
#: job's first chunk is split in two around the other jobs' chunks of that
#: step; ``long`` gives a session one step longer than a detection pass.
FLEET_CASE = st.fixed_dictionaries({
    "seed": st.integers(0, 2**16),
    "sensitive": st.booleans(),
    "sessions": st.lists(
        st.fixed_dictionaries({
            "start": st.integers(0, 3),
            "sizes": st.lists(st.integers(1, 400), min_size=1, max_size=6),
            "ends": st.booleans(),
        }),
        min_size=1, max_size=5),
    "split": st.integers(1, 399),
    "long": st.booleans(),
})


def _fleet_schedule(case):
    sessions = case["sessions"]
    sizes = [list(s["sizes"]) for s in sessions]
    if case["long"]:
        sizes[-1][-1] = _MAX_CHUNK + 300
    streams = [_drifting(sum(rows), case["seed"] + j)
               for j, rows in enumerate(sizes)]
    offsets = [0] * len(sessions)
    steps, ends, split = [], {}, case["split"]
    for t in range(max(s["start"] + len(r) for s, r in zip(sessions, sizes))):
        step = []
        for j, (session, rows) in enumerate(zip(sessions, sizes)):
            i = t - session["start"]
            if not 0 <= i < len(rows):
                continue
            step.append((j, streams[j][offsets[j]:offsets[j] + rows[i]]))
            offsets[j] += rows[i]
            if session["ends"] and i == len(rows) - 1:
                ends.setdefault(t, []).append(j)
        if step and split < len(step[0][1]):
            job, rows = step[0]
            step = [(job, rows[:split]), *step[1:], (job, rows[split:])]
            split = float("inf")    # split one chunk only
        steps.append(step)
    return steps, ends


class TestFleetParity:
    @settings(max_examples=20, deadline=None)
    @given(FLEET_CASE)
    def test_per_step_scan_matches_one_oracle_per_session(self, case):
        # warmup=50 and reference=270 put the warm-up and reference
        # boundaries inside a step whenever a step's rows straddle them.
        config = SENSITIVE if case["sensitive"] else DriftConfig(warmup=50)
        _fleet_parity(config, *_fleet_schedule(case))

    def test_benchmark_release_in_serving_ticks(self, release_streams):
        steps = [[(job, stream[t:t + 90])
                  for job, stream in enumerate(release_streams)]
                 for t in range(0, 1350, 90)]
        events = _fleet_parity(DriftConfig(), steps)
        assert len(events) == 1023
        assert Counter(e.kind for e in events) == {
            "mean": 599, "page_hinkley": 315, "covariance": 109}


class TestChunkInput:
    def test_empty_chunk_is_a_no_op(self):
        det = SensorDriftDetector()
        det.update_many(_stationary(400, seed=0))
        before = _state(det)
        assert det.update_many(np.empty((0, 7))) == []
        assert _state(det) == before

    @pytest.mark.parametrize("shape", [(7,), (3, 5), (2, 3, 7)])
    def test_chunk_shape_validated(self, shape):
        with pytest.raises(ValueError, match="row"):
            SensorDriftDetector().update_many(np.zeros(shape))
