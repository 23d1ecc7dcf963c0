"""Tests for deterministic replay from the telemetry store: emission-trace
bit-identity across shard counts and rate multipliers, zero-copy loadgen
streams, drift injection on archived telemetry, and the simulate→store
archive path."""

import numpy as np
import pytest

from repro.monitor.inject import DriftInjection
from repro.serve.loadgen import FleetLoadGenerator
from repro.serve.server import ServeConfig
from repro.simcluster.workload import DEFAULT_DT_S
from repro.store import ReplayConfig, Replayer, TelemetryStore
from tests.stubs import MeanSignModel


def _filled_store(root, n_shards=2, n_jobs=6, n=700):
    store = TelemetryStore(root, n_shards=n_shards)
    for job_id in range(n_jobs):
        rng = np.random.default_rng(100 + job_id)
        series = rng.normal((-1.0) ** job_id, 0.3,
                            size=(n, 7)).astype(np.float32)
        store.append(job_id, series, label=job_id % 2,
                     model_name=f"m{job_id % 2}")
    store.flush()
    return store


_REPLAY = ReplayConfig(n_jobs=6, samples_per_tick=90, min_samples=540, seed=3)
_SERVE = ServeConfig(window=540, hop=90, vote_window=3)


def _trace(store, rate=1.0, drift=None):
    replayer = Replayer(store, ReplayConfig(
        n_jobs=_REPLAY.n_jobs, samples_per_tick=_REPLAY.samples_per_tick,
        min_samples=_REPLAY.min_samples, seed=_REPLAY.seed, rate=rate,
    ))
    report = replayer.run(MeanSignModel(), serve_config=_SERVE, drift=drift)
    return [
        (e.job_id, int(e.prediction.label), int(e.prediction.smoothed_label))
        for e in report.emissions
    ]


class TestReplayDeterminism:
    def test_identical_across_shard_counts_and_rates(self, tmp_path):
        traces = []
        for n_shards in (1, 3):
            store = _filled_store(tmp_path / f"s{n_shards}", n_shards=n_shards)
            for rate in (1.0, 4.0):
                traces.append(_trace(store, rate=rate))
            store.close()
        assert len(traces[0]) > 0
        for other in traces[1:]:
            assert other == traces[0]

    def test_identical_after_reopen(self, tmp_path):
        store = _filled_store(tmp_path / "s")
        fresh = _trace(store)
        store.close()
        with TelemetryStore(tmp_path / "s") as reopened:
            assert _trace(reopened) == fresh

    def test_rate_rescales_simulated_time_only(self, tmp_path):
        with _filled_store(tmp_path / "s") as store:
            replayer = Replayer(store, ReplayConfig(
                n_jobs=6, min_samples=540, samples_per_tick=90, rate=4.0))
            gen = replayer.loadgen()
            assert gen.tick_s == pytest.approx(90 * DEFAULT_DT_S / 4.0)
            report = replayer.run(MeanSignModel(), serve_config=_SERVE)
            base = Replayer(store, ReplayConfig(
                n_jobs=6, min_samples=540, samples_per_tick=90, rate=1.0,
            )).run(MeanSignModel(), serve_config=_SERVE)
            assert report.n_predictions == base.n_predictions
            assert report.sim_seconds == pytest.approx(base.sim_seconds / 4.0)

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError, match="rate"):
            ReplayConfig(rate=0.0)


class TestFromStoreLoadgen:
    def test_streams_are_zero_copy_float32(self, tmp_path):
        with _filled_store(tmp_path / "s") as store:
            gen = FleetLoadGenerator.from_store(store, n_jobs=6,
                                                min_samples=540, seed=0)
            assert gen.n_jobs == 6
            shared = 0
            for series in gen.series:
                assert series.dtype == np.float32
                shared += any(
                    np.shares_memory(series, store.series(job_id))
                    for job_id in range(6)
                )
            # keep_dtype=True means the archived mmap rows are streamed
            # directly — no per-job copy was taken.
            assert shared == len(gen.series)

    def test_short_trials_filtered(self, tmp_path):
        with TelemetryStore(tmp_path / "s") as store:
            store.append(0, np.zeros((700, 7), dtype=np.float32))
            store.append(1, np.zeros((100, 7), dtype=np.float32))
            store.flush()
            gen = FleetLoadGenerator.from_store(store, n_jobs=8,
                                                min_samples=540)
            # The short trial is dropped from the donor stream pool.
            assert len(gen.series) == 1

    def test_empty_store_rejected(self, tmp_path):
        with TelemetryStore(tmp_path / "s") as store:
            with pytest.raises(ValueError):
                FleetLoadGenerator.from_store(store)


class TestReplayWithDrift:
    def test_drift_perturbs_archived_streams(self, tmp_path):
        with _filled_store(tmp_path / "s") as store:
            # A large positive offset flips every negative-mean stream.
            drift = DriftInjection(start_sample=0, ramp_samples=1,
                                   offset=50.0, clip=False)
            clean = _trace(store)
            drifted = _trace(store, drift=drift)
            assert len(drifted) == len(clean)
            assert drifted != clean
            # The archive itself is untouched by the injection.
            assert _trace(store) == clean


class TestSimulateIntoStore:
    def test_generate_archives_bit_identical_series(self, tmp_path,
                                                    tiny_sim_config):
        from repro.simcluster.cluster import ClusterSimulator

        with TelemetryStore(tmp_path / "s", n_shards=4) as store:
            jobs, _ = ClusterSimulator(tiny_sim_config).generate(store=store)
            for job in jobs:
                for gs in job.gpu_series:
                    got = store.series(job.record.job_id, gs.gpu_index)
                    np.testing.assert_array_equal(
                        got, np.asarray(gs.data, dtype=np.float32)
                    )
            # Already sealed: the ingest flushed before generate returned.
            assert store.stats()["wal_resident_trials"] == 0
