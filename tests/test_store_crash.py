"""Crash-safety tests for repro.store: in-process injected faults at every
store.* fault point, real SIGKILLed writer subprocesses, and a hypothesis
round-trip property over the WAL → segment → mmap read path."""

import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.resilience import FaultInjector, FaultSpec, InjectedFault, inject, install
from repro.resilience.bench import _run_to_sigkill
from repro.store import TelemetryStore


def _series(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, 7)).astype(np.float32)


def _committed_trials():
    """The two trials the crash workers durably commit before dying."""
    rng = np.random.default_rng(7)
    return [
        (0, rng.normal(size=(600, 7)).astype(np.float32)),
        (1, rng.normal(size=(480, 7)).astype(np.float32)),
    ]


def _victim_trial():
    """The trial whose durability op the injected fault interrupts."""
    rng = np.random.default_rng(11)
    return 2, rng.normal(size=(540, 7)).astype(np.float32)


def _crash_store_worker(payload):
    """Sacrificial child: commit two trials, then die at a fault point.

    ``store.wal.append`` fires during the third trial's commit;
    ``store.segment.finalize`` / ``store.manifest.swap`` fire during the
    flush that tries to seal all three.  Module-level so the spawned
    child can unpickle it.
    """
    install(FaultInjector([
        FaultSpec(payload["point"], at_hit=payload["at_hit"], mode="kill")
    ]))
    store = TelemetryStore(payload["root"], n_shards=payload["n_shards"])
    for job_id, series in _committed_trials():
        store.append(job_id, series, label=job_id, model_name=f"m{job_id}")
    store.commit()
    job_id, series = _victim_trial()
    store.append(job_id, series, label=job_id, model_name=f"m{job_id}")
    if payload["point"] == "store.wal.append":
        store.commit()
    else:
        store.flush()
    raise SystemExit("worker was supposed to die before finishing")


class TestInProcessFaults:
    """mode="raise" faults: the writer survives, state stays consistent."""

    def test_commit_is_retryable_after_wal_fault(self, tmp_path):
        store = TelemetryStore(tmp_path / "s", n_shards=1)
        store.append(0, _series(300, seed=0), label=0, model_name="m0")
        store.append(1, _series(280, seed=1), label=1, model_name="m1")
        with inject(FaultSpec("store.wal.append", at_hit=1, mode="raise")):
            with pytest.raises(InjectedFault):
                store.commit()
        # Nothing durable yet, but nothing lost either: both records are
        # still staged and the same commit can simply be retried.
        assert store._wals[0].n_staged == 2
        assert store.commit() == 2
        store.close()
        with TelemetryStore(tmp_path / "s", n_shards=1) as reopened:
            assert reopened.keys() == [(0, 0), (1, 0)]
            np.testing.assert_array_equal(
                reopened.series(0), _series(300, seed=0)
            )

    def test_flush_fault_at_segment_finalize_keeps_wal(self, tmp_path):
        store = TelemetryStore(tmp_path / "s", n_shards=1)
        store.append(0, _series(300, seed=0), label=0, model_name="m0")
        with inject(FaultSpec("store.segment.finalize", at_hit=1, mode="raise")):
            with pytest.raises(InjectedFault):
                store.flush()
        # The flush group-committed the row to the WAL before sealing, so
        # a fresh recovery serves it even though no segment landed.
        with TelemetryStore(tmp_path / "s", n_shards=1) as reopened:
            assert reopened.keys() == [(0, 0)]
            np.testing.assert_array_equal(
                reopened.series(0), _series(300, seed=0)
            )
            assert reopened._catalog == {}  # served from WAL, not a segment

    def test_flush_fault_at_manifest_swap_leaves_no_torn_state(self, tmp_path):
        store = TelemetryStore(tmp_path / "s", n_shards=2)
        for job_id in range(3):
            store.append(job_id, _series(260 + job_id, seed=job_id),
                         label=job_id, model_name=f"m{job_id}")
        with inject(FaultSpec("store.manifest.swap", at_hit=1, mode="raise")):
            with pytest.raises(InjectedFault):
                store.flush()
        # Segments were sealed but never referenced: recovery ignores
        # them, serves everything from the WALs, and gc reclaims them.
        with TelemetryStore(tmp_path / "s", n_shards=2) as reopened:
            assert reopened.keys() == [(0, 0), (1, 0), (2, 0)]
            assert reopened._catalog == {}
            stray = reopened.gc_stray()
            assert len(stray) > 0
            for job_id in range(3):
                np.testing.assert_array_equal(
                    reopened.series(job_id), _series(260 + job_id, seed=job_id)
                )


# wal.append hits once per record per commit: the workers durably commit
# two trials first, so hit 3 lands mid-frame in the victim's commit.
# Kills during the flush sequence lose nothing — the flush group-commits
# the victim to the WAL before sealing, and the WAL survives until the
# manifest swap lands.
_SIGKILL_SCENARIOS = [
    ("store.wal.append", 3, False),
    ("store.segment.finalize", 1, True),
    ("store.manifest.swap", 1, True),
]


class TestSigkilledWriter:
    """Real SIGKILLed subprocesses at each store.* durability point."""

    @pytest.mark.parametrize("point,at_hit,victim_survives", _SIGKILL_SCENARIOS)
    def test_reopen_serves_committed_prefix(self, tmp_path, point, at_hit,
                                            victim_survives):
        survivors = list(_committed_trials())
        if victim_survives:
            survivors.append(_victim_trial())
        root = tmp_path / "s"
        killed = _run_to_sigkill(_crash_store_worker, {
            "root": str(root), "point": point, "at_hit": at_hit,
            "n_shards": 2,
        })
        assert killed, f"worker survived fault at {point}"
        with TelemetryStore(root, n_shards=2) as store:
            assert store.keys() == [(j, 0) for j, _ in survivors]
            for job_id, series in survivors:
                np.testing.assert_array_equal(store.series(job_id), series)
            store.verify()
            store.gc_stray()
            for job_id, series in survivors:
                np.testing.assert_array_equal(store.series(job_id), series)


class TestRoundTripProperty:
    """Hypothesis: any batch of trials survives append → flush → reopen."""

    @given(
        lengths=st.lists(st.integers(min_value=1, max_value=60),
                         min_size=1, max_size=5),
        n_shards=st.integers(min_value=1, max_value=4),
        data_seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=15, deadline=None)
    def test_mmap_read_bit_identity(self, lengths, n_shards, data_seed):
        rng = np.random.default_rng(data_seed)
        trials = {
            job_id: rng.normal(size=(n, 7)).astype(np.float32)
            for job_id, n in enumerate(lengths)
        }
        with tempfile.TemporaryDirectory() as tmp:
            with TelemetryStore(tmp, n_shards=n_shards) as store:
                for job_id, series in trials.items():
                    store.append(job_id, series, label=job_id % 3,
                                 model_name=f"m{job_id % 3}")
                store.flush()
            with TelemetryStore(tmp) as store:
                assert store.n_shards == n_shards
                assert store.keys() == [(j, 0) for j in sorted(trials)]
                for job_id, series in trials.items():
                    got = store.series(job_id)
                    assert got.dtype == np.float32
                    np.testing.assert_array_equal(got, series)
                store.verify()
