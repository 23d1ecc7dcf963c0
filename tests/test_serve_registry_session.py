"""Serving subsystem tests: model registry and streaming sessions."""

import numpy as np
import pytest

from repro.core.streaming import OnlineWorkloadClassifier
from repro.serve import ModelRegistry, StreamSession


class _ConstantModel:
    """Thresholds the mean of sensor 0 — cheap, deterministic, picklable."""

    def predict(self, X):
        X = np.asarray(X)
        return (X[:, :, 0].mean(axis=1) > 0).astype(np.int64)


def _samples(n, level=1.0, seed=0):
    rng = np.random.default_rng(seed)
    out = rng.normal(0, 0.1, size=(n, 7))
    out[:, 0] += level
    return out


class TestModelRegistry:
    def test_round_trip_fitted_rf_cov(self, challenge_suite_tiny, tmp_path):
        from repro.models import make_rf_cov

        ds = challenge_suite_tiny["60-random-1"]
        pipe = make_rf_cov(n_estimators=5, random_state=0)
        pipe.fit(ds.X_train, ds.y_train)
        registry = ModelRegistry(tmp_path / "registry")
        version = registry.register("rf_cov", pipe)
        assert version == 1
        loaded = registry.get("rf_cov")
        np.testing.assert_array_equal(
            loaded.predict(ds.X_test), pipe.predict(ds.X_test))

    def test_versions_auto_increment(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        assert registry.register("m", _ConstantModel()) == 1
        assert registry.register("m", _ConstantModel()) == 2
        assert registry.register("m", _ConstantModel(), version=7) == 7
        assert registry.versions("m") == [1, 2, 7]
        assert registry.latest_version("m") == 7
        assert registry.names() == ["m"]
        assert "m" in registry and "ghost" not in registry

    def test_get_specific_and_unknown(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        registry.register("m", _ConstantModel())
        assert registry.get("m", version=1) is not None
        with pytest.raises(KeyError, match="version 9"):
            registry.get("m", version=9)
        with pytest.raises(KeyError, match="ghost"):
            registry.get("ghost")

    def test_warm_lru_eviction(self, tmp_path):
        registry = ModelRegistry(tmp_path, warm_capacity=2)
        for name in ("a", "b", "c"):
            registry.register(name, _ConstantModel())
        registry.get("a")
        registry.get("b")
        assert registry.warm_count == 2
        registry.get("a")              # refresh a; b is now LRU
        registry.get("c")              # evicts b
        assert registry.warm_count == 2
        misses = registry.misses
        registry.get("a")              # still warm
        assert registry.misses == misses
        registry.get("b")              # cold again
        assert registry.misses == misses + 1

    def test_warm_hit_skips_disk(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        registry.register("m", _ConstantModel())
        first = registry.get("m")
        assert registry.get("m") is first
        assert registry.hits == 1 and registry.misses == 1

    def test_reregister_invalidates_warm_copy(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        registry.register("m", _ConstantModel(), version=1)
        old = registry.get("m")
        registry.register("m", _ConstantModel(), version=1)
        assert registry.get("m") is not old

    def test_rejects_bad_names(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        for bad in ("", "a/b", "../up", "a b"):
            with pytest.raises(ValueError, match="model name"):
                registry.register(bad, _ConstantModel())


class TestStreamSession:
    def _run_session(self, data, chunk, model, **kwargs):
        session = StreamSession("job", **kwargs)
        preds = []
        for i in range(0, data.shape[0], chunk):
            for req in session.push(data[i: i + chunk]):
                label = int(np.asarray(model.predict(req.window[None]))[0])
                preds.append(session.complete(req, label))
        return preds

    @pytest.mark.parametrize("chunk", [1, 7, 30, 200])
    def test_matches_online_classifier_exactly(self, chunk):
        """Serial push/complete reproduces OnlineWorkloadClassifier's
        emissions bit for bit — the semantics contract of the subsystem."""
        model = _ConstantModel()
        rng = np.random.default_rng(5)
        data = rng.normal(0, 1.0, size=(500, 7))
        online = OnlineWorkloadClassifier(
            model=model, window=60, hop=20, vote_window=3)
        expected = []
        for i in range(0, data.shape[0], chunk):
            expected.extend(online.push(data[i: i + chunk]))
        got = self._run_session(data, chunk, model,
                                window=60, hop=20, vote_window=3)
        assert got == expected

    def test_no_request_before_full_window(self):
        session = StreamSession("j", window=30, hop=10)
        assert session.push(_samples(29)) == []
        assert not session.ready

    def test_request_cadence_and_seq(self):
        session = StreamSession("j", window=30, hop=10, vote_window=3)
        reqs = session.push(_samples(55))
        # Full at 30, then hops at 40 and 50 -> 3 requests.
        assert [r.seq for r in reqs] == [0, 1, 2]
        assert [r.sample_index for r in reqs] == [30, 40, 50]
        assert session.pending == 3
        assert all(r.window.shape == (30, 7) for r in reqs)

    def test_window_snapshots_are_independent(self):
        session = StreamSession("j", window=10, hop=5)
        (first,) = session.push(_samples(10, level=1.0))
        (second,) = session.push(_samples(5, level=-1.0, seed=1))
        assert not np.array_equal(first.window, second.window)
        assert first.window[:, 0].mean() > 0.5       # unaffected by later rows

    def test_complete_updates_vote(self):
        session = StreamSession("j", window=10, hop=5, vote_window=3)
        reqs = session.push(_samples(20))
        assert len(reqs) == 3 and session.pending == 3
        p1 = session.complete(reqs[0], 4)
        assert (p1.label, p1.smoothed_label, p1.confidence) == (4, 4, 1.0)
        p2 = session.complete(reqs[1], 2)
        assert p2.smoothed_label in (2, 4) and p2.confidence == 0.5
        assert session.pending == 1

    def test_complete_guards(self):
        session = StreamSession("j", window=10, hop=5)
        (req,) = session.push(_samples(10))
        other = StreamSession("other", window=10, hop=5)
        other.push(_samples(10))
        with pytest.raises(ValueError, match="session"):
            other.complete(req, 0)
        session.complete(req, 0)
        with pytest.raises(RuntimeError, match="pending"):
            session.complete(req, 0)

    def test_reset_clears_state(self):
        session = StreamSession("j", window=10, hop=5)
        session.push(_samples(12))
        session.reset()
        assert not session.ready
        assert session.pending == 0
        assert session.n_seen == 0
        assert session.push(_samples(9)) == []

    def test_sensor_count_validated(self):
        session = StreamSession("j", window=10)
        with pytest.raises(ValueError, match="sensors"):
            session.push(np.zeros((3, 5)))

    def test_empty_chunk_sensor_count_validated(self):
        with pytest.raises(ValueError, match="sensors"):
            StreamSession("j").push(np.zeros((0, 5)))

    def test_empty_push_is_noop(self):
        session = StreamSession("j", window=10)
        assert session.push(np.empty((0, 7))) == []
        assert session.n_seen == 0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError, match=">= 1"):
            StreamSession("j", window=0)
        with pytest.raises(ValueError, match=">= 1"):
            StreamSession("j", hop=0)


class TestRegistryLatestMemoAndActivePointer:
    def test_latest_version_memoized_no_rescan(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        registry.register("m", _ConstantModel())
        assert registry.latest_version("m") == 1    # scan populates memo
        # An external writer drops a new version behind the registry's
        # back: the memo intentionally keeps answering 1 until invalidated.
        (tmp_path / "m" / "v9.pkl").write_bytes(
            (tmp_path / "m" / "v1.pkl").read_bytes())
        assert registry.latest_version("m") == 1
        registry.invalidate("m")
        assert registry.latest_version("m") == 9
        registry.invalidate()                       # all-names form
        assert registry.latest_version("m") == 9

    def test_register_keeps_memo_coherent(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        registry.register("m", _ConstantModel())
        assert registry.latest_version("m") == 1
        registry.register("m", _ConstantModel())    # memo bumps, no rescan
        assert registry.latest_version("m") == 2
        registry.register("m", _ConstantModel(), version=7)
        assert registry.latest_version("m") == 7
        registry.register("m", _ConstantModel(), version=3)  # backfill
        assert registry.latest_version("m") == 7    # memo never regresses

    def test_latest_version_unknown_name(self, tmp_path):
        with pytest.raises(KeyError, match="ghost"):
            ModelRegistry(tmp_path).latest_version("ghost")

    def test_active_pointer_flip_and_fallback(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        registry.register("m", _ConstantModel())
        registry.register("m", _ConstantModel())
        assert registry.active_version("m") == 2    # latest when unset
        registry.set_active("m", 1)
        assert registry.active_version("m") == 1
        assert registry.get_active("m") is registry.get("m", version=1)
        with pytest.raises(KeyError, match="version 5"):
            registry.set_active("m", 5)
        # Stale pointer (active version's pickle deleted) falls back.
        (tmp_path / "m" / "v1.pkl").unlink()
        registry.invalidate("m")
        assert registry.active_version("m") == 2


class TestOnlineClassifierMonitorHook:
    def test_monitor_sees_every_row(self):
        class _Recorder:
            """Counts rows forwarded by the classifier."""

            def __init__(self):
                self.rows = []

            def update_many(self, rows):
                self.rows.extend(np.array(rows))

        recorder = _Recorder()
        clf = OnlineWorkloadClassifier(
            model=_ConstantModel(), window=10, hop=5, monitor=recorder)
        stream = _samples(23, 1.0, seed=3)
        clf.push(stream)
        assert len(recorder.rows) == 23
        np.testing.assert_array_equal(np.stack(recorder.rows), stream)

    def test_monitor_without_update_rejected(self):
        with pytest.raises(TypeError, match="update"):
            OnlineWorkloadClassifier(model=_ConstantModel(), monitor=object())
