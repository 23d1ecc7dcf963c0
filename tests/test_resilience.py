"""Unit tests for the resilience toolkit: fault points, retry, atomic
persistence + checksums, preemption sampling, and checkpoint basics."""

import ast
import pickle
import re
import zlib
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.resilience import (
    FAULT_POINTS,
    FaultInjector,
    FaultSpec,
    InjectedFault,
    RetryPolicy,
    inject,
    load_model_with_retry,
    retry_call,
)
from repro.simcluster.preemption import PreemptionEvent, PreemptionProcess
from repro.utils.persist import atomic_write_bytes, load_model, save_model


class TestFaultInjection:
    def test_unknown_point_rejected(self):
        with pytest.raises(ValueError, match="unknown fault point"):
            FaultSpec("nonsense.point")

    def test_bad_spec_params_rejected(self):
        with pytest.raises(ValueError, match="at_hit"):
            FaultSpec("persist.mid_write", at_hit=0)
        with pytest.raises(ValueError, match="mode"):
            FaultSpec("persist.mid_write", mode="explode")

    def test_raise_mode_fires_on_nth_hit(self):
        injector = FaultInjector(
            [FaultSpec("trainer.mid_epoch", at_hit=3, mode="raise")]
        )
        injector.trip("trainer.mid_epoch")
        injector.trip("trainer.mid_epoch")
        with pytest.raises(InjectedFault, match="hit 3"):
            injector.trip("trainer.mid_epoch")
        assert injector.hits["trainer.mid_epoch"] == 3
        # A fired spec does not fire twice.
        injector.trip("trainer.mid_epoch")

    def test_points_are_noops_without_injector(self, tmp_path):
        # No injector installed: a mid-write fault point does nothing.
        path = atomic_write_bytes(tmp_path / "f.bin", b"hello world")
        assert path.read_bytes() == b"hello world"

    def test_inject_context_uninstalls(self, tmp_path):
        with inject(FaultSpec("persist.mid_write", mode="raise")):
            with pytest.raises(InjectedFault):
                atomic_write_bytes(tmp_path / "f.bin", b"payload")
        # Context exited: writes work again.
        atomic_write_bytes(tmp_path / "f.bin", b"payload")
        assert (tmp_path / "f.bin").read_bytes() == b"payload"


class TestFaultRegistry:
    def test_registry_equals_call_sites(self):
        # Every fault_point("...") call in the package names a registered
        # point, and every registered point has a call site.
        called, dynamic = set(), []
        for path in Path(repro.__file__).parent.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not (isinstance(node, ast.Call)
                        and getattr(node.func, "id", None) == "fault_point"):
                    continue
                arg = node.args[0] if node.args else None
                if isinstance(arg, ast.Constant) and type(arg.value) is str:
                    called.add(arg.value)
                else:
                    dynamic.append(f"{path}:{node.lineno}")
        assert dynamic == []
        assert called == FAULT_POINTS

    def test_docstring_table_lists_the_registry(self):
        from repro.resilience import faults

        table = set(re.findall(r"^``([a-z_.]+)``\s", faults.__doc__, re.M))
        assert table == FAULT_POINTS


class TestAtomicWrite:
    def test_overwrites_atomically(self, tmp_path):
        target = tmp_path / "data.bin"
        atomic_write_bytes(target, b"old-contents")
        with inject(FaultSpec("persist.mid_write", mode="raise")):
            with pytest.raises(InjectedFault):
                atomic_write_bytes(target, b"new-contents")
        # Old contents intact, no tmp litter left by the raise path.
        assert target.read_bytes() == b"old-contents"
        assert list(tmp_path.glob("*.tmp")) == []

    def test_crash_before_replace_keeps_old_file(self, tmp_path):
        target = tmp_path / "data.bin"
        atomic_write_bytes(target, b"old-contents")
        with inject(FaultSpec("persist.before_replace", mode="raise")):
            with pytest.raises(InjectedFault):
                atomic_write_bytes(target, b"new-contents")
        assert target.read_bytes() == b"old-contents"

    def test_creates_parent_dirs(self, tmp_path):
        path = atomic_write_bytes(tmp_path / "a" / "b" / "f.bin", b"x")
        assert path.read_bytes() == b"x"


class TestChecksum:
    def test_round_trip_with_checksum(self, tmp_path):
        from repro.ml.preprocessing import StandardScaler

        path = save_model(StandardScaler(), tmp_path / "m.pkl")
        payload = pickle.loads(path.read_bytes())
        assert payload["crc32"] == zlib.crc32(payload["model_pickle"])
        assert type(load_model(path)).__name__ == "StandardScaler"

    def test_bit_flip_detected(self, tmp_path):
        from repro.ml.preprocessing import StandardScaler

        path = save_model(StandardScaler(), tmp_path / "m.pkl")
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError):
            load_model(path)

    def test_checksum_optional(self, tmp_path):
        from repro.ml.preprocessing import StandardScaler

        path = save_model(StandardScaler(), tmp_path / "m.pkl", checksum=False)
        payload = pickle.loads(path.read_bytes())
        assert payload["crc32"] is None
        load_model(path)  # loads fine, simply unverified

    def test_legacy_inline_model_still_loads(self, tmp_path):
        # Files from pre-checksum releases carried the model object inline.
        import repro
        from repro.ml.preprocessing import StandardScaler

        legacy = {
            "magic": "repro-model-v1",
            "repro_version": repro.__version__,
            "model_class": "StandardScaler",
            "model": StandardScaler(),
        }
        path = tmp_path / "legacy.pkl"
        path.write_bytes(pickle.dumps(legacy))
        assert type(load_model(path)).__name__ == "StandardScaler"


class TestRetry:
    def test_policy_delays_are_bounded_exponential(self):
        policy = RetryPolicy(attempts=5, base_delay_s=0.1, growth=2.0,
                             max_delay_s=0.3)
        assert [policy.delay(k) for k in range(4)] == [0.1, 0.2, 0.3, 0.3]

    def test_retries_then_succeeds(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise OSError("transient")
            return "done"

        slept = []
        out = retry_call(flaky, policy=RetryPolicy(attempts=4, base_delay_s=0.01),
                         sleep=slept.append)
        assert out == "done"
        assert len(calls) == 3
        assert slept == [0.01, 0.02]

    def test_exhausted_attempts_reraise(self):
        def always_fails():
            raise ValueError("still broken")

        with pytest.raises(ValueError, match="still broken"):
            retry_call(always_fails, policy=RetryPolicy(attempts=3),
                       sleep=lambda _s: None)

    def test_unlisted_exception_not_retried(self):
        calls = []

        def boom():
            calls.append(1)
            raise KeyError("not transient")

        with pytest.raises(KeyError):
            retry_call(boom, sleep=lambda _s: None)
        assert len(calls) == 1

    def test_load_model_with_retry_waits_for_writer(self, tmp_path):
        from repro.ml.preprocessing import StandardScaler

        path = tmp_path / "late.pkl"

        def write_then_sleep(_delay):
            # The "writer" finishes during the reader's backoff.
            save_model(StandardScaler(), path)

        model = load_model_with_retry(
            path, policy=RetryPolicy(attempts=3, base_delay_s=0.0),
            sleep=write_then_sleep,
        )
        assert type(model).__name__ == "StandardScaler"


class TestPreemptionProcess:
    def test_events_deterministic_and_sorted(self):
        a = PreemptionProcess(100.0, seed=7, job="j").events(1000.0)
        b = PreemptionProcess(100.0, seed=7, job="j").events(1000.0)
        assert a == b
        assert all(x.time_s <= y.time_s for x, y in zip(a, a[1:]))
        assert all(0 <= e.time_s < 1000.0 for e in a)

    def test_different_jobs_get_different_schedules(self):
        a = PreemptionProcess(100.0, seed=7, job="j1").events(5000.0)
        b = PreemptionProcess(100.0, seed=7, job="j2").events(5000.0)
        assert a != b

    def test_mtbf_scales_event_count(self):
        frequent = PreemptionProcess(50.0, seed=3).events(50_000.0)
        rare = PreemptionProcess(5000.0, seed=3).events(50_000.0)
        assert len(frequent) > len(rare)
        # Poisson mean ~ horizon / mtbf.
        assert len(frequent) == pytest.approx(1000, rel=0.2)

    def test_kill_epochs_deduped_and_in_range(self):
        process = PreemptionProcess(1.5, seed=0)
        epochs = process.kill_epochs(10, epoch_s=1.0)
        assert epochs == sorted(set(epochs))
        assert all(1 <= e <= 10 for e in epochs)

    def test_validation(self):
        with pytest.raises(ValueError, match="mtbf_s"):
            PreemptionProcess(0.0)
        with pytest.raises(ValueError, match="time_s"):
            PreemptionEvent(-1.0)
        with pytest.raises(ValueError, match="kind"):
            PreemptionEvent(1.0, kind="meteor")


class TestHistoryRegressions:
    def test_empty_history_sentinels_consistent(self):
        # best_epoch used to raise ValueError from max() while
        # best_val_accuracy returned NaN on the same empty history.
        from repro.nn.training import TrainingHistory

        history = TrainingHistory()
        assert np.isnan(history.best_val_accuracy)
        assert history.best_epoch == 0

    def test_nonempty_history_best_pair(self):
        from repro.nn.training import EpochStats, TrainingHistory

        history = TrainingHistory()
        for epoch, acc in [(1, 0.2), (2, 0.9), (3, 0.5)]:
            history.append(EpochStats(epoch, 1.0, acc, 0.01, 0.0))
        assert history.best_epoch == 2
        assert history.best_val_accuracy == 0.9

    def test_matches_ignores_timing_only(self):
        from repro.nn.training import EpochStats, TrainingHistory

        a = TrainingHistory([EpochStats(1, 0.5, 0.8, 0.01, 1.0)])
        b = TrainingHistory([EpochStats(1, 0.5, 0.8, 0.01, 99.0)])
        c = TrainingHistory([EpochStats(1, 0.5, 0.80001, 0.01, 1.0)])
        assert a.matches(b)
        assert not a.matches(b, ignore_timing=False)
        assert not a.matches(c)
        assert not a.matches(TrainingHistory())


class TestGridSearchParity:
    def test_zero_or_negative_jobs_raise(self, blobs_split):
        from repro.ml.model_selection import GridSearchCV, cross_val_score
        from repro.ml.tree import DecisionTreeClassifier

        Xtr, ytr, _, _ = blobs_split
        est = DecisionTreeClassifier(max_depth=3, random_state=0)
        for n_jobs in (0, -5):
            with pytest.raises(ValueError, match="n_jobs"):
                cross_val_score(est, Xtr, ytr, cv=3, n_jobs=n_jobs)
            with pytest.raises(ValueError, match="n_jobs"):
                GridSearchCV(est, {"max_depth": [2]}, cv=2,
                             n_jobs=n_jobs).fit(Xtr, ytr)

    def test_all_cores_returns_serial_scores(self, blobs_split):
        from repro.ml.model_selection import GridSearchCV, cross_val_score
        from repro.ml.tree import DecisionTreeClassifier

        Xtr, ytr, _, _ = blobs_split
        est = DecisionTreeClassifier(max_depth=3, random_state=0)
        np.testing.assert_array_equal(
            cross_val_score(est, Xtr, ytr, cv=3),
            cross_val_score(est, Xtr, ytr, cv=3, n_jobs=-1))
        grid = {"max_depth": [2, 3]}
        serial = GridSearchCV(est, grid, cv=2).fit(Xtr, ytr)
        every = GridSearchCV(est, grid, cv=2, n_jobs=-1).fit(Xtr, ytr)
        np.testing.assert_array_equal(serial.cv_results_["fold_scores"],
                                      every.cv_results_["fold_scores"])

    def test_cross_val_score_n_jobs_matches_serial(self, blobs_split):
        from repro.ml.model_selection import cross_val_score
        from repro.ml.tree import DecisionTreeClassifier

        Xtr, ytr, _, _ = blobs_split
        est = DecisionTreeClassifier(max_depth=3, random_state=0)
        serial = cross_val_score(est, Xtr, ytr, cv=3)
        fanned = cross_val_score(est, Xtr, ytr, cv=3, n_jobs=2)
        np.testing.assert_array_equal(serial, fanned)

    def test_grid_search_verbose_on_parallel_path(self, blobs_split, capsys):
        from repro.ml.model_selection import GridSearchCV
        from repro.ml.tree import DecisionTreeClassifier

        Xtr, ytr, _, _ = blobs_split
        search = GridSearchCV(
            DecisionTreeClassifier(random_state=0),
            {"max_depth": [2, 3]},
            cv=2, n_jobs=2, verbose=True,
        )
        search.fit(Xtr, ytr)
        out = capsys.readouterr().out
        # One progress line per candidate x fold, like the serial path.
        assert out.count("[grid]") == 4
        assert "max_depth" in out
