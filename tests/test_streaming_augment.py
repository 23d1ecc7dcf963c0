"""Tests for the online classifier and the augmentation/resampling tools."""

import numpy as np
import pytest

from repro.core.streaming import OnlineWorkloadClassifier, StreamPrediction
from repro.data.augment import (
    jitter_augment,
    multi_window_resample,
    oversample_minority,
)


class _ConstantModel:
    """Predicts the mean of sensor 0, thresholded — order-able and cheap."""

    def predict(self, X):
        X = np.asarray(X)
        return (X[:, :, 0].mean(axis=1) > 0).astype(np.int64)


class TestOnlineClassifier:
    def _stream(self, window=30, hop=10, vote=3):
        return OnlineWorkloadClassifier(
            model=_ConstantModel(), window=window, hop=hop, vote_window=vote
        )

    def _samples(self, n, level=1.0, seed=0):
        rng = np.random.default_rng(seed)
        out = rng.normal(0, 0.1, size=(n, 7))
        out[:, 0] += level
        return out

    def test_no_emission_before_full_window(self):
        clf = self._stream(window=30)
        preds = clf.push(self._samples(29))
        assert preds == []
        assert not clf.ready

    def test_first_emission_at_full_window(self):
        clf = self._stream(window=30)
        preds = clf.push(self._samples(30))
        assert len(preds) == 1
        assert isinstance(preds[0], StreamPrediction)
        assert preds[0].sample_index == 30
        assert clf.ready

    def test_hop_cadence(self):
        clf = self._stream(window=30, hop=10)
        clf.push(self._samples(30))
        preds = clf.push(self._samples(25, seed=1))
        # 25 more samples at hop 10 -> 2 further emissions.
        assert len(preds) == 2

    def test_majority_smoothing(self):
        clf = self._stream(window=30, hop=10, vote=5)
        clf.push(self._samples(30, level=1.0))
        # Flip the signal: raw label flips quickly, smoothed label lags.
        preds = clf.push(self._samples(20, level=-1.0, seed=2))
        assert preds[-1].label == 0
        # The vote window still holds early 1-votes.
        assert preds[0].smoothed_label == 1

    def test_confidence_bounds(self):
        clf = self._stream()
        clf.push(self._samples(60))
        preds = clf.push(self._samples(30, seed=3))
        for p in preds:
            assert 0.0 < p.confidence <= 1.0

    def test_reset(self):
        clf = self._stream(window=30)
        clf.push(self._samples(35))
        clf.reset()
        assert not clf.ready
        assert clf.push(self._samples(29)) == []

    def test_sensor_count_validated(self):
        clf = self._stream()
        with pytest.raises(ValueError, match="sensors"):
            clf.push(np.zeros((5, 3)))

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            OnlineWorkloadClassifier(model=_ConstantModel(), window=0)
        with pytest.raises(TypeError):
            OnlineWorkloadClassifier(model=object())

    def test_bulk_push_matches_row_at_a_time(self):
        """One 2-D block push emits exactly what per-row pushes emit —
        the invariant behind the segment-sized fast path."""
        patterns = [
            [2000],                       # one huge block
            [90] * 20 + [17],             # tick-sized blocks + remainder
            [1, 2, 3, 5, 8, 13] * 40,     # ragged small blocks
            [540, 1, 539, 90, 830],       # window-straddling blocks
        ]
        for blocks in patterns:
            rng = np.random.default_rng(5)
            stream = rng.normal(0, 1.0, size=(sum(blocks), 7))
            bulk = self._stream(window=540, hop=90, vote=5)
            rowwise = self._stream(window=540, hop=90, vote=5)
            got, want = [], []
            pos = 0
            for n in blocks:
                chunk = stream[pos:pos + n]
                pos += n
                got.extend(bulk.push(chunk))
                for row in chunk:
                    want.extend(rowwise.push(row[None, :]))
            assert len(want) > 0
            assert [
                (p.sample_index, p.label, p.smoothed_label, p.confidence)
                for p in got
            ] == [
                (p.sample_index, p.label, p.smoothed_label, p.confidence)
                for p in want
            ], f"bulk push diverged for block pattern {blocks[:8]}..."

    def test_bulk_push_monitor_sees_every_row(self):
        """The bulk fast path must not skip per-row monitor taps."""
        class _Tap:
            def __init__(self):
                self.rows = []

            def update_many(self, rows):
                self.rows.extend(np.array(rows))

        tap = _Tap()
        seen = tap.rows
        clf = OnlineWorkloadClassifier(
            model=_ConstantModel(), window=30, hop=10, monitor=tap,
        )
        rng = np.random.default_rng(6)
        stream = rng.normal(size=(95, 7))
        clf.push(stream)
        assert len(seen) == 95
        np.testing.assert_array_equal(np.vstack(seen), stream)

    def test_end_to_end_with_real_pipeline(self, challenge_suite_tiny):
        """A fitted RF pipeline classifying a simulated live stream."""
        from repro.models import make_rf_cov

        ds = challenge_suite_tiny["60-middle-1"]
        model = make_rf_cov(n_estimators=15).fit(ds.X_train, ds.y_train)
        clf = OnlineWorkloadClassifier(model=model, window=540, hop=270)
        trial = ds.X_test[0].astype(np.float64)
        preds = clf.push(trial)
        assert len(preds) >= 1
        assert 0 <= preds[-1].smoothed_label < 26

    def test_real_pipeline_matches_one_session_server(
            self, challenge_suite_tiny, labelled_tiny):
        """A fitted RF-cov pipeline sees the same float32 windows through
        the classifier as through a one-session InferenceServer, so every
        emission matches; a constant model could not see the dtype."""
        from repro.models import make_rf_cov
        from repro.serve import InferenceServer, ServeConfig, SimulatedClock

        ds = challenge_suite_tiny["60-random-1"]
        model = make_rf_cov(n_estimators=5).fit(ds.X_train, ds.y_train)
        kwargs = dict(window=540, hop=90, vote_window=5)
        n_emitted = 0
        for trial in labelled_tiny.eligible(540).trials[:4]:
            series = trial.series
            chunks = [series[i:i + 90] for i in range(0, len(series), 90)]
            online = OnlineWorkloadClassifier(model=model, **kwargs)
            want = [p for chunk in chunks for p in online.push(chunk)]
            server = InferenceServer(model, ServeConfig(max_batch=1, **kwargs),
                                     clock=SimulatedClock())
            emissions = []
            for chunk in chunks:
                server.submit(trial.job_id, chunk)
                emissions.extend(server.step())
            emissions.extend(server.drain())
            assert [e.prediction for e in emissions] == want
            n_emitted += len(want)
        assert n_emitted > 0

    def test_empty_chunk_sensor_count_validated(self):
        with pytest.raises(ValueError, match="sensors"):
            self._stream().push(np.zeros((0, 5)))

    def test_failed_predict_leaves_no_window_pending(self):
        """A window whose predict raised, and the push's later windows,
        are dropped: nothing stays pending, and the next window is cut as
        if they had never been requested."""

        class _FailingModel(_ConstantModel):
            def __init__(self, fail_calls):
                self.fail_calls, self.n_calls = set(fail_calls), 0

            def predict(self, X):
                self.n_calls += 1
                if self.n_calls in self.fail_calls:
                    raise RuntimeError("predict failed")
                return super().predict(X)

        clf = OnlineWorkloadClassifier(model=_FailingModel({2}), window=30,
                                       hop=10, vote_window=3)
        with pytest.raises(RuntimeError, match="predict failed"):
            clf.push(self._samples(50))       # windows at 30, 40 (raises), 50
        assert clf._session.pending == 0
        preds = clf.push(self._samples(10, seed=1))
        assert [p.sample_index for p in preds] == [60]
        assert preds[0].confidence == 1.0     # votes: windows 30 and 60 only

        clf = OnlineWorkloadClassifier(model=_FailingModel({1}), window=30,
                                       hop=10, vote_window=3)
        with pytest.raises(RuntimeError, match="predict failed"):
            clf.push(self._samples(30))
        assert clf._session.pending == 0
        assert [p.sample_index for p in clf.push(self._samples(1))] == [31]


class TestMultiWindowResample:
    def test_shapes_and_labels(self, labelled_tiny):
        eligible = labelled_tiny.eligible(540)
        idx = np.arange(min(6, len(eligible)))
        X, y = multi_window_resample(eligible, idx, windows_per_trial=3,
                                     rng=0)
        assert X.shape == (idx.size * 3, 540, 7)
        np.testing.assert_array_equal(
            y, np.repeat(eligible.labels()[idx], 3))

    def test_windows_differ_within_trial(self, labelled_tiny):
        eligible = labelled_tiny.eligible(540)
        X, _ = multi_window_resample(eligible, np.array([0]),
                                     windows_per_trial=4, rng=1)
        assert not np.allclose(X[0], X[1])

    def test_deterministic(self, labelled_tiny):
        eligible = labelled_tiny.eligible(540)
        idx = np.arange(3)
        X1, _ = multi_window_resample(eligible, idx, rng=7)
        X2, _ = multi_window_resample(eligible, idx, rng=7)
        np.testing.assert_array_equal(X1, X2)

    def test_invalid_count(self, labelled_tiny):
        with pytest.raises(ValueError):
            multi_window_resample(labelled_tiny.eligible(540),
                                  np.array([0]), windows_per_trial=0)


class TestJitterAugment:
    def test_output_size(self):
        X = np.random.default_rng(0).normal(size=(4, 20, 7)).astype(np.float32)
        y = np.arange(4)
        Xa, ya = jitter_augment(X, y, copies=2, rng=0)
        assert Xa.shape == (12, 20, 7)
        np.testing.assert_array_equal(ya, np.concatenate([y, y, y]))

    def test_originals_preserved(self):
        X = np.random.default_rng(1).normal(size=(3, 10, 7)).astype(np.float32)
        y = np.arange(3)
        Xa, _ = jitter_augment(X, y, copies=1, rng=0)
        np.testing.assert_array_equal(Xa[:3], X)

    def test_copies_perturbed(self):
        X = np.random.default_rng(2).normal(size=(3, 10, 7)).astype(np.float32)
        Xa, _ = jitter_augment(X, np.arange(3), copies=1, noise_std=0.1, rng=0)
        assert not np.allclose(Xa[3:], X)

    def test_zero_copies_identity(self):
        X = np.ones((2, 5, 7), dtype=np.float32)
        Xa, ya = jitter_augment(X, np.arange(2), copies=0)
        assert Xa.shape == X.shape


class TestOversample:
    def test_balances_classes(self):
        X = np.random.default_rng(0).normal(size=(30, 4))
        y = np.array([0] * 25 + [1] * 5)
        Xb, yb = oversample_minority(X, y, rng=0)
        _, counts = np.unique(yb, return_counts=True)
        assert counts[0] == counts[1] == 25

    def test_rows_come_from_source(self):
        X = np.arange(20, dtype=float).reshape(10, 2)
        y = np.array([0] * 8 + [1] * 2)
        Xb, yb = oversample_minority(X, y, rng=1)
        minority_rows = Xb[yb == 1]
        for row in minority_rows:
            assert any(np.array_equal(row, x) for x in X[8:])

    def test_already_balanced_unchanged_size(self):
        X = np.zeros((10, 2))
        y = np.repeat([0, 1], 5)
        Xb, yb = oversample_minority(X, y, rng=0)
        assert len(yb) == 10
