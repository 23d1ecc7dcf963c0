"""Tests for the challenge core (evaluation, leaderboard, challenge object)
and the parallel substrate."""

import numpy as np
import pytest

from repro.core import (
    Leaderboard,
    Submission,
    WorkloadClassificationChallenge,
    evaluate_predictions,
)
from repro.data.dataset import ChallengeDataset
from repro.parallel import effective_n_jobs, parallel_map


def _toy_dataset(name="60-middle-1", n_train=20, n_test=8, k=3, seed=0):
    rng = np.random.default_rng(seed)
    y_tr = rng.integers(0, k, n_train)
    y_te = rng.integers(0, k, n_test)
    X_tr = rng.normal(size=(n_train, 15, 7)).astype(np.float32)
    X_te = rng.normal(size=(n_test, 15, 7)).astype(np.float32)
    for c in range(k):
        X_tr[y_tr == c, :, c] += 3.0
        X_te[y_te == c, :, c] += 3.0
    names = np.array(["m"] * n_train), np.array(["m"] * n_test)
    return ChallengeDataset(
        name=name, X_train=X_tr, y_train=y_tr, model_train=names[0],
        X_test=X_te, y_test=y_te, model_test=names[1],
    )


class TestEvaluation:
    def test_perfect_predictions(self):
        ds = _toy_dataset()
        result = evaluate_predictions(ds, ds.y_test)
        assert result["accuracy"] == 1.0
        assert result["macro_f1"] == 1.0
        assert result["confusion"].trace() == ds.n_test

    def test_wrong_length_rejected(self):
        ds = _toy_dataset()
        with pytest.raises(ValueError, match="predictions"):
            evaluate_predictions(ds, ds.y_test[:-1])

    def test_submission_validation(self):
        with pytest.raises(ValueError, match="entrant"):
            Submission(entrant="", dataset_name="x", predictions=np.zeros(3, int))
        with pytest.raises(ValueError, match="1-D"):
            Submission(entrant="a", dataset_name="x",
                       predictions=np.zeros((2, 2), int))


class TestLeaderboard:
    def test_submit_and_rank(self):
        ds = _toy_dataset()
        board = Leaderboard({ds.name: ds})
        board.submit(Submission("perfect", ds.name, ds.y_test))
        wrong = (ds.y_test + 1) % 3
        board.submit(Submission("awful", ds.name, wrong))
        ranking = board.ranking(ds.name)
        assert ranking[0].entrant == "perfect"
        assert board.best(ds.name).accuracy == 1.0

    def test_unknown_dataset(self):
        ds = _toy_dataset()
        board = Leaderboard({ds.name: ds})
        with pytest.raises(KeyError):
            board.submit(Submission("a", "nope", ds.y_test))

    def test_format(self):
        ds = _toy_dataset()
        board = Leaderboard({ds.name: ds})
        assert board.format() == "(no submissions)"
        board.submit(Submission("team-a", ds.name, ds.y_test))
        out = board.format()
        assert "team-a" in out and "100.00" in out


class TestChallengeObject:
    def test_from_simulation_tiny(self, challenge_suite_tiny):
        ch = WorkloadClassificationChallenge(dict(challenge_suite_tiny))
        assert set(ch.dataset_names()) == set(challenge_suite_tiny)
        assert len(ch.class_names) == 26

    def test_evaluate_protocol(self, challenge_suite_tiny):
        from repro.models import make_rf_cov

        ch = WorkloadClassificationChallenge(dict(challenge_suite_tiny))
        result = ch.evaluate(make_rf_cov(n_estimators=10), "60-middle-1")
        assert 0.0 <= result["accuracy"] <= 1.0
        assert result["n_test"] == ch.dataset("60-middle-1").n_test

    def test_submit_records_entry(self, challenge_suite_tiny):
        ch = WorkloadClassificationChallenge(dict(challenge_suite_tiny))
        ds = ch.dataset("60-middle-1")
        entry = ch.submit("baseline", "60-middle-1", ds.y_test)
        assert entry.accuracy == 1.0
        assert ch.leaderboard.best("60-middle-1") is not None

    def test_unknown_dataset_raises(self, challenge_suite_tiny):
        ch = WorkloadClassificationChallenge(dict(challenge_suite_tiny))
        with pytest.raises(KeyError, match="unknown dataset"):
            ch.dataset("60-end-1")

    def test_save_and_reload(self, challenge_suite_tiny, tmp_path):
        ch = WorkloadClassificationChallenge(dict(challenge_suite_tiny))
        ch.save(tmp_path)
        loaded = WorkloadClassificationChallenge.from_directory(
            tmp_path, names=tuple(challenge_suite_tiny))
        np.testing.assert_array_equal(
            loaded.dataset("60-middle-1").y_test,
            ch.dataset("60-middle-1").y_test,
        )

    def test_summary_table(self, challenge_suite_tiny):
        ch = WorkloadClassificationChallenge(dict(challenge_suite_tiny))
        out = ch.summary()
        assert "60-middle-1" in out and "540" in out

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            WorkloadClassificationChallenge({})


def _square(x):
    return x * x


class TestParallelMap:
    def test_serial_path(self):
        assert parallel_map(_square, [1, 2, 3], n_jobs=1) == [1, 4, 9]

    def test_order_preserved(self):
        out = parallel_map(_square, list(range(20)), n_jobs=2)
        assert out == [i * i for i in range(20)]

    def test_single_item(self):
        assert parallel_map(_square, [5], n_jobs=4) == [25]

    def test_effective_n_jobs(self):
        import os

        cores = os.cpu_count() or 1
        assert effective_n_jobs(None) == cores
        assert effective_n_jobs(-1) == cores
        assert effective_n_jobs(1) == 1
        assert effective_n_jobs(10_000) == cores
        with pytest.raises(ValueError):
            effective_n_jobs(0)

    def test_empty(self):
        assert parallel_map(_square, []) == []

