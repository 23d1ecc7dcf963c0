"""Edge-case and less-traveled-path tests across the stack."""

import numpy as np
import pytest

from repro.data.windows import WindowMode
from repro.ml.boosting import GradientBoostingClassifier
from repro.ml.model_selection import GridSearchCV
from repro.ml.preprocessing import upper_triangle_covariance
from repro.ml.svm import SVC
from repro.ml.tree import DecisionTreeClassifier
from repro.nn import Linear
from repro.parallel import pool as pool_mod
from repro.parallel.pool import parallel_map


class TestParallelPoolPath:
    def test_pool_path_with_forced_cores(self, monkeypatch):
        """On the 1-core CI machine the pool branch never triggers by
        default; force it to prove the spawn path works end-to-end."""
        monkeypatch.setattr(pool_mod.os, "cpu_count", lambda: 2)
        out = parallel_map(_cube, list(range(8)), n_jobs=2, chunksize=2)
        assert out == [i**3 for i in range(8)]

    def test_grid_search_parallel_matches_serial(self, blobs_split, monkeypatch):
        Xtr, ytr, _, _ = blobs_split
        serial = GridSearchCV(
            DecisionTreeClassifier(), {"max_depth": [2, 5]}, cv=3
        ).fit(Xtr, ytr)
        monkeypatch.setattr(pool_mod.os, "cpu_count", lambda: 2)
        parallel = GridSearchCV(
            DecisionTreeClassifier(), {"max_depth": [2, 5]}, cv=3, n_jobs=2
        ).fit(Xtr, ytr)
        assert serial.best_params_ == parallel.best_params_
        np.testing.assert_allclose(
            serial.cv_results_["fold_scores"],
            parallel.cv_results_["fold_scores"],
        )


def _cube(x):
    return x**3


class TestWindowModeParse:
    def test_enum_passthrough(self):
        assert WindowMode.parse(WindowMode.START) is WindowMode.START

    def test_case_insensitive(self):
        assert WindowMode.parse("MIDDLE") is WindowMode.MIDDLE

    def test_invalid(self):
        with pytest.raises(ValueError):
            WindowMode.parse("end")


class TestCovarianceUnnormalized:
    def test_raw_gram_scaling(self):
        X = np.random.default_rng(0).normal(size=(2, 50, 3))
        norm = upper_triangle_covariance(X, normalize=True)
        raw = upper_triangle_covariance(X, normalize=False)
        np.testing.assert_allclose(raw, norm * 50, rtol=1e-10)


class TestSVCKernels:
    def test_poly_kernel_classifier(self, blobs_split):
        Xtr, ytr, Xte, yte = blobs_split
        clf = SVC(C=1.0, kernel="poly", degree=2, coef0=1.0, gamma=0.1)
        clf.fit(Xtr, ytr)
        assert clf.score(Xte, yte) > 0.7

    def test_linear_kernel_classifier(self, blobs_split):
        Xtr, ytr, Xte, yte = blobs_split
        clf = SVC(C=1.0, kernel="linear").fit(Xtr, ytr)
        assert clf.score(Xte, yte) > 0.85


class TestBoostingOptions:
    def test_colsample(self, blobs_split):
        Xtr, ytr, Xte, yte = blobs_split
        clf = GradientBoostingClassifier(
            n_estimators=8, max_depth=3, colsample=0.5, random_state=0
        ).fit(Xtr, ytr)
        assert clf.score(Xte, yte) > 0.8

    def test_min_child_weight_blocks_splits(self, blobs_split):
        Xtr, ytr, _, _ = blobs_split
        heavy = GradientBoostingClassifier(
            n_estimators=2, max_depth=4, min_child_weight=1e6
        ).fit(Xtr, ytr)
        # With an impossible child-weight floor every tree is a stump
        # (pure leaf), so importances stay zero.
        assert heavy.feature_importances_.sum() == 0.0

    def test_single_class_degenerate(self):
        X = np.random.default_rng(0).normal(size=(10, 2))
        y = np.zeros(10, dtype=int)
        clf = GradientBoostingClassifier(n_estimators=2).fit(X, y)
        assert np.all(clf.predict(X) == 0)


class TestChallengeIOErrors:
    def test_from_directory_missing(self, tmp_path):
        from repro import WorkloadClassificationChallenge

        with pytest.raises(FileNotFoundError):
            WorkloadClassificationChallenge.from_directory(
                tmp_path, names=("60-start-1",))


class TestArrayIOUncompressed:
    def test_uncompressed_round_trip(self, tmp_path):
        from repro.utils.arrayio import load_npz_dataset, save_npz_dataset

        rng = np.random.default_rng(0)
        arrays = dict(
            X_train=rng.normal(size=(4, 6, 7)).astype(np.float32),
            y_train=np.arange(4),
            model_train=np.array(["a", "b", "c", "d"]),
            X_test=rng.normal(size=(2, 6, 7)).astype(np.float32),
            y_test=np.arange(2),
            model_test=np.array(["a", "b"]),
        )
        path = save_npz_dataset(tmp_path / "u.npz", compress=False, **arrays)
        loaded = load_npz_dataset(path)
        np.testing.assert_array_equal(loaded["X_train"], arrays["X_train"])


class TestTrainerNoClip:
    def test_grad_clip_disabled(self):
        from repro.nn import Adam, NLLLoss, Trainer, log_softmax, Module

        class M(Module):
            def __init__(self):
                super().__init__()
                self.fc = Linear(2, 2, rng=0)

            def forward(self, x):
                return log_softmax(self.fc(x.mean(axis=1)), axis=-1)

        model = M()
        trainer = Trainer(model, Adam(model.parameters(), lr=0.01), NLLLoss(),
                          max_epochs=2, patience=2, grad_clip=0.0,
                          batch_size=8)
        rng = np.random.default_rng(0)
        X = rng.normal(size=(16, 5, 2)).astype(np.float32)
        y = rng.integers(0, 2, 16)
        hist = trainer.fit(X[:12], y[:12], X[12:], y[12:])
        assert len(hist.epochs) == 2


class TestStratifiedKFoldNoShuffle:
    def test_deterministic_without_shuffle(self):
        from repro.ml.model_selection import StratifiedKFold

        y = np.repeat([0, 1], 10)
        a = list(StratifiedKFold(2, shuffle=False).split(np.zeros(20), y))
        b = list(StratifiedKFold(2, shuffle=False).split(np.zeros(20), y))
        for (tr_a, va_a), (tr_b, va_b) in zip(a, b):
            np.testing.assert_array_equal(tr_a, tr_b)
            np.testing.assert_array_equal(va_a, va_b)
