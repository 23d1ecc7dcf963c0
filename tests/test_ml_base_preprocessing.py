"""Tests for estimator base classes and preprocessing transformers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.ml.base import BaseEstimator, clone
from repro.ml.preprocessing import (
    CovarianceFeatures,
    Flatten3D,
    PCA,
    Pipeline,
    StandardScaler,
    TimeSeriesStandardScaler,
    covariance_feature_names,
    upper_triangle_covariance,
)
from tests.oracles import covariance as oracle


class _Dummy(BaseEstimator):
    def __init__(self, a=1, b="x", sub=None):
        self.a = a
        self.b = b
        self.sub = sub


class TestBaseEstimator:
    def test_get_params(self):
        d = _Dummy(a=3)
        assert d.get_params() == {"a": 3, "b": "x", "sub": None}

    def test_set_params(self):
        d = _Dummy()
        d.set_params(a=9, b="y")
        assert d.a == 9 and d.b == "y"

    def test_set_invalid_param(self):
        with pytest.raises(ValueError, match="invalid parameter"):
            _Dummy().set_params(c=1)

    def test_nested_params(self):
        d = _Dummy(sub=_Dummy(a=5))
        assert d.get_params()["sub__a"] == 5
        d.set_params(sub__a=7)
        assert d.sub.a == 7

    def test_clone_is_unfitted_copy(self):
        d = _Dummy(a=4)
        d.fitted_ = True
        c = clone(d)
        assert c.a == 4
        assert not hasattr(c, "fitted_")
        assert c is not d

    def test_clone_deep_copies_mutables(self):
        d = _Dummy(a=[1, 2])
        c = clone(d)
        c.a.append(3)
        assert d.a == [1, 2]

    def test_repr(self):
        assert "a=1" in repr(_Dummy())


class TestStandardScaler:
    def test_zero_mean_unit_var(self):
        rng = np.random.default_rng(0)
        X = rng.normal(5, 3, size=(200, 4))
        Z = StandardScaler().fit_transform(X)
        np.testing.assert_allclose(Z.mean(axis=0), 0, atol=1e-10)
        np.testing.assert_allclose(Z.std(axis=0), 1, atol=1e-10)

    def test_constant_feature_not_nan(self):
        X = np.column_stack([np.ones(10), np.arange(10, dtype=float)])
        Z = StandardScaler().fit_transform(X)
        assert np.all(np.isfinite(Z))
        np.testing.assert_allclose(Z[:, 0], 0)

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(50, 3))
        sc = StandardScaler().fit(X)
        np.testing.assert_allclose(sc.inverse_transform(sc.transform(X)), X,
                                   atol=1e-10)

    def test_feature_count_check(self):
        sc = StandardScaler().fit(np.random.default_rng(0).normal(size=(10, 3)))
        with pytest.raises(ValueError, match="features"):
            sc.transform(np.zeros((5, 4)))

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            StandardScaler().transform(np.ones((2, 2)))


class TestTimeSeriesScaler:
    def test_per_sensor_stats(self):
        rng = np.random.default_rng(2)
        X = rng.normal([10.0, -5.0], [2.0, 7.0], size=(30, 50, 2))
        Z = TimeSeriesStandardScaler().fit_transform(X)
        np.testing.assert_allclose(Z.mean(axis=(0, 1)), 0, atol=1e-10)
        np.testing.assert_allclose(Z.std(axis=(0, 1)), 1, atol=1e-10)

    def test_requires_3d(self):
        with pytest.raises(ValueError, match="3-D"):
            TimeSeriesStandardScaler().fit(np.ones((4, 5)))

    def test_inverse(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(5, 20, 3))
        sc = TimeSeriesStandardScaler().fit(X)
        np.testing.assert_allclose(sc.inverse_transform(sc.transform(X)), X,
                                   atol=1e-10)


def _widened_standardize(X, mean, scale):
    """The transform as it was: a float64 copy of X, then two temporaries."""
    return (np.asarray(X, dtype=np.float64) - mean) / scale


class TestStandardizeInTheInputDtype:
    """Both scalers validate a floating input in its own dtype and write
    one float64 output, byte-equal to standardizing a float64 copy."""

    @pytest.mark.parametrize(
        "dtype", [np.float16, np.float32, np.float64, np.int32, np.bool_])
    @pytest.mark.parametrize("layout", ["c", "strided", "fortran"])
    def test_time_series_scaler_bytes(self, dtype, layout):
        rng = np.random.default_rng(6)
        sc = TimeSeriesStandardScaler().fit(rng.normal(40, 15, size=(5, 60, 7)))
        X = rng.normal(40, 15, size=(4, 60, 7)).astype(dtype)
        if layout == "strided":
            X = X[:, ::3]
        elif layout == "fortran":
            X = np.asfortranarray(X)
        Z = sc.transform(X)
        assert Z.dtype == np.float64 and Z.flags.c_contiguous
        assert Z.tobytes() == _widened_standardize(
            X, sc.mean_, sc.scale_).tobytes()

    @pytest.mark.parametrize(
        "dtype", [np.float16, np.float32, np.float64, np.int64])
    @pytest.mark.parametrize("layout", ["c", "strided"])
    def test_standard_scaler_bytes(self, dtype, layout):
        rng = np.random.default_rng(7)
        sc = StandardScaler().fit(rng.normal(3, 2, size=(40, 6)))
        X = rng.normal(3, 2, size=(30, 6)).astype(dtype)
        if layout == "strided":
            X = X[::2]
        Z = sc.transform(X)
        assert Z.dtype == np.float64
        assert Z.tobytes() == _widened_standardize(
            X, sc.mean_, sc.scale_).tobytes()

    def test_list_input_is_coerced_to_float64(self):
        rng = np.random.default_rng(8)
        sc = StandardScaler().fit(rng.normal(size=(10, 3)))
        rows = [[1, 2, 3], [4, 5, 6]]
        assert sc.transform(rows).tobytes() == _widened_standardize(
            rows, sc.mean_, sc.scale_).tobytes()

    @pytest.mark.parametrize("scaler, shape", [
        (StandardScaler, (6, 7)), (TimeSeriesStandardScaler, (2, 3, 7))])
    def test_float32_nan_still_rejected(self, scaler, shape):
        sc = scaler().fit(np.random.default_rng(9).normal(size=shape))
        X = np.ones(shape, dtype=np.float32)
        X.flat[3] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            sc.transform(X)

    @pytest.mark.parametrize("model", ["svm_cov", "svm_pca", "scaled_pca_svc"])
    def test_svm_and_pca_outputs_equal_on_float32_and_float64(self, model):
        from repro.ml.svm import SVC
        from repro.models import make_svm_cov, make_svm_pca

        rng = np.random.default_rng(10)
        X = rng.normal(size=(24, 30, 7)).astype(np.float32)
        X[12:] += 0.5
        y = np.repeat([0, 1], 12)
        if model == "svm_cov":
            pipe = make_svm_cov(C=1.0)
        elif model == "svm_pca":
            pipe = make_svm_pca(C=1.0, n_components=4)
        else:
            X = X.reshape(24, -1)
            pipe = Pipeline([("scale", StandardScaler()),
                             ("pca", PCA(n_components=4)),
                             ("clf", SVC(C=1.0))])
        pipe.fit(X.astype(np.float64), y)
        outputs = []
        for batch in (X, X.astype(np.float64)):
            for _, est in pipe.steps[:-1]:
                batch = est.transform(batch)
            outputs.append((batch.tobytes(),
                            pipe.steps[-1][1].decision_function(batch).tobytes()))
        assert outputs[0] == outputs[1]


class TestPCA:
    def test_reconstruction_with_full_rank(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(40, 6))
        pca = PCA(n_components=6).fit(X)
        Z = pca.transform(X)
        np.testing.assert_allclose(pca.inverse_transform(Z), X, atol=1e-8)

    def test_components_orthonormal(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(60, 10))
        pca = PCA(n_components=4).fit(X)
        gram = pca.components_ @ pca.components_.T
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-8)

    def test_variance_ordering(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(80, 8)) * np.array([10, 5, 2, 1, 1, 1, 1, 1])
        pca = PCA(n_components=5).fit(X)
        assert np.all(np.diff(pca.explained_variance_) <= 1e-9)

    def test_captures_dominant_direction(self):
        rng = np.random.default_rng(7)
        t = rng.normal(size=200)
        X = np.outer(t, [3.0, 1.0, 0.0]) + rng.normal(0, 0.01, size=(200, 3))
        pca = PCA(n_components=1).fit(X)
        direction = pca.components_[0] / np.linalg.norm(pca.components_[0])
        expected = np.array([3.0, 1.0, 0.0]) / np.sqrt(10)
        assert abs(abs(direction @ expected) - 1) < 1e-3

    def test_invalid_components(self):
        X = np.random.default_rng(0).normal(size=(10, 5))
        with pytest.raises(ValueError):
            PCA(n_components=0).fit(X)
        with pytest.raises(ValueError):
            PCA(n_components=6).fit(X)

    def test_deterministic_sign(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(30, 5))
        a = PCA(n_components=3).fit(X).components_
        b = PCA(n_components=3).fit(X.copy()).components_
        np.testing.assert_allclose(a, b)


class TestCovariance:
    def test_shape_28_for_7_sensors(self):
        """R^{n x 540 x 7} -> R^{n x 28}, Section IV-A."""
        X = np.random.default_rng(0).normal(size=(5, 540, 7))
        F = upper_triangle_covariance(X)
        assert F.shape == (5, 28)

    def test_matches_naive_computation(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(3, 50, 4))
        F = upper_triangle_covariance(X, normalize=True)
        for i in range(3):
            gram = X[i].T @ X[i] / 50
            iu = np.triu_indices(4)
            np.testing.assert_allclose(F[i], gram[iu], rtol=1e-10)

    def test_diagonal_entries_nonnegative(self):
        X = np.random.default_rng(2).normal(size=(10, 30, 7))
        F = upper_triangle_covariance(X)
        names = covariance_feature_names()
        var_cols = [j for j, n in enumerate(names) if n.startswith("var(")]
        assert np.all(F[:, var_cols] >= 0)

    def test_feature_names(self):
        names = covariance_feature_names()
        assert len(names) == 28
        assert names[0] == "var(utilization_gpu_pct)"
        assert "cov(utilization_gpu_pct, utilization_memory_pct)" in names
        assert names[-1] == "var(power_draw_W)"

    def test_transformer_interface(self):
        X = np.random.default_rng(3).normal(size=(4, 20, 7))
        cov = CovarianceFeatures()
        F = cov.fit_transform(X)
        assert F.shape == (4, 28)
        assert len(cov.feature_names_) == 28

    def test_sensor_count_check(self):
        cov = CovarianceFeatures().fit(np.ones((2, 10, 7)))
        with pytest.raises(ValueError, match="X has 5 sensors; fitted on 7"):
            cov.transform(np.ones((2, 10, 5)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_transform_rejects_non_finite(self, bad):
        cov = CovarianceFeatures().fit(np.ones((2, 10, 7)))
        X = np.ones((2, 10, 7), dtype=np.float32)
        X[1, 4, 6] = bad
        with pytest.raises(ValueError, match="X contains NaN or infinite"):
            cov.transform(X)

    @pytest.mark.parametrize("shape", [(10, 7), (7,), (1, 2, 10, 7)])
    def test_transform_rejects_non_3d(self, shape):
        cov = CovarianceFeatures().fit(np.ones((2, 10, 7)))
        with pytest.raises(ValueError, match="X must be 3-D"):
            cov.transform(np.ones(shape))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int64])
    def test_transform_equals_the_function_bytes(self, dtype):
        X = np.random.default_rng(4).normal(0, 30, size=(5, 90, 7))
        X = X.astype(dtype)
        for normalize in (True, False):
            cov = CovarianceFeatures(normalize=normalize).fit(X)
            assert cov.transform(X).tobytes() == upper_triangle_covariance(
                X, normalize=normalize).tobytes()

    def test_transform_validates_once(self, monkeypatch):
        # One finiteness pass per served batch: the transform's own check,
        # not a second one inside the covariance function.
        import repro.utils.validation as validation

        calls = []
        check_array = validation.check_array

        def counting(X, **kwargs):
            calls.append(kwargs.get("name"))
            return check_array(X, **kwargs)

        cov = CovarianceFeatures().fit(np.ones((2, 10, 7)))
        monkeypatch.setattr(validation, "check_array", counting)
        cov.transform(np.ones((3, 10, 7), dtype=np.float32))
        assert calls == ["X"]

    @settings(max_examples=20, deadline=None)
    @given(arrays(np.float64, (2, 12, 3),
                  elements=st.floats(-100, 100, allow_nan=False)))
    def test_property_psd(self, X):
        """Per-trial Gram matrices are PSD: reconstructed eigenvalues >= 0."""
        F = upper_triangle_covariance(X + 1e-6)
        iu = np.triu_indices(3)
        for row in F:
            M = np.zeros((3, 3))
            M[iu] = row
            M = M + M.T - np.diag(np.diag(M))
            eig = np.linalg.eigvalsh(M)
            assert eig.min() >= -1e-8 * max(1.0, abs(eig).max())


# One batch of trials for the batch-independence sweep: its shape, a seed
# for its values and their magnitude, and the columns held constant or
# tied to another column (equal Gram entries must come out equal).
_cov_batch = st.fixed_dictionaries({
    "n": st.integers(1, 9),
    "t": st.integers(2, 600),
    "seed": st.integers(0, 2**32 - 1),
    "scale": st.sampled_from([1e-3, 1.0, 1e3]),
    "constant": st.lists(st.integers(0, 6), max_size=3),
    "tied": st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                     max_size=3),
})


class TestCovarianceBatchIndependence:
    """A trial's covariance features do not depend on its batch."""

    @given(_cov_batch)
    @settings(max_examples=40, deadline=None)
    def test_each_trial_equals_its_own_gram(self, batch):
        n, t = batch["n"], batch["t"]
        rng = np.random.default_rng(batch["seed"])
        X = rng.normal(size=(n, t, 7)) * batch["scale"]
        for col in batch["constant"]:
            X[:, :, col] = rng.normal() * batch["scale"]
        for src, dst in batch["tied"]:
            X[:, :, dst] = X[:, :, src]
        iu = np.triu_indices(7)
        F = upper_triangle_covariance(X)
        for i in range(n):
            x = X[i]
            assert F[i].tobytes() == (x.T @ x / t)[iu].tobytes()
            assert upper_triangle_covariance(X[i:i + 1])[0].tobytes() \
                == F[i].tobytes()
        if n >= 2:
            assert F.tobytes() == oracle.upper_triangle_covariance(X).tobytes()

    def test_float32_input_equals_its_float64_widening(self):
        X = np.random.default_rng(11).normal(size=(3, 90, 7)).astype(np.float32)
        assert upper_triangle_covariance(X).tobytes() == \
            upper_triangle_covariance(X.astype(np.float64)).tobytes()


class TestFlattenAndPipeline:
    def test_flatten(self):
        X = np.arange(2 * 3 * 4, dtype=float).reshape(2, 3, 4)
        F = Flatten3D().fit_transform(X)
        assert F.shape == (2, 12)
        np.testing.assert_array_equal(F[0], X[0].ravel())

    def test_flatten_window_check(self):
        f = Flatten3D().fit(np.ones((2, 3, 4)))
        with pytest.raises(ValueError, match="window shape"):
            f.transform(np.ones((2, 5, 4)))

    def test_pipeline_chains(self, blobs_split):
        from repro.ml.tree import DecisionTreeClassifier

        Xtr, ytr, Xte, yte = blobs_split
        pipe = Pipeline([
            ("scale", StandardScaler()),
            ("clf", DecisionTreeClassifier(max_depth=6)),
        ])
        pipe.fit(Xtr, ytr)
        assert pipe.score(Xte, yte) > 0.85

    def test_pipeline_set_params_routing(self):
        pipe = Pipeline([
            ("scale", StandardScaler()),
            ("pca", PCA(n_components=2)),
        ])
        pipe.set_params(pca__n_components=3)
        assert pipe["pca"].n_components == 3

    def test_pipeline_rejects_non_transformer_middle(self):
        from repro.ml.tree import DecisionTreeClassifier

        with pytest.raises(TypeError, match="transformer"):
            Pipeline([
                ("clf", DecisionTreeClassifier()),
                ("scale", StandardScaler()),
            ])

    def test_pipeline_duplicate_names(self):
        with pytest.raises(ValueError, match="duplicate"):
            Pipeline([("a", StandardScaler()), ("a", StandardScaler())])

    def test_pipeline_unfitted_predict(self):
        pipe = Pipeline([("scale", StandardScaler()), ("pca", PCA(2))])
        with pytest.raises(RuntimeError):
            pipe.predict(np.ones((2, 2)))

    def test_pipeline_clone(self, blobs_split):
        from repro.ml.base import clone
        from repro.ml.tree import DecisionTreeClassifier

        pipe = Pipeline([
            ("scale", StandardScaler()),
            ("clf", DecisionTreeClassifier(max_depth=3)),
        ])
        c = clone(pipe)
        assert c["clf"].max_depth == 3
        assert c["clf"] is not pipe["clf"]
