"""Bootstrap-aggregated random forest.

The paper's best traditional baseline ("RF Cov.", Table V): scikit-learn's
``RandomForestClassifier`` with the number of trees swept over
{50, 100, 250}.  Ours matches the algorithm: bootstrap resampling per tree,
√p feature subsampling per node, probability averaging across trees, and an
out-of-bag accuracy estimate.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import BaseEstimator, ClassifierMixin
from repro.ml.tree import DecisionTreeClassifier
from repro.ml.tree.flat import FlatForest
from repro.utils.rng import spawn_generators
from repro.utils.validation import check_2d, check_labels

__all__ = ["RandomForestClassifier"]


class RandomForestClassifier(BaseEstimator, ClassifierMixin):
    """Random forest with probability-vote aggregation.

    Parameters
    ----------
    n_estimators:
        Tree count (the paper's RF hyperparameter).
    max_features:
        Per-node feature subsample; ``"sqrt"`` is the forest default.
    oob_score:
        When True, compute ``oob_score_`` — accuracy of out-of-bag votes —
        a free validation estimate that the ablation benches report.
    """

    def __init__(
        self,
        n_estimators: int = 100,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | str | None = "sqrt",
        bootstrap: bool = True,
        oob_score: bool = False,
        random_state: int | None = 0,
    ):
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.oob_score = oob_score
        self.random_state = random_state

    def fit(self, X, y) -> "RandomForestClassifier":
        """Fit to training data; returns self."""
        X = check_2d(X)
        y = check_labels(y, n_samples=X.shape[0])
        if self.n_estimators < 1:
            raise ValueError(f"n_estimators must be >= 1, got {self.n_estimators}")
        n = X.shape[0]
        self.classes_ = np.unique(y)
        k = self.classes_.size
        rngs = spawn_generators(self.random_state, self.n_estimators)

        self.estimators_: list[DecisionTreeClassifier] = []
        oob_proba = np.zeros((n, k))
        oob_counts = np.zeros(n)
        for rng in rngs:
            if self.bootstrap:
                sample = rng.integers(0, n, size=n)
            else:
                sample = np.arange(n)
            tree = DecisionTreeClassifier(
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                random_state=rng,
            )
            tree.fit(X[sample], y[sample])
            self.estimators_.append(tree)
            if self.oob_score and self.bootstrap:
                in_bag = np.zeros(n, dtype=bool)
                in_bag[sample] = True
                rows = np.flatnonzero(~in_bag)
                if rows.size:
                    # Accumulate straight into the OOB buffer — no per-tree
                    # zeros, and no class remap when the bootstrap saw all
                    # classes (the common case).
                    proba = tree.predict_proba(X[rows])
                    if tree.classes_.size == k:
                        oob_proba[rows] += proba
                    else:
                        cols = np.searchsorted(self.classes_, tree.classes_)
                        oob_proba[rows[:, None], cols[None, :]] += proba
                    oob_counts[rows] += 1

        if self.oob_score and self.bootstrap:
            seen = oob_counts > 0
            if seen.any():
                pred = self.classes_[np.argmax(oob_proba[seen], axis=1)]
                self.oob_score_ = float(np.mean(pred == y[seen]))
            else:
                self.oob_score_ = float("nan")
        self.n_features_in_ = X.shape[1]
        self._flat_ = None          # rebuilt lazily on first predict
        return self

    def __getstate__(self):
        # The flat node cache is derived state and roughly doubles the
        # pickled payload; rebuild it lazily after unpickling instead.
        state = self.__dict__.copy()
        state.pop("_flat_", None)
        return state

    def _flat(self) -> FlatForest:
        """Flattened node arrays over all trees (built once per fit)."""
        flat = getattr(self, "_flat_", None)
        if flat is None:
            flat = FlatForest.from_trees(self.estimators_, classes=self.classes_)
            self._flat_ = flat
        return flat

    def _expand_proba(
        self, tree: DecisionTreeClassifier, X: np.ndarray, k: int
    ) -> np.ndarray:
        """Tree probabilities lifted onto the forest's full class set
        (a bootstrap sample can miss rare classes)."""
        proba = np.zeros((X.shape[0], k))
        cols = np.searchsorted(self.classes_, tree.classes_)
        proba[:, cols] = tree.predict_proba(X)
        return proba

    def _predict_proba_slow(self, X) -> np.ndarray:
        """Legacy per-tree prediction loop.

        Kept as the reference path: ``tests/test_perf_fastpaths.py`` pins
        the vectorized path bit-identical to this implementation.
        """
        self._check_fitted("estimators_")
        X = check_2d(X)
        k = self.classes_.size
        acc = np.zeros((X.shape[0], k))
        for tree in self.estimators_:
            acc += self._expand_proba(tree, X, k)
        return acc / len(self.estimators_)

    def predict_proba(self, X, n_jobs: int | None = 1) -> np.ndarray:
        """Per-class probability estimates for X.

        All trees are traversed jointly over the flattened node arrays
        (optionally tree-parallel via ``n_jobs``); per-tree distributions
        are then accumulated in the legacy tree order, so the result is
        bit-identical to :meth:`_predict_proba_slow` at any ``n_jobs``.
        """
        self._check_fitted("estimators_")
        X = check_2d(X)
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X has {X.shape[1]} features; forest fitted on "
                f"{self.n_features_in_}"
            )
        flat = self._flat()
        leaves = flat.leaf_indices(X, n_jobs=n_jobs)
        acc = np.zeros((X.shape[0], self.classes_.size))
        value = flat.value_
        for t in range(flat.n_trees):
            acc += value[leaves[t]]
        acc /= flat.n_trees
        return acc

    def predict(self, X, n_jobs: int | None = 1) -> np.ndarray:
        """Predict class labels for X."""
        return self.classes_[np.argmax(self.predict_proba(X, n_jobs=n_jobs), axis=1)]

    @property
    def feature_importances_(self) -> np.ndarray:
        """Split-frequency importance: how often each feature splits a node,
        averaged over trees (cheap proxy; boosting has gain-based)."""
        self._check_fitted("estimators_")
        imp = np.zeros(self.n_features_in_)
        for tree in self.estimators_:
            used = tree.feature_[tree.feature_ >= 0]
            if used.size:
                imp += np.bincount(used, minlength=self.n_features_in_)
        total = imp.sum()
        return imp / total if total > 0 else imp
