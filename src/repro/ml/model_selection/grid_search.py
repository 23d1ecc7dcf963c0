"""Exhaustive grid search with cross-validation.

Serial by default; ``n_jobs`` fans candidate × fold evaluations out over
a process pool (:func:`repro.parallel.parallel_map`, which runs inline at
one job; ``-1`` uses all cores).  Results are identical at any job count
because every evaluation is a pure function of (estimator params, fold
indices).
"""

from __future__ import annotations

import itertools
from typing import Any, Iterable, Sequence

import numpy as np

from repro.ml.base import BaseEstimator, ClassifierMixin, clone
from repro.ml.metrics import accuracy_score
from repro.ml.model_selection.kfold import StratifiedKFold

__all__ = ["ParameterGrid", "GridSearchCV", "cross_val_score"]


class ParameterGrid:
    """Iterate the cartesian product of a ``{param: [values]}`` grid.

    Also accepts a *list* of grids (union of products), as scikit-learn
    does, which the benchmarks use to sweep PCA and covariance pipelines in
    one search.
    """

    def __init__(self, grid: dict[str, Sequence] | list[dict[str, Sequence]]):
        self.grid = [grid] if isinstance(grid, dict) else list(grid)
        for g in self.grid:
            for key, values in g.items():
                if isinstance(values, str) or not isinstance(values, Iterable):
                    raise TypeError(
                        f"grid values for {key!r} must be a non-string sequence"
                    )

    def __iter__(self):
        for g in self.grid:
            if not g:
                yield {}
                continue
            keys = sorted(g)
            for combo in itertools.product(*(g[k] for k in keys)):
                yield dict(zip(keys, combo))

    def __len__(self) -> int:
        total = 0
        for g in self.grid:
            n = 1
            for values in g.values():
                n *= len(values)
            total += n
        return total


def _fit_score_one(
    estimator: BaseEstimator,
    params: dict[str, Any],
    X,
    y,
    train_idx: np.ndarray,
    val_idx: np.ndarray,
) -> float:
    est = clone(estimator).set_params(**params)
    est.fit(X[train_idx], y[train_idx])
    return accuracy_score(y[val_idx], est.predict(X[val_idx]))


def cross_val_score(
    estimator: BaseEstimator,
    X,
    y,
    *,
    cv: int | StratifiedKFold = 5,
    params: dict[str, Any] | None = None,
    n_jobs: int = 1,
) -> np.ndarray:
    """Per-fold validation accuracies of one estimator configuration.

    ``n_jobs`` fans the folds out over a process pool (``-1`` = all
    cores); scores are identical at any job count because each fold is a
    pure function of (params, fold indices).
    """
    # Imported here, not at module top: a serving child that unpickles
    # an ml pipeline never loads the process pool.
    from repro.parallel import parallel_map

    splitter = StratifiedKFold(cv) if isinstance(cv, int) else cv
    params = params or {}
    X = np.asarray(X)
    y = np.asarray(y)
    folds = list(splitter.split(X, y))
    scores = parallel_map(
        _GridTask(estimator, X, y),
        [(0, fi, params, tr, va) for fi, (tr, va) in enumerate(folds)],
        n_jobs=n_jobs,
    )
    return np.array(scores)


class GridSearchCV(BaseEstimator, ClassifierMixin):
    """Grid search selecting the parameter combination with the highest
    mean cross-validated accuracy, then refitting on all data.

    Attributes after ``fit``
    ------------------------
    best_params_, best_score_, best_estimator_:
        Winning configuration, its mean CV accuracy, and the refit model.
    cv_results_:
        ``{"params": [...], "mean_score": array, "std_score": array,
        "fold_scores": array (n_candidates, n_folds)}``.
    """

    def __init__(
        self,
        estimator: BaseEstimator,
        param_grid: dict | list[dict],
        cv: int = 5,
        n_jobs: int = 1,
        refit: bool = True,
        random_state: int = 0,
        verbose: bool = False,
    ):
        self.estimator = estimator
        self.param_grid = param_grid
        self.cv = cv
        self.n_jobs = n_jobs
        self.refit = refit
        self.random_state = random_state
        self.verbose = verbose

    def fit(self, X, y) -> "GridSearchCV":
        """Fit to training data; returns self."""
        from repro.parallel import parallel_map

        X = np.asarray(X)
        y = np.asarray(y)
        candidates = list(ParameterGrid(self.param_grid))
        if not candidates:
            raise ValueError("empty parameter grid")
        splitter = StratifiedKFold(self.cv, random_state=self.random_state)
        folds = list(splitter.split(X, y))

        tasks = [
            (ci, fi, params, tr, va)
            for ci, params in enumerate(candidates)
            for fi, (tr, va) in enumerate(folds)
        ]
        scores = np.zeros((len(candidates), len(folds)))
        results = parallel_map(
            _GridTask(self.estimator, X, y), tasks, n_jobs=self.n_jobs
        )
        for (ci, fi, params, *_), score in zip(tasks, results):
            scores[ci, fi] = score
            if self.verbose:
                print(f"[grid] cand {ci} fold {fi}: {score:.4f} {params}")

        mean = scores.mean(axis=1)
        best = int(np.argmax(mean))
        self.cv_results_ = {
            "params": candidates,
            "mean_score": mean,
            "std_score": scores.std(axis=1),
            "fold_scores": scores,
        }
        self.best_index_ = best
        self.best_params_ = candidates[best]
        self.best_score_ = float(mean[best])
        if self.refit:
            self.best_estimator_ = clone(self.estimator).set_params(**self.best_params_)
            self.best_estimator_.fit(X, y)
        return self

    def predict(self, X):
        """Predict class labels for X."""
        self._check_fitted("best_estimator_")
        return self.best_estimator_.predict(X)

    def predict_proba(self, X):
        """Per-class probability estimates for X."""
        self._check_fitted("best_estimator_")
        return self.best_estimator_.predict_proba(X)


class _GridTask:
    """Picklable callable for process-pool grid evaluation."""

    def __init__(self, estimator: BaseEstimator, X: np.ndarray, y: np.ndarray):
        self.estimator = estimator
        self.X = X
        self.y = y

    def __call__(self, task) -> float:
        _ci, _fi, params, tr, va = task
        return _fit_score_one(self.estimator, params, self.X, self.y, tr, va)
