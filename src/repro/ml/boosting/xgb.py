"""Multi-class Newton gradient boosting (the paper's "XGBoost" baseline).

One :class:`BoostingTree` per class per round against the softmax
objective, shrunk by ``learning_rate``.  Supports the Section IV-B grid
(``gamma``, ``reg_alpha``, ``reg_lambda``), an evaluation set for
round-by-round train/test curves (the plateau analysis), and gain-based
``feature_importances_`` (the covariance-ranking analysis).
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import BaseEstimator, ClassifierMixin
from repro.ml.boosting.gbtree import BoostingTree
from repro.ml.boosting.losses import log_loss, softmax_cross_entropy_grad_hess, softmax_proba
from repro.ml.tree.flat import FlatForest
from repro.utils.rng import spawn_generators
from repro.utils.validation import check_2d, check_labels

__all__ = ["GradientBoostingClassifier"]


class GradientBoostingClassifier(BaseEstimator, ClassifierMixin):
    """XGBoost-style classifier.

    Parameters mirror the XGBoost names the paper sweeps:

    * ``gamma`` — minimum loss reduction to split a leaf,
    * ``reg_alpha`` / ``reg_lambda`` — L1 / L2 leaf-weight regularization,
    * ``n_estimators`` — boosting rounds (paper: plateau near 40).

    After ``fit`` with an ``eval_set``, ``evals_result_`` holds per-round
    train/eval accuracy and log-loss, which the benchmark uses to show the
    overfitting plateau.
    """

    def __init__(
        self,
        n_estimators: int = 40,
        learning_rate: float = 0.3,
        max_depth: int = 6,
        gamma: float = 0.0,
        reg_alpha: float = 0.0,
        reg_lambda: float = 1.0,
        min_child_weight: float = 1.0,
        colsample: float = 1.0,
        random_state: int | None = 0,
    ):
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.gamma = gamma
        self.reg_alpha = reg_alpha
        self.reg_lambda = reg_lambda
        self.min_child_weight = min_child_weight
        self.colsample = colsample
        self.random_state = random_state

    def fit(
        self,
        X,
        y,
        eval_set: tuple | None = None,
        early_stopping_rounds: int | None = None,
    ) -> "GradientBoostingClassifier":
        """Fit to training data; returns self.

        With ``eval_set`` and ``early_stopping_rounds``, boosting stops when
        evaluation accuracy has not improved for that many rounds (the
        paper's plateau finding, turned into a stopping rule); the model
        keeps only the rounds up to the best one (``best_iteration_``).
        """
        if early_stopping_rounds is not None:
            if eval_set is None:
                raise ValueError("early stopping requires an eval_set")
            if early_stopping_rounds < 1:
                raise ValueError(
                    f"early_stopping_rounds must be >= 1, got "
                    f"{early_stopping_rounds}"
                )
        X = check_2d(X)
        y = check_labels(y, n_samples=X.shape[0])
        if self.n_estimators < 1:
            raise ValueError(f"n_estimators must be >= 1, got {self.n_estimators}")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError(f"learning_rate must be in (0, 1], got {self.learning_rate}")
        self.classes_ = np.unique(y)
        k = self.classes_.size
        y_idx = np.searchsorted(self.classes_, y)
        n = X.shape[0]
        margins = np.zeros((n, k))

        eval_margins = None
        if eval_set is not None:
            X_eval, y_eval = eval_set
            X_eval = check_2d(X_eval, name="X_eval")
            y_eval = check_labels(y_eval, name="y_eval", n_samples=X_eval.shape[0])
            y_eval_idx = np.searchsorted(self.classes_, y_eval)
            eval_margins = np.zeros((X_eval.shape[0], k))
            self.evals_result_ = {
                "train_accuracy": [], "train_logloss": [],
                "eval_accuracy": [], "eval_logloss": [],
            }

        rngs = spawn_generators(self.random_state, self.n_estimators * k)
        self.trees_: list[list[BoostingTree]] = []
        best_eval = -np.inf
        best_round = 0
        for rnd in range(self.n_estimators):
            grad, hess = softmax_cross_entropy_grad_hess(margins, y_idx)
            round_trees: list[BoostingTree] = []
            for c in range(k):
                tree = BoostingTree(
                    max_depth=self.max_depth,
                    min_child_weight=self.min_child_weight,
                    gamma=self.gamma,
                    reg_alpha=self.reg_alpha,
                    reg_lambda=self.reg_lambda,
                    colsample=self.colsample,
                    random_state=rngs[rnd * k + c],
                )
                tree.fit(X, grad[:, c], hess[:, c])
                margins[:, c] += self.learning_rate * tree.predict(X)
                if eval_margins is not None:
                    eval_margins[:, c] += self.learning_rate * tree.predict(X_eval)
                round_trees.append(tree)
            self.trees_.append(round_trees)
            if eval_margins is not None:
                eval_acc = float(np.mean(np.argmax(eval_margins, axis=1)
                                         == y_eval_idx))
                self.evals_result_["train_accuracy"].append(
                    float(np.mean(np.argmax(margins, axis=1) == y_idx)))
                self.evals_result_["train_logloss"].append(log_loss(margins, y_idx))
                self.evals_result_["eval_accuracy"].append(eval_acc)
                self.evals_result_["eval_logloss"].append(
                    log_loss(eval_margins, y_eval_idx))
                if eval_acc > best_eval:
                    best_eval = eval_acc
                    best_round = rnd
                elif (early_stopping_rounds is not None
                        and rnd - best_round >= early_stopping_rounds):
                    break

        if early_stopping_rounds is not None:
            # Keep only the rounds up to the best evaluation score.
            self.trees_ = self.trees_[: best_round + 1]
            self.best_iteration_ = best_round
        self.n_features_in_ = X.shape[1]
        self._flat_ = None          # rebuilt lazily on first predict
        return self

    def __getstate__(self):
        # Derived flat-node cache; rebuild lazily after unpickling.
        state = self.__dict__.copy()
        state.pop("_flat_", None)
        return state

    def _flat(self) -> FlatForest:
        """Flattened node arrays over all rounds' trees, round-major:
        tree index ``rnd * k + c`` is round ``rnd``, class ``c``."""
        flat = getattr(self, "_flat_", None)
        if flat is None:
            flat = FlatForest.from_trees(
                [tree for round_trees in self.trees_ for tree in round_trees]
            )
            self._flat_ = flat
        return flat

    def _check_predict_input(self, X) -> np.ndarray:
        self._check_fitted("trees_")
        X = check_2d(X)
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X has {X.shape[1]} features; model fitted on {self.n_features_in_}"
            )
        return X

    def _margins_slow(self, X: np.ndarray, n_rounds: int | None = None) -> np.ndarray:
        """Legacy per-tree margin loop (reference for the bit-identity
        tests in ``tests/test_perf_fastpaths.py``)."""
        X = self._check_predict_input(X)
        k = self.classes_.size
        rounds = self.trees_ if n_rounds is None else self.trees_[:n_rounds]
        margins = np.zeros((X.shape[0], k))
        for round_trees in rounds:
            for c, tree in enumerate(round_trees):
                margins[:, c] += self.learning_rate * tree.predict(X)
        return margins

    def _margins(
        self,
        X: np.ndarray,
        n_rounds: int | None = None,
        n_jobs: int | None = 1,
    ) -> np.ndarray:
        X = self._check_predict_input(X)
        k = self.classes_.size
        rounds = len(self.trees_) if n_rounds is None else min(n_rounds, len(self.trees_))
        flat = self._flat()
        leaves = flat.leaf_indices(X, n_jobs=n_jobs)
        value = flat.value_
        lr = self.learning_rate
        margins = np.zeros((X.shape[0], k))
        # Accumulate in the legacy (round, class) order: bit-identical to
        # the per-tree loop at any n_jobs.
        for rnd in range(rounds):
            for c in range(len(self.trees_[rnd])):
                margins[:, c] += lr * value[leaves[rnd * k + c]]
        return margins

    def predict_proba(
        self, X, n_rounds: int | None = None, n_jobs: int | None = 1
    ) -> np.ndarray:
        """Per-class probability estimates for X."""
        return softmax_proba(self._margins(X, n_rounds, n_jobs=n_jobs))

    def predict(
        self, X, n_rounds: int | None = None, n_jobs: int | None = 1
    ) -> np.ndarray:
        """Predict class labels for X."""
        return self.classes_[
            np.argmax(self._margins(X, n_rounds, n_jobs=n_jobs), axis=1)
        ]

    def staged_accuracy(self, X, y, n_jobs: int | None = 1) -> np.ndarray:
        """Test accuracy after each boosting round (plateau curves).

        All trees are traversed jointly once; the per-round loop only
        accumulates leaf weights and scores.
        """
        self._check_fitted("trees_")
        X = check_2d(X)
        y = check_labels(y, n_samples=X.shape[0])
        y_idx = np.searchsorted(self.classes_, y)
        k = self.classes_.size
        flat = self._flat()
        leaves = flat.leaf_indices(X, n_jobs=n_jobs)
        value = flat.value_
        lr = self.learning_rate
        margins = np.zeros((X.shape[0], k))
        out = np.empty(len(self.trees_))
        for r, round_trees in enumerate(self.trees_):
            for c in range(len(round_trees)):
                margins[:, c] += lr * value[leaves[r * k + c]]
            out[r] = float(np.mean(np.argmax(margins, axis=1) == y_idx))
        return out

    @property
    def feature_importances_(self) -> np.ndarray:
        """Gain-based importance, normalized to sum to 1 (XGBoost 'gain')."""
        self._check_fitted("trees_")
        imp = np.zeros(self.n_features_in_)
        for round_trees in self.trees_:
            for tree in round_trees:
                imp += tree.split_gains_
        total = imp.sum()
        return imp / total if total > 0 else imp
