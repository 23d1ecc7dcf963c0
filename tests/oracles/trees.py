"""Per-tree reference prediction loops for the tree ensembles.

The production forest and boosting models traverse all trees jointly over
one flattened node address space (:mod:`repro.ml.tree.flat`).  These are
the loops that path replaced: one ``predict``/``predict_proba`` call per
fitted tree, accumulated in tree order.  ``tests/test_perf_fastpaths.py``
pins the flat traversal bit-identical to them.
"""

from __future__ import annotations

import numpy as np

from repro.ml.boosting.xgb import GradientBoostingClassifier
from repro.ml.ensemble.forest import RandomForestClassifier
from repro.ml.tree import DecisionTreeClassifier
from repro.utils.validation import check_2d

__all__ = ["forest_predict_proba", "boosting_margins"]


def _expand_proba(
    forest: RandomForestClassifier, tree: DecisionTreeClassifier,
    X: np.ndarray, k: int,
) -> np.ndarray:
    """Tree probabilities lifted onto the forest's full class set
    (a bootstrap sample can miss rare classes)."""
    proba = np.zeros((X.shape[0], k))
    cols = np.searchsorted(forest.classes_, tree.classes_)
    proba[:, cols] = tree.predict_proba(X)
    return proba


def forest_predict_proba(forest: RandomForestClassifier, X) -> np.ndarray:
    """Per-tree prediction loop: the reference for
    :meth:`RandomForestClassifier.predict_proba`."""
    forest._check_fitted("estimators_")
    X = check_2d(X)
    k = forest.classes_.size
    acc = np.zeros((X.shape[0], k))
    for tree in forest.estimators_:
        acc += _expand_proba(forest, tree, X, k)
    return acc / len(forest.estimators_)


def boosting_margins(gb: GradientBoostingClassifier, X: np.ndarray,
                     n_rounds: int | None = None) -> np.ndarray:
    """Per-tree margin loop: the reference for
    :meth:`GradientBoostingClassifier._margins`."""
    X = gb._check_predict_input(X)
    k = gb.classes_.size
    rounds = gb.trees_ if n_rounds is None else gb.trees_[:n_rounds]
    margins = np.zeros((X.shape[0], k))
    for round_trees in rounds:
        for c, tree in enumerate(round_trees):
            margins[:, c] += gb.learning_rate * tree.predict(X)
    return margins
