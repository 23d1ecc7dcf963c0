"""Reference loops for the tree ensembles.

Prediction: the production forest and boosting models traverse all trees
jointly over one flattened node address space (:mod:`repro.ml.tree.flat`).
These are the loops that path replaced: one ``predict``/``predict_proba``
call per fitted tree, accumulated in tree order.
``tests/test_perf_fastpaths.py`` pins the flat traversal bit-identical to
them.

Fitting: ``DecisionTreeClassifier.fit`` searches all of a node's candidate
features in one ``(n, m, k)`` block.  :func:`cart_fit` is the fit it
replaced: one :func:`best_split_gini` call per candidate feature per node,
the winner kept by a strict ``<`` in candidate order, and each node's class
counts re-summed from its rows.  ``tests/test_tree_split_parity.py`` pins
the production fit array-for-array to it.
"""

from __future__ import annotations

import numpy as np

from repro.ml.boosting.xgb import GradientBoostingClassifier
from repro.ml.ensemble.forest import RandomForestClassifier
from repro.ml.tree import DecisionTreeClassifier
from repro.utils.rng import as_generator
from repro.utils.validation import check_2d, check_labels

__all__ = ["forest_predict_proba", "boosting_margins", "best_split_gini",
           "cart_fit"]


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


def best_split_gini(
    x: np.ndarray,
    y_onehot: np.ndarray,
    min_samples_leaf: int,
) -> tuple[float, float] | None:
    """Best threshold on one feature by Gini gain.

    Parameters
    ----------
    x:
        Feature values at the node, shape ``(n,)``.
    y_onehot:
        One-hot labels at the node, shape ``(n, k)``.
    min_samples_leaf:
        Minimum samples each side must keep.

    Returns
    -------
    ``(threshold, weighted_gini)`` of the best valid split, or ``None`` if
    no valid split exists (constant feature or leaf-size limits).
    """
    n = x.shape[0]
    order = np.argsort(x, kind="stable")
    xs = x[order]
    counts_left = np.cumsum(y_onehot[order], axis=0)  # (n, k), position i = left size i+1
    total = counts_left[-1]

    # Split after position i (left = first i+1 samples).  Valid positions:
    # value changes AND both sides satisfy the leaf minimum.
    left_sizes = np.arange(1, n + 1)
    valid = np.empty(n, dtype=bool)
    valid[:-1] = xs[1:] > xs[:-1]
    valid[-1] = False
    valid &= (left_sizes >= min_samples_leaf) & ((n - left_sizes) >= min_samples_leaf)
    if not valid.any():
        return None

    nl = left_sizes[:, None].astype(np.float64)
    nr = (n - left_sizes)[:, None].astype(np.float64)
    counts_right = total[None, :] - counts_left
    with np.errstate(divide="ignore", invalid="ignore"):
        gini_l = 1.0 - np.sum((counts_left / nl) ** 2, axis=1)
        gini_r = 1.0 - np.sum(
            np.where(nr > 0, counts_right / nr, 0.0) ** 2, axis=1
        )
    weighted = (left_sizes * gini_l + (n - left_sizes) * gini_r) / n
    weighted[~valid] = np.inf
    best = int(np.argmin(weighted))
    threshold = 0.5 * (xs[best] + xs[best + 1])
    return float(threshold), float(weighted[best])


def cart_fit(tree: DecisionTreeClassifier, X, y) -> DecisionTreeClassifier:
    """Per-feature CART fit: the reference for
    :meth:`DecisionTreeClassifier.fit`.  Sets the same fitted attributes;
    can stand in for the method (``cart_fit(tree, X, y)``)."""
    X = check_2d(X)
    y = check_labels(y, n_samples=X.shape[0])
    if tree.min_samples_leaf < 1 or tree.min_samples_split < 2:
        raise ValueError("min_samples_leaf >= 1 and min_samples_split >= 2 required")
    tree.classes_ = np.unique(y)
    k = tree.classes_.size
    y_idx = np.searchsorted(tree.classes_, y)
    onehot = np.eye(k, dtype=np.float64)[y_idx]
    rng = as_generator(tree.random_state)
    p = X.shape[1]
    m = tree._n_candidate_features(p)
    max_depth = tree.max_depth if tree.max_depth is not None else np.inf

    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    value: list[np.ndarray] = []

    def new_node() -> int:
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(None)  # type: ignore[arg-type]
        return len(feature) - 1

    # Iterative depth-first growth (explicit stack; no recursion limit).
    root = new_node()
    stack: list[tuple[int, np.ndarray, int]] = [(root, np.arange(X.shape[0]), 0)]
    while stack:
        node, idx, depth = stack.pop()
        counts = onehot[idx].sum(axis=0)
        value[node] = counts / counts.sum()
        n_node = idx.size
        if (
            depth >= max_depth
            or n_node < tree.min_samples_split
            or np.max(counts) == n_node  # pure
        ):
            continue
        cand = (
            np.arange(p)
            if m == p
            else rng.choice(p, size=m, replace=False)
        )
        best_feat, best_thr, best_score = -1, 0.0, np.inf
        Xn = X[idx]
        yn = onehot[idx]
        for f in cand:
            res = best_split_gini(Xn[:, f], yn, tree.min_samples_leaf)
            if res is not None and res[1] < best_score:
                best_feat, best_thr, best_score = int(f), res[0], res[1]
        if best_feat < 0:
            continue
        go_left = Xn[:, best_feat] <= best_thr
        feature[node] = best_feat
        threshold[node] = best_thr
        l_node, r_node = new_node(), new_node()
        left[node], right[node] = l_node, r_node
        stack.append((l_node, idx[go_left], depth + 1))
        stack.append((r_node, idx[~go_left], depth + 1))

    tree.feature_ = np.array(feature, dtype=np.int64)
    tree.threshold_ = np.array(threshold, dtype=np.float64)
    tree.children_left_ = np.array(left, dtype=np.int64)
    tree.children_right_ = np.array(right, dtype=np.int64)
    tree.value_ = np.vstack(value)
    tree.n_features_in_ = p
    tree.n_nodes_ = len(feature)
    return tree
