"""CART classification tree with one vectorized split search per node.

At each node, all candidate features are searched together: the node's
``(n, m)`` block of candidate columns is argsorted along the samples axis,
cumulative one-hot class counts form an ``(n, m, k)`` block, and the
weighted Gini impurity of every (split position, feature) pair is scored
at once.  The first minimum position of each feature, then the first
feature in candidate order, wins.  Features are taken in chunks so that no
``(n, m, k)`` transient exceeds ``_MAX_BLOCK`` elements.  Each child gets
its class counts from the winning split, so no node re-sums its labels.
The only Python-level loop is over nodes (see the vectorization guide).

The fitted tree is stored in flat arrays (``feature_``, ``threshold_``,
``children_left_`` …), and prediction advances all query rows level-by-level
through those arrays — no per-sample recursion.
"""

from __future__ import annotations

import numbers

import numpy as np

from repro.ml.base import BaseEstimator, ClassifierMixin
from repro.ml.tree.threshold import split_threshold
from repro.utils.rng import as_generator
from repro.utils.validation import check_2d, check_labels

__all__ = ["DecisionTreeClassifier", "best_split"]

#: Most elements in one ``(n, m, k)`` split-search transient (8 MiB of
#: float64).  A node whose full block is larger is searched a chunk of
#: features at a time.
_MAX_BLOCK = 1 << 20


def best_split(
    Xn: np.ndarray,
    y_onehot: np.ndarray,
    min_samples_leaf: int,
) -> tuple[int, float, float, np.ndarray] | None:
    """Best Gini split of one node over every column of its block.

    Parameters
    ----------
    Xn:
        Candidate feature values at the node, shape ``(n, m)``.
    y_onehot:
        One-hot labels at the node, shape ``(n, k)``.
    min_samples_leaf:
        Minimum samples each side must keep.

    Returns
    -------
    ``(column, threshold, weighted_gini, left_counts)`` of the best valid
    split, where ``left_counts`` are the ``(k,)`` class counts of the
    samples with ``Xn[:, column] <= threshold``; or ``None`` if no column
    has a valid split (constant columns or leaf-size limits).  Ties go to
    the lowest split position of a column, then to the lowest column.
    """
    n, m = Xn.shape
    # Split after sorted position i (left = first i+1 samples).  The leaf
    # minimum admits lo <= i < hi; a position is valid if the value changes.
    lo, hi = min_samples_leaf - 1, n - min_samples_leaf
    if lo >= hi:
        return None
    left_sizes = np.arange(lo + 1, hi + 1)[:, None]
    right_sizes = n - left_sizes
    nl = left_sizes[:, :, None].astype(np.float64)
    nr = right_sizes[:, :, None].astype(np.float64)
    step = max(1, _MAX_BLOCK // (n * y_onehot.shape[1]))
    # The Gini terms repeat the per-feature reference's float operations in
    # its order (``tests/oracles/trees.py``), so the scores, and hence the
    # fitted trees, are bit-identical to it.
    best, best_score = None, np.inf
    for c0 in range(0, m, step):
        block = Xn[:, c0:c0 + step]
        cols = np.arange(block.shape[1])
        order = block.argsort(axis=0, kind="stable")
        xs = block[order, cols]
        counts_left = y_onehot[order].cumsum(axis=0)  # (n, m, k)
        total = counts_left[-1]
        counts_left = counts_left[lo:hi]
        share = counts_left / nl
        share *= share
        gini_l = 1.0 - share.sum(axis=2)
        share = total - counts_left
        share /= nr
        share *= share
        gini_r = 1.0 - share.sum(axis=2)
        weighted = (left_sizes * gini_l + right_sizes * gini_r) / n
        weighted[xs[lo + 1:hi + 1] <= xs[lo:hi]] = np.inf
        pos = weighted.argmin(axis=0)
        scores = weighted[pos, cols]
        j = int(scores.argmin())
        if scores[j] < best_score:
            i = lo + int(pos[j])
            best_score = scores[j]
            best = (c0 + j, float(xs[i, j]), float(xs[i + 1, j]),
                    counts_left[pos[j], j].copy())
    if best is None:
        return None
    column, below, above, left_counts = best
    return (column, split_threshold(below, above), float(best_score),
            left_counts)


class DecisionTreeClassifier(BaseEstimator, ClassifierMixin):
    """Gini-impurity CART classifier.

    Parameters
    ----------
    max_depth:
        Depth cap (``None`` = grow until pure / size limits).
    min_samples_split, min_samples_leaf:
        Standard CART pre-pruning controls.
    max_features:
        ``None`` (all), ``"sqrt"``, or an int — candidate features per node.
        Random forests pass ``"sqrt"``.
    random_state:
        Seeds the per-node feature subsampling.
    """

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | str | None = None,
        random_state: int | np.random.Generator | None = None,
    ):
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state

    def _n_candidate_features(self, p: int) -> int:
        mf = self.max_features
        if mf is None:
            return p
        if isinstance(mf, str) and mf == "sqrt":
            return max(1, int(np.sqrt(p)))
        if (isinstance(mf, numbers.Integral) and not isinstance(mf, bool)
                and 1 <= mf <= p):
            return int(mf)
        raise ValueError(
            f"max_features must be None, 'sqrt' or an int in [1, {p}], "
            f"got {mf!r}"
        )

    def fit(self, X, y) -> "DecisionTreeClassifier":
        """Fit to training data; returns self."""
        X = check_2d(X)
        y = check_labels(y, n_samples=X.shape[0])
        if self.min_samples_leaf < 1 or self.min_samples_split < 2:
            raise ValueError("min_samples_leaf >= 1 and min_samples_split >= 2 required")
        self.classes_ = np.unique(y)
        k = self.classes_.size
        y_idx = np.searchsorted(self.classes_, y)
        onehot = np.eye(k, dtype=np.float64)[y_idx]
        rng = as_generator(self.random_state)
        p = X.shape[1]
        m = self._n_candidate_features(p)
        max_depth = self.max_depth if self.max_depth is not None else np.inf

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
        # Each entry carries its node's class counts, taken from the split.
        root = new_node()
        stack: list[tuple[int, np.ndarray, int, np.ndarray]] = [
            (root, np.arange(X.shape[0]), 0, onehot.sum(axis=0))]
        while stack:
            node, idx, depth, counts = stack.pop()
            n_node = idx.size
            value[node] = counts / n_node
            if (
                depth >= max_depth
                or n_node < self.min_samples_split
                or np.max(counts) == n_node  # pure
            ):
                continue
            cand = (
                np.arange(p)
                if m == p
                else rng.choice(p, size=m, replace=False)
            )
            split = best_split(X[idx[:, None], cand], onehot[idx],
                               self.min_samples_leaf)
            if split is None:
                continue
            column, thr, _, counts_left = split
            best_feat = int(cand[column])
            go_left = X[idx, best_feat] <= thr
            feature[node] = best_feat
            threshold[node] = thr
            l_node, r_node = new_node(), new_node()
            left[node], right[node] = l_node, r_node
            stack.append((l_node, idx[go_left], depth + 1, counts_left))
            stack.append((r_node, idx[~go_left], depth + 1, counts - counts_left))

        self.feature_ = np.array(feature, dtype=np.int64)
        self.threshold_ = np.array(threshold, dtype=np.float64)
        self.children_left_ = np.array(left, dtype=np.int64)
        self.children_right_ = np.array(right, dtype=np.int64)
        self.value_ = np.vstack(value)
        self.n_features_in_ = p
        self.n_nodes_ = len(feature)
        return self

    # ------------------------------------------------------------------
    def _leaf_indices(self, X: np.ndarray) -> np.ndarray:
        """Advance all rows to their leaf node (vectorized level walk)."""
        node = np.zeros(X.shape[0], dtype=np.int64)
        while True:
            feat = self.feature_[node]
            internal = feat >= 0
            if not internal.any():
                return node
            rows = np.flatnonzero(internal)
            f = feat[rows]
            thr = self.threshold_[node[rows]]
            goes_left = X[rows, f] <= thr
            node[rows] = np.where(
                goes_left,
                self.children_left_[node[rows]],
                self.children_right_[node[rows]],
            )

    def predict_proba(self, X) -> np.ndarray:
        """Per-class probability estimates for X."""
        self._check_fitted("value_")
        X = check_2d(X)
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X has {X.shape[1]} features; tree fitted on {self.n_features_in_}"
            )
        return self.value_[self._leaf_indices(X)]

    def predict(self, X) -> np.ndarray:
        """Predict class labels for X."""
        return self.classes_[np.argmax(self.predict_proba(X), axis=1)]

    @property
    def depth_(self) -> int:
        """Actual depth of the fitted tree."""
        self._check_fitted("feature_")
        depth = np.zeros(self.n_nodes_, dtype=np.int64)
        for node in range(self.n_nodes_):
            for child in (self.children_left_[node], self.children_right_[node]):
                if child >= 0:
                    depth[child] = depth[node] + 1
        return int(depth.max())
