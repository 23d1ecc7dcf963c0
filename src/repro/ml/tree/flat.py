"""Flattened multi-tree node arrays for joint vectorized inference.

A fitted :class:`~repro.ml.tree.DecisionTreeClassifier` already walks all
query rows level-wise through its flat node arrays — but an ensemble still
loops over trees in Python, paying per-tree validation, per-tree leaf
walks, and per-tree output allocation.  :class:`FlatForest` concatenates
the node arrays of *all* trees into one address space (child pointers
rebased to absolute indices) and advances a joint ``n_trees × chunk``
frontier level-wise: the Python-loop count drops from
``n_trees × depth`` to ``depth`` per row chunk.  Leaves are *absorbing*
(their transition entries point back at themselves), so a level step is a
fixed handful of gathers with no per-level frontier compaction; rows are
processed in L2-sized chunks because the X gather dominates at fleet-scale
query counts.

Leaf *payloads* stay per-node: classification trees store their class
distribution rows pre-lifted onto the ensemble's full class set (so the
per-tree ``searchsorted`` remap at predict time disappears), regression
(boosting) trees store their scalar leaf weight.  Accumulation across
trees is left to the caller, which adds per-tree contributions in the
same order as the legacy loop — keeping ensemble predictions bit-identical
to the per-tree path (pinned by ``tests/test_perf_fastpaths.py``).
"""

from __future__ import annotations

import numpy as np

__all__ = ["FlatForest"]


class FlatForest:
    """Concatenated node arrays of many fitted trees.

    Parameters
    ----------
    feature, threshold, children_left, children_right:
        Node arrays over all trees, children rebased to absolute node
        indices (``-1`` marks a leaf, matching the per-tree convention).
    roots:
        Absolute root index per tree, shape ``(n_trees,)``.
    value:
        Optional per-node payload: ``(n_nodes, k)`` class distributions
        (classification) or ``(n_nodes,)`` leaf weights (regression).
    """

    def __init__(
        self,
        feature: np.ndarray,
        threshold: np.ndarray,
        children_left: np.ndarray,
        children_right: np.ndarray,
        roots: np.ndarray,
        value: np.ndarray | None = None,
    ):
        self.feature_ = feature
        self.threshold_ = threshold
        self.children_left_ = children_left
        self.children_right_ = children_right
        self.roots_ = roots
        self.value_ = value
        # Absorbing transition arrays: a leaf's "children" point back at
        # the leaf itself, so the level loop needs no per-level frontier
        # compaction — finished entries just spin in place.  Leaf feature
        # is clamped to 0 for the X gather; the compared value is unused
        # because both branches lead back to the leaf.
        idx = np.arange(feature.shape[0])
        self._left_next_ = np.where(children_left >= 0, children_left, idx)
        self._right_next_ = np.where(children_right >= 0, children_right, idx)
        self._feature_safe_ = np.maximum(feature, 0)
        # Per-tree depth via node-level BFS: the level loop for a tree
        # only needs its own depth, and boosting ensembles mix near-stumps
        # with full trees — walking every tree to the global max would
        # triple the gather volume.
        n_trees = roots.shape[0]
        depth = np.zeros(n_trees, dtype=np.int64)
        for i in range(n_trees):
            frontier = roots[i:i + 1]
            d = 0
            while True:
                inner = frontier[feature[frontier] >= 0]
                if inner.size == 0:
                    break
                frontier = np.concatenate(
                    [children_left[inner], children_right[inner]]
                )
                d += 1
            depth[i] = d
        self.depth_ = depth
        self.max_depth_ = int(depth.max()) if n_trees else 0

    # ------------------------------------------------------------------
    @classmethod
    def from_trees(cls, trees, classes: np.ndarray | None = None) -> "FlatForest":
        """Flatten fitted trees into one node address space.

        ``trees`` may be classification trees (``value_`` + ``classes_``)
        or boosting regression trees (``weight_``).  For classification,
        pass the ensemble's full ``classes`` array: each tree's per-node
        distributions are scattered onto those columns once here, instead
        of once per predict call.
        """
        sizes = np.array([t.feature_.shape[0] for t in trees], dtype=np.int64)
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        total = int(offsets[-1])

        feature = np.empty(total, dtype=np.int64)
        threshold = np.empty(total, dtype=np.float64)
        left = np.empty(total, dtype=np.int64)
        right = np.empty(total, dtype=np.int64)
        if classes is not None:
            value: np.ndarray | None = np.zeros((total, classes.size))
        elif hasattr(trees[0], "weight_"):
            value = np.empty(total, dtype=np.float64)
        else:
            value = None

        for t, (tree, lo) in enumerate(zip(trees, offsets[:-1])):
            hi = lo + sizes[t]
            feature[lo:hi] = tree.feature_
            threshold[lo:hi] = tree.threshold_
            # Rebase children; keep -1 leaf sentinels.
            left[lo:hi] = np.where(tree.children_left_ >= 0,
                                   tree.children_left_ + lo, -1)
            right[lo:hi] = np.where(tree.children_right_ >= 0,
                                    tree.children_right_ + lo, -1)
            if classes is not None:
                cols = np.searchsorted(classes, tree.classes_)
                value[lo:hi, cols] = tree.value_
            elif value is not None:
                value[lo:hi] = tree.weight_

        return cls(feature, threshold, left, right,
                   offsets[:-1].copy(), value)

    @property
    def n_trees(self) -> int:
        """Number of flattened trees."""
        return self.roots_.shape[0]

    # ------------------------------------------------------------------
    # Row-chunk size: keeps the X gather working set (chunk × features
    # float64) L2-resident, which measures ~2x faster than one giant
    # frontier at fleet-scale query counts.
    _CHUNK = 2048

    def leaf_indices(self, X: np.ndarray) -> np.ndarray:
        """Absolute leaf node index per (tree, row): shape ``(n_trees, n)``.

        Per row chunk the joint frontier advances one level per iteration —
        a handful of NumPy gathers per *tree depth*, not per tree.
        """
        n = X.shape[0]
        depths = self.depth_
        threshold, fsafe = self.threshold_, self._feature_safe_
        lnext, rnext = self._left_next_, self._right_next_
        out = np.empty((self.n_trees, n), dtype=np.int64)
        # Group trees by depth so each group's level loop runs exactly its
        # own depth (no absorbed spinning past shallow trees' leaves).
        for d in np.unique(depths):
            sel = np.flatnonzero(depths == d)
            roots = self.roots_[sel]
            g = sel.shape[0]
            for s in range(0, n, self._CHUNK):
                e = min(s + self._CHUNK, n)
                m = e - s
                Xc = X[s:e]
                # Tree-major frontier: entry i*m + j walks the i-th tree
                # of the group, chunk row j.  No compaction — leaves are
                # absorbing.
                nodes = np.repeat(roots, m)
                rows = np.tile(np.arange(m), g)
                for _ in range(d):
                    xv = Xc[rows, fsafe[nodes]]
                    goes_left = xv <= threshold[nodes]
                    nodes = np.where(goes_left, lnext[nodes], rnext[nodes])
                out[sel, s:e] = nodes.reshape(g, m)
        return out

