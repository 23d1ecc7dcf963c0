"""Regression tree on gradient/Hessian statistics (one boosting round).

Split gain follows Chen & Guestrin eq. (7)::

    gain = 1/2 [ G_L²/(H_L+λ) + G_R²/(H_R+λ) − G²/(H+λ) ] − γ

and leaf weights use the L1-thresholded Newton step::

    w = −sign(G) · max(|G| − α, 0) / (H + λ)

Like the CART splitter, all split positions of a feature are scored at once
from prefix sums of (g, h).
"""

from __future__ import annotations

import numpy as np

from repro.ml.tree.decision_tree import leaf_indices
from repro.ml.tree.threshold import split_threshold
from repro.utils.rng import as_generator

__all__ = ["BoostingTree"]


def _leaf_weight(G: float, H: float, reg_alpha: float, reg_lambda: float) -> float:
    """Newton leaf weight with soft-thresholded L1."""
    mag = max(abs(G) - reg_alpha, 0.0)
    return -np.sign(G) * mag / (H + reg_lambda)


def _score(G: float, H: float, reg_alpha: float, reg_lambda: float) -> float:
    """Optimal structure score contribution of one leaf (≥ 0)."""
    mag = max(abs(G) - reg_alpha, 0.0)
    return mag * mag / (H + reg_lambda)


class BoostingTree:
    """One regression tree fitted to (gradient, Hessian) targets.

    Not a public estimator — :class:`GradientBoostingClassifier` drives it.
    ``split_gains_`` accumulates realized gain per feature for the
    importance analysis.
    """

    def __init__(
        self,
        max_depth: int = 6,
        min_child_weight: float = 1.0,
        gamma: float = 0.0,
        reg_alpha: float = 0.0,
        reg_lambda: float = 1.0,
        colsample: float = 1.0,
        random_state: int | np.random.Generator | None = None,
    ):
        if max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {max_depth}")
        if not 0.0 < colsample <= 1.0:
            raise ValueError(f"colsample must be in (0, 1], got {colsample}")
        self.max_depth = max_depth
        self.min_child_weight = min_child_weight
        self.gamma = gamma
        self.reg_alpha = reg_alpha
        self.reg_lambda = reg_lambda
        self.colsample = colsample
        self.random_state = random_state

    def _best_split_feature(
        self, x: np.ndarray, g: np.ndarray, h: np.ndarray
    ) -> tuple[float, float] | None:
        """Best (gain, threshold) on one feature, or None."""
        order = np.argsort(x, kind="stable")
        xs = x[order]
        Gl = np.cumsum(g[order])
        Hl = np.cumsum(h[order])
        G, H = Gl[-1], Hl[-1]
        n = xs.shape[0]
        valid = np.empty(n, dtype=bool)
        valid[:-1] = xs[1:] > xs[:-1]
        valid[-1] = False
        Hr = H - Hl
        valid &= (Hl >= self.min_child_weight) & (Hr >= self.min_child_weight)
        if not valid.any():
            return None
        a, lam = self.reg_alpha, self.reg_lambda
        magL = np.maximum(np.abs(Gl) - a, 0.0)
        magR = np.maximum(np.abs(G - Gl) - a, 0.0)
        magP = max(abs(G) - a, 0.0)
        gain = 0.5 * (
            magL**2 / (Hl + lam) + magR**2 / (Hr + lam) - magP**2 / (H + lam)
        ) - self.gamma
        gain[~valid] = -np.inf
        best = int(np.argmax(gain))
        if gain[best] <= 0.0:
            return None
        return float(gain[best]), split_threshold(xs[best], xs[best + 1])

    def fit(self, X: np.ndarray, g: np.ndarray, h: np.ndarray) -> "BoostingTree":
        """Fit to training data; returns self."""
        n, p = X.shape
        rng = as_generator(self.random_state)
        m = max(1, int(round(self.colsample * p)))

        feature: list[int] = []
        threshold: list[float] = []
        left: list[int] = []
        right: list[int] = []
        weight: list[float] = []
        self.split_gains_ = np.zeros(p)

        def new_node() -> int:
            feature.append(-1)
            threshold.append(0.0)
            left.append(-1)
            right.append(-1)
            weight.append(0.0)
            return len(feature) - 1

        root = new_node()
        stack: list[tuple[int, np.ndarray, int]] = [(root, np.arange(n), 0)]
        while stack:
            node, idx, depth = stack.pop()
            G = float(g[idx].sum())
            H = float(h[idx].sum())
            weight[node] = _leaf_weight(G, H, self.reg_alpha, self.reg_lambda)
            if depth >= self.max_depth or idx.size < 2:
                continue
            cand = np.arange(p) if m == p else rng.choice(p, size=m, replace=False)
            best_gain, best_feat, best_thr = 0.0, -1, 0.0
            Xn, gn, hn = X[idx], g[idx], h[idx]
            for f in cand:
                res = self._best_split_feature(Xn[:, f], gn, hn)
                if res is not None and res[0] > best_gain:
                    best_gain, best_feat, best_thr = res[0], int(f), res[1]
            if best_feat < 0:
                continue
            self.split_gains_[best_feat] += best_gain
            go_left = Xn[:, best_feat] <= best_thr
            feature[node] = best_feat
            threshold[node] = best_thr
            l_node, r_node = new_node(), new_node()
            left[node], right[node] = l_node, r_node
            stack.append((l_node, idx[go_left], depth + 1))
            stack.append((r_node, idx[~go_left], depth + 1))

        self.feature_ = np.array(feature, dtype=np.int64)
        self.threshold_ = np.array(threshold, dtype=np.float64)
        self.children_left_ = np.array(left, dtype=np.int64)
        self.children_right_ = np.array(right, dtype=np.int64)
        self.weight_ = np.array(weight, dtype=np.float64)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Leaf weight for every row (vectorized level walk)."""
        return self.weight_[leaf_indices(self, X)]
