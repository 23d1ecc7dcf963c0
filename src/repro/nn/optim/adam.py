"""Adam optimizer (Kingma & Ba) with decoupled weight decay option."""

from __future__ import annotations

import numpy as np

from repro.nn.optim.sgd import Optimizer

__all__ = ["Adam"]


class Adam(Optimizer):
    """Adam with bias correction.

    ``decoupled_weight_decay=True`` gives AdamW behaviour (decay applied to
    the weights directly, not through the moment estimates).
    """

    def __init__(
        self,
        params,
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
        decoupled_weight_decay: bool = False,
    ):
        super().__init__(params, lr)
        b1, b2 = betas
        if not (0.0 <= b1 < 1.0 and 0.0 <= b2 < 1.0):
            raise ValueError(f"betas must be in [0, 1), got {betas}")
        # Python floats, so no scalar's type can change the arithmetic
        self.betas = (float(b1), float(b2))
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self.decoupled_weight_decay = decoupled_weight_decay
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._t = 0
        # Per-parameter step scratch (two buffers each), allocated on first
        # use and reused across steps; excluded from state_dict.
        self._scratch: list[tuple[np.ndarray, np.ndarray]] | None = None

    def state_dict(self) -> dict:
        """Copy of lr, step count, and first/second moment estimates."""
        state = super().state_dict()
        state["m"] = [m.copy() for m in self._m]
        state["v"] = [v.copy() for v in self._v]
        state["t"] = self._t
        return state

    def load_state_dict(self, state: dict) -> None:
        """Restore state saved by :meth:`state_dict`."""
        super().load_state_dict(state)
        if len(state["m"]) != len(self._m):
            raise ValueError(
                f"moment count mismatch: checkpoint has {len(state['m'])}, "
                f"optimizer has {len(self._m)} parameters"
            )
        self._m = [m.copy() for m in state["m"]]
        self._v = [v.copy() for v in state["v"]]
        self._t = int(state["t"])

    def step(self) -> None:
        """Apply one optimization update from accumulated gradients.

        One in-place ufunc sequence over two per-parameter scratch buffers.
        ``eps``, ``betas`` and ``weight_decay`` are Python floats, so the
        moments and the update stay float32 (NEP 50 weak promotion).  The
        last multiply, ``lr * update``, follows ``lr``'s type: a Python
        float keeps it float32, while the ``np.float64`` that
        :class:`~repro.nn.optim.schedulers.CyclicCosineLR` sets promotes it
        to float64 before the subtraction rounds it back into the weights.
        The allocating form this replaces is kept as a parity oracle in
        ``tests/oracles/nn.py``.
        """
        self._t += 1
        b1, b2 = self.betas
        bc1 = 1.0 - b1**self._t
        bc2 = 1.0 - b2**self._t
        wd = self.weight_decay
        if self._scratch is None:
            self._scratch = [
                (np.empty_like(p.data), np.empty_like(p.data))
                for p in self.params
            ]
        for p, m, v, (u, w) in zip(self.params, self._m, self._v,
                                   self._scratch):
            if p.grad is None:
                continue
            g = p.grad
            if wd and not self.decoupled_weight_decay:
                np.multiply(p.data, wd, out=w)
                np.add(g, w, out=w)
                g = w
            m *= b1
            np.multiply(g, 1.0 - b1, out=u)
            m += u
            v *= b2
            np.multiply(g, 1.0 - b2, out=u)
            np.multiply(u, g, out=u)
            v += u
            np.divide(m, bc1, out=u)
            np.divide(v, bc2, out=w)
            np.sqrt(w, out=w)
            np.add(w, self.eps, out=w)
            np.divide(u, w, out=u)
            if wd and self.decoupled_weight_decay:
                np.multiply(p.data, wd, out=w)
                np.add(u, w, out=u)
            p.data -= self.lr * u
