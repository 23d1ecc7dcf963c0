"""One time loop for every first-order recurrence of a release.

The simulator's AR(1) noises and thermal lags are all single-pole IIR
filters ``y[k] = b0·x[k] + z``, ``z = 0·x[k] − a1·y[k]`` (direct form II
transposed, as :func:`scipy.signal.lfilter` runs them).  Filtering each
series on its own is a Python call per series; :func:`first_order_pass`
instead steps every queued series through time together, one vectorized
update per time step.  It repeats lfilter's floating-point operations in
lfilter's order and operand order, so with finite coefficients each
output is bit-for-bit the series lfilter returns — signed zeros,
infinities and subnormals in the input included — and NaN where lfilter
returns NaN (which NaN payload depends on the numpy build).

Layout.  Series are sorted by length (longest first) and cut into tiles of
:data:`TILE` steps, so the series alive at a step are a prefix of the
sorted order.  Each series occupies whole tiles of one flat buffer (it is
padded to a multiple of :data:`TILE`, not to the longest series).  A tile
of all live series is gathered into one time-major ``(TILE, live)`` block,
stepped through, and scattered back.  Lanes past a series' end hold
garbage that no other lane reads and nothing copies out.

Cost.  A step costs three ufunc dispatches however few series share it,
so a release's 600 series pass in about twice the time of per-series
lfilter calls, but one job alone runs several times slower than lfilter's
C loop (EXPERIMENTS.md A23).
"""

from __future__ import annotations

import numpy as np

__all__ = ["TILE", "Recurrences", "first_order_pass"]

#: Time steps per tile.  Three ``(TILE, n_series)`` float64 blocks stay in
#: cache: 64 and 128 timed alike, 256 and 512 slower (EXPERIMENTS.md A23).
TILE = 64


def first_order_pass(xs, b0, a1, zi) -> None:
    """Filter every 1-D float64 array of ``xs`` in place, in one time loop.

    Series ``i`` runs ``lfilter([b0[i]], [1.0, a1[i]], xs[i],
    zi=[zi[i]])``.  Lengths may differ and may be zero.
    """
    n = len(xs)
    if n == 0:
        return
    lengths = np.array([x.shape[0] for x in xs], dtype=np.intp)
    order = np.argsort(-lengths, kind="stable")
    length = lengths[order]
    tiles = -(-length // TILE)
    first = np.zeros(n, dtype=np.intp)
    np.cumsum(tiles[:-1], out=first[1:])
    blocks = np.empty((int(tiles.sum()), TILE))
    flat = blocks.reshape(-1)
    starts = (first * TILE).tolist()
    for s, ln, i in zip(starts, length.tolist(), order.tolist()):
        flat[s:s + ln] = xs[i]

    b0 = np.asarray(b0, dtype=np.float64)[order]
    a1 = np.asarray(a1, dtype=np.float64)[order]
    z = np.asarray(zi, dtype=np.float64)[order]
    x_tile = np.empty((TILE, n))    # x, then 0·x
    bx_tile = np.empty((TILE, n))   # b0·x
    y_tile = np.empty((TILE, n))
    ay = np.empty(n)
    add, multiply, subtract = np.add, np.multiply, np.subtract
    with np.errstate(all="ignore"):
        for t in range(int(tiles[0])):
            live = int(np.count_nonzero(tiles > t))
            rows = first[:live] + t
            x, bx, y = x_tile[:, :live], bx_tile[:, :live], y_tile[:, :live]
            np.copyto(x, blocks[rows].T)
            multiply(x, b0[:live], out=bx)
            multiply(x, 0.0, out=x)
            zl, al, ayl = z[:live], a1[:live], ay[:live]
            # Three ufuncs per step, none writing over its own operand:
            # an in-place add may swap operands, and with two NaN
            # operands x86 returns the first one's payload.
            for bxk, xk, yk in zip(bx, x, y):
                add(bxk, zl, out=yk)
                multiply(yk, al, out=ayl)
                subtract(xk, ayl, out=zl)
            blocks[rows] = y.T
    for s, ln, i in zip(starts, length.tolist(), order.tolist()):
        xs[i][...] = flat[s:s + ln]


class Recurrences:
    """First-order recurrences queued for one :func:`first_order_pass`.

    :meth:`add` returns the queued input array itself; :meth:`run`
    filters it in place, so the caller's handle then holds the output.
    """

    def __init__(self):
        self._xs: list[np.ndarray] = []
        self._b0: list[float] = []
        self._a1: list[float] = []
        self._zi: list[float] = []

    def add(self, x: np.ndarray, b0: float, a1: float, zi: float = 0.0) -> np.ndarray:
        """Queue ``lfilter([b0], [1.0, a1], x, zi=[zi])`` on float64 ``x``."""
        self._xs.append(x)
        self._b0.append(b0)
        self._a1.append(a1)
        self._zi.append(zi)
        return x

    def ar1(self, n: int, std: float, corr: float, rng: np.random.Generator) -> np.ndarray:
        """Queue temporally correlated (AR(1)) noise with stationary std ``std``.

        Draws the white noise now; the returned array holds the AR(1)
        series once :meth:`run` has run.  A non-positive ``std`` draws
        nothing and returns zeros.
        """
        if std <= 0:
            return np.zeros(n)
        white = rng.normal(0.0, std * np.sqrt(1.0 - corr**2), size=n)
        return self.add(white, 1.0, -corr)

    def run(self) -> None:
        """Filter every queued series in place, then empty the queue."""
        first_order_pass(self._xs, self._b0, self._a1, self._zi)
        self.__init__()
