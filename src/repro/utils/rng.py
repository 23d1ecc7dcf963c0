"""Deterministic random-number plumbing.

Everything in this repository threads an explicit
:class:`numpy.random.Generator` instead of touching NumPy's legacy global
state.  This module provides the conversion and fan-out helpers that make
that convenient:

* :func:`as_generator` normalises ``None | int | Generator`` inputs.
* :func:`spawn_generators` derives independent child streams, which is how
  the simulator gives every job its own stream.
* :class:`SeedSequenceFactory` hands out named, order-independent streams
  so that e.g. the "noise" stream and the "schedule" stream of a simulation
  do not perturb each other when one of them draws more numbers.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

import numpy as np

__all__ = ["as_generator", "spawn_generators", "SeedSequenceFactory"]


def as_generator(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for any accepted seed form.

    Parameters
    ----------
    seed:
        ``None`` for OS entropy, an ``int`` for a reproducible stream, or an
        existing ``Generator`` which is passed through unchanged (callers
        share state in that case, which is the desired composition for
        sequential pipelines).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None:
        return np.random.default_rng()
    if isinstance(seed, (int, np.integer)):
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        return np.random.default_rng(int(seed))
    raise TypeError(f"seed must be None, int, or numpy Generator, got {type(seed)!r}")


def spawn_generators(
    seed: int | np.random.Generator | None, n: int
) -> list[np.random.Generator]:
    """Derive ``n`` statistically independent child generators.

    Children are derived via :class:`numpy.random.SeedSequence` spawning, so
    the i-th child is identical no matter how many draws other children make
    — the property that keeps per-job simulation streams stable whatever
    else draws from the root.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if isinstance(seed, np.random.Generator):
        # Derive a fresh entropy root from the generator so children are
        # decoupled from subsequent use of the parent.
        root = np.random.SeedSequence(seed.integers(0, 2**63 - 1, size=4).tolist())
    else:
        root = np.random.SeedSequence(seed)
    return [np.random.default_rng(s) for s in root.spawn(n)]


def _stable_hash(name: str) -> int:
    """Map a stream name to a stable 64-bit integer (process-independent)."""
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class SeedSequenceFactory:
    """Hand out named random streams derived from one root seed.

    Streams are keyed by string name; requesting the same name twice returns
    generators with identical initial state, and the set of names requested
    does not influence any individual stream.  This is the backbone of
    simulator determinism: ``factory.stream("job-0042")`` is the same series
    of numbers whatever order the jobs are generated in.

    Examples
    --------
    >>> f = SeedSequenceFactory(1234)
    >>> a = f.stream("noise").normal()
    >>> b = SeedSequenceFactory(1234).stream("noise").normal()
    >>> a == b
    True
    """

    def __init__(self, root_seed: int | None):
        if root_seed is not None and root_seed < 0:
            raise ValueError(f"root_seed must be non-negative, got {root_seed}")
        self._root_seed = root_seed if root_seed is not None else int(
            np.random.SeedSequence().entropy % (2**63)
        )

    @property
    def root_seed(self) -> int:
        """The root seed this factory derives all streams from."""
        return self._root_seed

    def stream(self, name: str) -> np.random.Generator:
        """Return a fresh generator for the named stream."""
        seq = np.random.SeedSequence([self._root_seed, _stable_hash(name)])
        return np.random.default_rng(seq)

    def streams(self, names: Iterable[str]) -> dict[str, np.random.Generator]:
        """Return a dict of named streams (convenience fan-out)."""
        return {name: self.stream(name) for name in names}

    def child(self, name: str) -> "SeedSequenceFactory":
        """Derive a sub-factory, e.g. one per simulated job."""
        return SeedSequenceFactory(
            (self._root_seed * 0x9E3779B97F4A7C15 + _stable_hash(name)) % (2**63)
        )
