"""The split threshold rule shared by every tree learner."""

from __future__ import annotations

__all__ = ["split_threshold"]


def split_threshold(below: float, above: float) -> float:
    """Threshold between two adjacent sorted values, ``below < above``.

    The midpoint, unless it fails ``below <= t < above``: the midpoint of
    adjacent floats can round up to ``above``, and ``below + above`` can
    overflow.  Either would make ``x <= t`` send different samples left
    than the split that was scored, so the rule falls back to ``below``.
    """
    threshold = 0.5 * (below + above)
    if not below <= threshold < above:
        threshold = below
    return float(threshold)
