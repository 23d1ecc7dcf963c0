"""Consistent-hash ring: per-job session affinity with minimal churn.

Streaming classification is stateful — a job's sliding window and vote
history live on exactly one worker — so the fleet needs *stable* routing:
the same ``job_id`` must land on the same worker tick after tick, and a
worker joining or leaving must move as few sessions as possible (every
moved session pays a history-replay rebuild).

:class:`HashRing` is the classic construction: each worker is hashed to
``vnodes`` pseudo-random positions on a 32-bit circle (CRC32, the same
cheap deterministic hash the canary cohorts use), a key is owned by the
first virtual node at or clockwise of its own position, and resizing
obeys two exact invariants the hypothesis suite pins:

* **adding** worker W only moves keys *onto* W — every other key keeps
  its owner;
* **removing** worker W only moves W's own keys — they scatter to the
  survivors, everyone else is untouched.

Expected churn on a resize is ~``1/n`` of the keyspace; virtual nodes
keep per-worker load within a constant factor of fair share.
"""

from __future__ import annotations

import bisect
import zlib

__all__ = ["HashRing"]

_HASH_SPACE = 1 << 32


class HashRing:
    """CRC32 consistent-hash ring over named workers.

    Parameters
    ----------
    workers:
        Initial worker ids (any strings; order does not matter).
    vnodes:
        Virtual nodes per worker.  More vnodes → better balance and
        finer-grained churn; ≥64 keeps per-worker key share within a
        small constant of fair (pinned by tests at 3x).
    salt:
        Namespace mixed into every hash, so independent rings (e.g.
        routing vs. canary cohorts) decorrelate.
    """

    def __init__(self, workers=(), *, vnodes: int = 128, salt: str = "repro-fleet"):
        if vnodes < 1:
            raise ValueError(f"vnodes must be >= 1, got {vnodes}")
        self.vnodes = int(vnodes)
        self.salt = str(salt)
        self._workers: set[str] = set()
        #: Sorted ``(position, worker_id, vnode_index)`` triples; ties on
        #: position break deterministically by worker id then index.
        self._points: list[tuple[int, str, int]] = []
        for worker in workers:
            self.add(worker)

    # ------------------------------------------------------------------
    def _key_position(self, key) -> int:
        return zlib.crc32(f"{self.salt}|key|{key}".encode()) % _HASH_SPACE

    def _vnode_position(self, worker: str, index: int) -> int:
        return zlib.crc32(
            f"{self.salt}|vnode|{worker}|{index}".encode()
        ) % _HASH_SPACE

    # ------------------------------------------------------------------
    def add(self, worker: str) -> None:
        """Place ``worker``'s virtual nodes on the ring."""
        worker = str(worker)
        if worker in self._workers:
            raise ValueError(f"worker {worker!r} already on the ring")
        self._workers.add(worker)
        for i in range(self.vnodes):
            bisect.insort(self._points, (self._vnode_position(worker, i), worker, i))

    def remove(self, worker: str) -> None:
        """Remove ``worker``'s virtual nodes (its keys scatter to survivors)."""
        worker = str(worker)
        if worker not in self._workers:
            raise KeyError(f"worker {worker!r} not on the ring")
        self._workers.discard(worker)
        self._points = [p for p in self._points if p[1] != worker]

    def owner(self, key) -> str:
        """The worker owning ``key``: first vnode clockwise of its hash."""
        if not self._points:
            raise LookupError("hash ring has no workers")
        pos = self._key_position(key)
        idx = bisect.bisect_left(self._points, (pos, "", -1))
        if idx == len(self._points):        # wrap past 2^32
            idx = 0
        return self._points[idx][1]

    def owners(self, keys) -> dict:
        """Batch :meth:`owner` lookup: ``{key: worker_id}``."""
        return {key: self.owner(key) for key in keys}

    # ------------------------------------------------------------------
    @property
    def workers(self) -> list[str]:
        """Current worker ids, sorted."""
        return sorted(self._workers)

    def __len__(self) -> int:
        return len(self._workers)

    def __contains__(self, worker) -> bool:
        return str(worker) in self._workers

    def spans(self) -> dict[str, float]:
        """Fraction of the hash space each worker owns (sums to 1.0)."""
        if not self._points:
            return {}
        out = {worker: 0 for worker in self._workers}
        prev = self._points[-1][0] - _HASH_SPACE  # wrap-around arc
        for pos, worker, _ in self._points:
            out[worker] += pos - prev
            prev = pos
        return {worker: arc / _HASH_SPACE for worker, arc in out.items()}

    @staticmethod
    def churn(before: dict, after: dict) -> float:
        """Fraction of keys whose owner differs between two assignments.

        Both arguments are ``{key: worker_id}`` maps over the *same* key
        set (as produced by :meth:`owners`); ``tests/test_fleet_ring.py``
        bounds this against the ~``1/n`` ideal.
        """
        if set(before) != set(after):
            raise ValueError("churn() needs assignments over the same keys")
        if not before:
            return 0.0
        moved = sum(1 for key, owner in before.items() if after[key] != owner)
        return moved / len(before)
