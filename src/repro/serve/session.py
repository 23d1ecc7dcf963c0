"""Per-job sliding windows: the one window implementation.

The paper's deployment case (Section VI) classifies "snapshots of data
from live workloads running in-progress".  :class:`StreamSession` owns
everything about the sliding window of one stream: the buffer, the rule
for when a window is due (full buffer, then every ``hop`` samples) and the
majority vote over recent labels.  It does not call a model; it splits
the cycle in two:

1. ``push(samples)`` buffers telemetry and returns :class:`WindowRequest`
   snapshots whenever a classification is due.
2. ``complete(request, label)`` folds a label produced elsewhere into the
   session's vote and returns the :class:`StreamPrediction`.

:class:`~repro.serve.server.InferenceServer` runs many sessions and
classifies their due windows together in batched ``predict`` calls;
:class:`~repro.core.streaming.OnlineWorkloadClassifier` wraps one session
and a model, and classifies each due window as it is cut.  Both therefore
emit at the same samples with the same votes.

Telemetry is buffered in a contiguous float32 ring (the dtype every model
in this repo trains on): each row is written twice, at ``pos`` and
``pos + window``, so the most recent window is *always* one contiguous
slice of the doubled buffer and a snapshot is a single small memcpy.
Rows are copied in per-segment bulk writes between emission points rather
than one Python iteration per row.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field

import numpy as np

from repro.telemetry import N_GPU_SENSORS

__all__ = ["StreamPrediction", "WindowRequest", "StreamSession"]


@dataclass(frozen=True)
class StreamPrediction:
    """One emission of a stream: a classified window and the vote."""

    sample_index: int          # stream position at emission time
    label: int                 # current window's predicted class
    smoothed_label: int        # majority vote over the vote window
    confidence: float          # fraction of recent votes agreeing


@dataclass(frozen=True)
class WindowRequest:
    """A window snapshot awaiting classification.

    ``seq`` orders requests within a session; ``created_s`` is the server
    clock at snapshot time, from which emission latency is measured.
    ``trace`` is the request's trace context (or None when untraced) —
    it rides through the batcher so the emit path can attach batch-wait,
    predict and emit spans to the originating request's tree.
    ``origin`` is the :class:`StreamSession` that cut the request, so a
    server can tell it from a later session with the same ``session_id``.
    """

    session_id: object          # opaque job/stream key
    seq: int                    # per-session request counter (0-based)
    sample_index: int           # stream position when the window closed
    window: np.ndarray          # (window, n_sensors) contiguous float32 snapshot
    created_s: float = 0.0
    trace: object = None        # TraceContext | None; opaque to the session
    origin: object = field(default=None, repr=False, compare=False)


@dataclass
class StreamSession:
    """Sliding-window state for one job stream.

    ``window`` samples per classification, re-classify every ``hop``
    samples once full, majority vote over the last ``vote_window`` labels.
    ``session_id`` is an opaque key stamped onto every request.
    """

    session_id: object
    window: int = 540
    hop: int = 90
    vote_window: int = 5
    _ring: np.ndarray = field(default=None, repr=False)
    _pos: int = field(default=0, repr=False)
    _fill: int = field(default=0, repr=False)
    _votes: deque = field(default=None, repr=False)
    _since_last: int = field(default=0, repr=False)
    _n_seen: int = field(default=0, repr=False)
    _next_seq: int = field(default=0, repr=False)
    _pending: int = field(default=0, repr=False)

    def __post_init__(self):
        if self.window < 1 or self.hop < 1 or self.vote_window < 1:
            raise ValueError("window, hop and vote_window must be >= 1")
        # Doubled ring: row i lives at slots i % window and i % window +
        # window, so the last `window` rows are always ring[pos : pos+window].
        self._ring = np.empty((2 * self.window, N_GPU_SENSORS), dtype=np.float32)
        self._votes = deque(maxlen=self.vote_window)

    # ------------------------------------------------------------------
    def _write_rows(self, rows: np.ndarray) -> None:
        """Bulk-append rows to the ring (both copies), wrap-aware."""
        m = rows.shape[0]
        w = self.window
        if m >= w:                      # only the last `window` rows survive
            rows = rows[m - w:]
            self._pos = (self._pos + (m - w)) % w
            m = w
        p = self._pos
        first = min(w - p, m)
        self._ring[p:p + first] = rows[:first]
        self._ring[p + w:p + w + first] = rows[:first]
        rest = m - first
        if rest:
            self._ring[:rest] = rows[first:]
            self._ring[w:w + rest] = rows[first:]
        self._pos = (p + m) % w

    def _snapshot(self) -> np.ndarray:
        """The most recent full window, oldest row first (one memcpy)."""
        return self._ring[self._pos:self._pos + self.window].copy()

    def push(self, samples: np.ndarray, *, now_s: float = 0.0,
             trace=None) -> list[WindowRequest]:
        """Buffer new telemetry rows; returns windows due for classification.

        ``samples`` is ``(k, n_sensors)`` in time order.  A request is cut
        when the buffer is full and either ``hop`` new samples arrived
        since the last request or no prediction has ever been produced or
        requested.
        ``trace`` (a trace context or None) is stamped onto every request
        this push cuts; window cutting itself never depends on it.

        Rows are consumed in bulk segments between emission points: the
        next emission row is computed from counters alone, so no per-row
        Python work touches the telemetry itself.
        """
        samples = np.atleast_2d(np.asarray(samples, dtype=np.float32))
        if samples.shape[1] != N_GPU_SENSORS:
            raise ValueError(
                f"expected {N_GPU_SENSORS} sensors per sample, "
                f"got {samples.shape[1]}"
            )
        out: list[WindowRequest] = []
        w, hop = self.window, self.hop
        k = samples.shape[0]
        consumed = 0
        while consumed < k:
            never_requested = not self._votes and not self._pending
            # Rows until the next emission, from counters alone: a window
            # is cut once the buffer is full AND (`hop` rows arrived since
            # the last cut, or nothing was ever cut).
            if never_requested:
                due = (w - self._fill) if self._fill < w else 1
            else:
                due = max(w - self._fill, hop - self._since_last, 1)
            step = min(due, k - consumed)
            self._write_rows(samples[consumed:consumed + step])
            consumed += step
            self._fill = min(w, self._fill + step)
            self._n_seen += step
            self._since_last += step
            if step == due:
                out.append(
                    WindowRequest(
                        session_id=self.session_id,
                        seq=self._next_seq,
                        sample_index=self._n_seen,
                        window=self._snapshot(),
                        created_s=now_s,
                        trace=trace,
                        origin=self,
                    )
                )
                self._next_seq += 1
                self._pending += 1
                self._since_last = 0
        return out

    def complete(self, request: WindowRequest, label: int) -> StreamPrediction:
        """Fold a classified window back into the session's vote.

        Must be called once per request, in ``seq`` order (the batcher
        preserves submission order, so this holds by construction).
        """
        self.cancel(request)
        label = int(label)
        self._votes.append(label)
        counts = Counter(self._votes)
        smoothed, n_agree = counts.most_common(1)[0]
        return StreamPrediction(
            sample_index=request.sample_index,
            label=label,
            smoothed_label=int(smoothed),
            confidence=n_agree / len(self._votes),
        )

    def cancel(self, request: WindowRequest) -> None:
        """Retire a request without a label (e.g. its ``predict`` raised).

        The request stops counting as pending and its window never reaches
        the vote; :meth:`complete` retires a request the same way first.
        """
        if request.session_id != self.session_id:
            raise ValueError(
                f"request for session {request.session_id!r} retired on "
                f"session {self.session_id!r}"
            )
        if self._pending <= 0:
            raise RuntimeError("no pending request to retire")
        self._pending -= 1

    def reset(self) -> None:
        """Clear buffered samples and votes (e.g. when the job restarts)."""
        self._pos = 0
        self._fill = 0
        self._votes.clear()
        self._since_last = 0
        self._n_seen = 0
        self._pending = 0

    @property
    def ready(self) -> bool:
        """Whether a full window has been buffered."""
        return self._fill == self.window

    @property
    def pending(self) -> int:
        """Requests issued by ``push`` but not yet completed."""
        return self._pending

    @property
    def n_seen(self) -> int:
        """Total samples consumed since creation/reset."""
        return self._n_seen
