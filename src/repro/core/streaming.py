"""Online classification of live workloads.

The paper's deployment vision (Section VI): models that "classify snapshots
of data from live workloads running in-progress".  This module wraps any
fitted window classifier into a streaming consumer: telemetry samples
arrive incrementally, a sliding 60-second buffer re-classifies on a
configurable hop, and predictions are smoothed over time (majority vote
with confidence), exactly how an operator-facing service would run.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field

import numpy as np

from repro.telemetry import N_GPU_SENSORS

__all__ = ["StreamPrediction", "OnlineWorkloadClassifier"]


@dataclass(frozen=True)
class StreamPrediction:
    """One emission of the online classifier."""

    sample_index: int          # stream position at emission time
    label: int                 # current window's predicted class
    smoothed_label: int        # majority vote over the vote window
    confidence: float          # fraction of recent votes agreeing


@dataclass
class OnlineWorkloadClassifier:
    """Sliding-window streaming wrapper around a fitted window model.

    Parameters
    ----------
    model:
        Fitted estimator with ``predict`` on ``(n, window, sensors)``
        tensors (any pipeline from :mod:`repro.models` qualifies).
    window:
        Samples per classification window (540 for the challenge models).
    hop:
        Re-classify every ``hop`` new samples once the buffer is full.
    vote_window:
        Number of recent window predictions pooled by the majority vote.
    monitor:
        Optional tap with an ``update_many(rows)`` method (e.g. a
        :class:`~repro.monitor.drift.SensorDriftDetector`): every pushed
        row is forwarded to it, in order, with one call per :meth:`push`,
        so single-stream deployments get drift detection without a second
        consumer of the telemetry.
    """

    model: object
    window: int = 540
    hop: int = 90
    vote_window: int = 5
    monitor: object = None
    _buffer: deque = field(default=None, repr=False)
    _since_last: int = field(default=0, repr=False)
    _votes: deque = field(default=None, repr=False)
    _n_seen: int = field(default=0, repr=False)

    def __post_init__(self):
        if self.window < 1 or self.hop < 1 or self.vote_window < 1:
            raise ValueError("window, hop and vote_window must be >= 1")
        if not hasattr(self.model, "predict"):
            raise TypeError("model must expose predict()")
        if self.monitor is not None and not hasattr(self.monitor,
                                                    "update_many"):
            raise TypeError("monitor must expose update_many(rows)")
        # deques with maxlen make the per-sample slide O(1); the old
        # list.pop(0) cost O(window) per sample.
        self._buffer = deque(maxlen=self.window)
        self._votes = deque(maxlen=self.vote_window)

    # ------------------------------------------------------------------
    def push(self, samples: np.ndarray) -> list[StreamPrediction]:
        """Feed new telemetry samples; returns any predictions emitted.

        ``samples`` is ``(k, n_sensors)`` — one or more new rows of the
        live series, in time order.  Bulk blocks are consumed segment by
        segment (each segment runs to the next emission point), extending
        the buffer once per segment instead of once per row; emissions
        are identical to pushing the same rows one at a time, which the
        parity suite pins.
        """
        samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
        if samples.shape[1] != N_GPU_SENSORS:
            raise ValueError(
                f"expected {N_GPU_SENSORS} sensors per sample, "
                f"got {samples.shape[1]}"
            )
        if self.monitor is not None:
            self.monitor.update_many(samples)
        out: list[StreamPrediction] = []
        pos, n = 0, samples.shape[0]
        while pos < n:
            # Rows until the next possible emission: fill the buffer,
            # then honor the hop (the first-ever window emits as soon as
            # the buffer fills).
            need_full = self.window - len(self._buffer)
            if self._votes:
                due = max(need_full, self.hop - self._since_last, 1)
            else:
                due = max(need_full, 1)
            block = samples[pos : pos + due]
            pos += block.shape[0]
            self._buffer.extend(block)
            self._n_seen += block.shape[0]
            self._since_last += block.shape[0]
            if len(self._buffer) == self.window and (
                self._since_last >= self.hop or len(self._votes) == 0
            ):
                out.append(self._classify())
                self._since_last = 0
        return out

    def _classify(self) -> StreamPrediction:
        window = np.stack(self._buffer)[None, :, :]
        label = int(np.asarray(self.model.predict(window))[0])
        self._votes.append(label)
        counts = Counter(self._votes)
        smoothed, n_agree = counts.most_common(1)[0]
        return StreamPrediction(
            sample_index=self._n_seen,
            label=label,
            smoothed_label=int(smoothed),
            confidence=n_agree / len(self._votes),
        )

    def reset(self) -> None:
        """Clear buffered samples and votes (e.g. when a new job starts)."""
        self._buffer.clear()
        self._votes.clear()
        self._since_last = 0
        self._n_seen = 0

    @property
    def ready(self) -> bool:
        """Whether a full window has been buffered."""
        return len(self._buffer) == self.window
