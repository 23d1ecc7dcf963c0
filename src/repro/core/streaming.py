"""Online classification of one live workload.

The paper's deployment vision (Section VI): models that "classify snapshots
of data from live workloads running in-progress".
:class:`OnlineWorkloadClassifier` is the single-stream form of that
service.  It wraps one :class:`~repro.serve.session.StreamSession`, the one
sliding-window implementation (buffer, hop cadence and majority vote),
together with a fitted model, and classifies each window as soon as the
session cuts it.  :class:`~repro.serve.server.InferenceServer` runs the same
sessions for many streams at once and batches their windows into shared
``predict`` calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.serve.session import StreamPrediction, StreamSession

__all__ = ["StreamPrediction", "OnlineWorkloadClassifier"]


@dataclass
class OnlineWorkloadClassifier:
    """Sliding-window streaming wrapper around a fitted window model.

    Parameters
    ----------
    model:
        Fitted estimator with ``predict`` on ``(n, window, sensors)``
        tensors (any pipeline from :mod:`repro.models` qualifies).  It is
        called once per due window, on the session's float32 snapshot.
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
    _session: StreamSession = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._session = StreamSession(None, window=self.window, hop=self.hop,
                                      vote_window=self.vote_window)
        if not hasattr(self.model, "predict"):
            raise TypeError("model must expose predict()")
        if self.monitor is not None and not hasattr(self.monitor,
                                                    "update_many"):
            raise TypeError("monitor must expose update_many(rows)")

    def push(self, samples: np.ndarray) -> list[StreamPrediction]:
        """Feed new telemetry samples; returns any predictions emitted.

        ``samples`` is ``(k, n_sensors)`` — one or more new rows of the
        live series, in time order.  Emissions do not depend on how the
        stream is split into pushes.  If ``predict`` raises, the rows stay
        buffered, the failed window and the push's later windows are
        dropped without a vote, and the exception propagates.
        """
        samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
        requests = self._session.push(samples)
        if self.monitor is not None:
            self.monitor.update_many(samples)
        out: list[StreamPrediction] = []
        for i, req in enumerate(requests):
            try:
                label = int(
                    np.asarray(self.model.predict(req.window[None]))[0])
            except BaseException:
                for dropped in requests[i:]:
                    self._session.cancel(dropped)
                raise
            out.append(self._session.complete(req, label))
        return out

    def reset(self) -> None:
        """Clear buffered samples and votes (e.g. when a new job starts)."""
        self._session.reset()

    @property
    def ready(self) -> bool:
        """Whether a full window has been buffered."""
        return self._session.ready
