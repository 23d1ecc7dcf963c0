"""Micro-batching engine: one ``predict`` per tick, not per session.

Tree-ensemble and NN pipelines in this repo are vectorized — classifying
``(n, 540, 7)`` costs far less than ``n`` separate ``(1, 540, 7)`` calls
(Python dispatch, per-call feature extraction setup, cache-cold trees).
The batcher exploits that: ready windows from *different* job sessions
accumulate in a queue and are stacked into a single model call when either
the batch fills (``max_batch``) or the oldest queued window has waited
``max_delay_s`` on the serving clock — the classic throughput/latency
micro-batching trade-off, both knobs explicit.

The engine is synchronous and clock-injected, so tests and the load
generator replay identical schedules deterministically.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.serve.metrics import MetricsRegistry
from repro.serve.session import WindowRequest

__all__ = ["BatchCompletion", "MicroBatcher"]


@dataclass(frozen=True)
class BatchCompletion:
    """One classified window leaving the batcher.

    ``flushed_s``/``predict_share_s`` let the emit path reconstruct the
    batch-wait and predict stages of the request's trace: the flush
    timestamp splits queue time from emit time on the serving clock, and
    the per-window share of the batched ``predict``'s wall time is the
    request's fair slice of model compute.
    """

    request: WindowRequest
    label: int
    waited_s: float             # queue time from submit to flush
    flushed_s: float = 0.0      # serving-clock time of the batch flush
    predict_share_s: float = 0.0  # this window's share of predict wall time


class MicroBatcher:
    """Coalesce window requests across sessions into batched predictions.

    Parameters
    ----------
    model:
        Fitted estimator with ``predict`` over ``(n, window, sensors)``.
    max_batch:
        Flush as soon as this many windows are queued.
    max_delay_s:
        Flush (on ``poll``) once the oldest queued window has waited this
        long, even if the batch is not full.
    clock:
        Monotonic time source; injectable for deterministic replay.
    metrics:
        Optional :class:`~repro.serve.metrics.MetricsRegistry`; records
        ``batch.size``/``batch.wait_s`` histograms and call counters.
    on_failure:
        Optional callable.  When ``predict`` raises (or returns the wrong
        shape), the failed batch has already left the queue; it is called
        with the batch's requests before the exception propagates, so the
        owner of their sessions can retire them.
    """

    def __init__(
        self,
        model,
        *,
        max_batch: int = 64,
        max_delay_s: float = 0.25,
        clock=time.monotonic,
        metrics: MetricsRegistry | None = None,
        on_failure=None,
    ):
        if not hasattr(model, "predict"):
            raise TypeError("model must expose predict()")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_delay_s < 0:
            raise ValueError(f"max_delay_s must be >= 0, got {max_delay_s}")
        self.model = model
        self.max_batch = max_batch
        self.max_delay_s = max_delay_s
        self.clock = clock
        self.metrics = metrics
        self.on_failure = on_failure
        self._queue: list[tuple[WindowRequest, float]] = []
        self._scratch: np.ndarray | None = None  # (max_batch, window, sensors)
        self.n_predict_calls = 0
        self.n_windows = 0

    # ------------------------------------------------------------------
    def submit(self, request: WindowRequest) -> list[BatchCompletion]:
        """Queue one window; flushes immediately when the batch fills."""
        self._queue.append((request, self.clock()))
        if len(self._queue) >= self.max_batch:
            return self.flush()
        return []

    def poll(self) -> list[BatchCompletion]:
        """Flush if the oldest queued window has exceeded the deadline."""
        if not self._queue:
            return []
        waited = self.clock() - self._queue[0][1]
        if waited >= self.max_delay_s:
            return self.flush()
        return []

    def drain(self, out: list[BatchCompletion] | None = None) -> list[BatchCompletion]:
        """Flush everything queued, regardless of deadlines (shutdown).

        Completions are appended to ``out`` (a new list by default) batch
        by batch, so when a ``predict`` raises, the caller's ``out`` still
        holds the batches flushed before it.
        """
        out = [] if out is None else out
        while self._queue:
            out.extend(self.flush())
        return out

    def enqueue(self, requests: list[WindowRequest]) -> None:
        """Queue windows without flushing (they wait for the next flush)."""
        now = self.clock()
        self._queue.extend((request, now) for request in requests)

    @property
    def queued(self) -> int:
        """Windows currently waiting for a batch."""
        return len(self._queue)

    def _assemble(self, windows: list[np.ndarray]) -> np.ndarray:
        """Copy windows into the reused batch scratch; returns a view.

        One ``(max_batch, window, sensors)`` buffer is allocated on the
        first flush (and whenever the window geometry changes) and reused
        for every flush after — ``np.stack`` would allocate a fresh batch
        tensor per predict call.  The returned view is only valid until
        the next flush; ``model.predict`` consumes it synchronously and
        completions carry labels (copies), never views of the scratch.
        """
        shape, dtype = windows[0].shape, windows[0].dtype
        if (self._scratch is None or self._scratch.shape[1:] != shape
                or self._scratch.dtype != dtype):
            self._scratch = np.empty((self.max_batch, *shape), dtype=dtype)
        for i, win in enumerate(windows):
            self._scratch[i] = win
        return self._scratch[: len(windows)]

    # ------------------------------------------------------------------
    def flush(self) -> list[BatchCompletion]:
        """Classify the oldest ``max_batch`` queued windows now."""
        batch, self._queue = self._queue[: self.max_batch], self._queue[self.max_batch:]
        now = self.clock()
        stacked = self._assemble([req.window for req, _ in batch])
        tic = time.perf_counter()
        try:
            labels = np.asarray(self.model.predict(stacked)).astype(np.int64)
            predict_wall_s = time.perf_counter() - tic
            if labels.shape != (len(batch),):
                raise ValueError(
                    f"model.predict returned shape {labels.shape} for a "
                    f"batch of {len(batch)}"
                )
        except BaseException:
            if self.on_failure is not None:
                self.on_failure([req for req, _ in batch])
            raise
        self.n_predict_calls += 1
        self.n_windows += len(batch)
        if self.metrics is not None:
            self.metrics.counter("batch.predict_calls").inc()
            self.metrics.counter("batch.windows").inc(len(batch))
            self.metrics.histogram("batch.size").observe(len(batch))
            # Real (wall-clock) model cost per window — the one number in
            # this registry that varies run to run; rollout latency
            # guardrails compare it between champion and challenger.
            self.metrics.histogram("batch.predict_wall_s").observe(
                predict_wall_s / len(batch))
        out = []
        share = predict_wall_s / len(batch)
        for (req, submitted_s), label in zip(batch, labels):
            waited = now - submitted_s
            if self.metrics is not None:
                self.metrics.histogram("batch.wait_s").observe(waited)
            out.append(BatchCompletion(request=req, label=int(label),
                                       waited_s=waited, flushed_s=now,
                                       predict_share_s=share))
        return out
