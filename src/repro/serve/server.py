"""Synchronous-core inference server: ingress, admission, batching, drain.

:class:`InferenceServer` is the assembly point of :mod:`repro.serve`: a
bounded ingress queue in front of per-job :class:`StreamSession` state,
with every due window routed through the shared :class:`MicroBatcher`.
The core is deliberately synchronous — ``submit`` enqueues, ``step``
processes — because determinism is a feature here (the load generator
replays identical fleets, tests pin exact shed counts) and an async or
threaded front-end can wrap this core without changing its semantics.

Admission control lives in :class:`IngressQueue` (shared with the parent
side of a subprocess fleet worker) and implements the two classic
overload policies:

* ``"shed-oldest"`` — drop the oldest queued chunk to admit the new one
  (freshness wins; stale telemetry is the least valuable).
* ``"reject"`` — refuse the new chunk (``submit`` returns a falsy
  :class:`SubmitResult`), pushing backpressure to the caller.

``submit`` answers with a typed :class:`SubmitResult` rather than a bare
bool/exception so upstream tiers (the fleet router) can tell *recoverable*
refusals apart: ``REJECTED`` means overload (retry or shed), ``DRAINING``
means this replica is shutting down (fail over to another), and anything
else reaching the caller is a programming error.
"""

from __future__ import annotations

import enum
import functools
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.serve.batcher import BatchCompletion, MicroBatcher
from repro.serve.metrics import MetricsRegistry
from repro.serve.session import StreamPrediction, StreamSession, WindowRequest
from repro.telemetry import N_GPU_SENSORS
from repro.utils.validation import float_dtype

__all__ = ["ServeConfig", "Emission", "IngressQueue", "InferenceServer",
           "SubmitResult"]

_ADMISSION_POLICIES = ("shed-oldest", "reject")


class SubmitResult(enum.Enum):
    """Typed outcome of :meth:`InferenceServer.submit`.

    Truthiness preserves the historical bool contract: ``ACCEPTED`` is
    truthy, every refusal is falsy — ``if not server.submit(...)`` still
    reads "the chunk did not get in".
    """

    ACCEPTED = "accepted"       # chunk enqueued (possibly shedding an older one)
    REJECTED = "rejected"       # queue full under the "reject" policy
    DRAINING = "draining"       # server is draining; fail over, don't retry

    def __bool__(self) -> bool:
        return self is SubmitResult.ACCEPTED


@dataclass(frozen=True)
class ServeConfig:
    """Tuning knobs for one :class:`InferenceServer`.

    Window semantics (``window``/``hop``/``vote_window``) are those of
    each job's :class:`~repro.serve.session.StreamSession`;
    ``max_batch``/``flush_deadline_s`` bound the micro-batcher;
    ``queue_capacity``/``admission`` govern ingress overload behavior.
    """

    window: int = 540
    hop: int = 90
    vote_window: int = 5
    max_batch: int = 64
    flush_deadline_s: float = 0.25
    queue_capacity: int = 1024
    admission: str = "shed-oldest"

    def __post_init__(self):
        if self.admission not in _ADMISSION_POLICIES:
            raise ValueError(
                f"admission must be one of {_ADMISSION_POLICIES}, "
                f"got {self.admission!r}"
            )
        if self.queue_capacity < 1:
            raise ValueError(
                f"queue_capacity must be >= 1, got {self.queue_capacity}"
            )


@dataclass(frozen=True)
class Emission:
    """One prediction leaving the server."""

    job_id: object
    prediction: StreamPrediction
    latency_s: float            # window-ready to prediction-out, server clock


class IngressQueue:
    """Bounded ingress queue with admission control, in front of a replica.

    The one implementation of admission: the dtype rule and the
    ``(k, 7)`` shape check, the draining check, the ``queue_capacity``
    check under the configured overload policy, the ``ingress.*``
    counters and the ``ingress.depth`` gauge, and dropping a finished
    job's queued chunks.  :class:`InferenceServer` admits through one;
    so does the parent side of a
    :class:`~repro.fleet.worker.SubprocessWorker`, which then ships the
    admitted chunks to its child without admitting them again
    (:meth:`extend`).  Items are ``(job_id, samples, trace)`` tuples.

    A floating chunk keeps its dtype (float16, float32 or float64) and
    any other chunk is coerced to float64.  Store replays are float32
    memmap views, so they cross a worker pipe at half the bytes of a
    float64 copy, and the session's float32 ring takes them without a
    conversion.  A session converts a chunk to float32 and the drift
    monitor widens it to float64, each exactly as from a float64 copy,
    so every window and drift statistic is the one a float64 chunk
    gives.
    """

    def __init__(self, config: ServeConfig, metrics: MetricsRegistry):
        self.capacity = config.queue_capacity
        self.admission = config.admission
        self.metrics = metrics
        self.draining = False
        self._items: deque[tuple[object, np.ndarray, object]] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def admit(self, job_id, samples, trace=None) -> SubmitResult:
        """Admit one chunk under the overload policy (see ``submit``)."""
        samples = np.atleast_2d(np.asarray(samples, dtype=float_dtype(samples)))
        if samples.ndim != 2 or samples.shape[1] != N_GPU_SENSORS:
            raise ValueError(
                f"expected a (k, {N_GPU_SENSORS}) telemetry chunk, got "
                f"shape {samples.shape}"
            )
        if self.draining:
            self.metrics.counter("ingress.draining").inc()
            return SubmitResult.DRAINING
        self.metrics.counter("ingress.chunks").inc()
        if len(self._items) >= self.capacity:
            if self.admission == "reject":
                self.metrics.counter("ingress.rejected").inc()
                return SubmitResult.REJECTED
            self._items.popleft()
            self.metrics.counter("ingress.shed").inc()
            self.metrics.gauge("ingress.depth").dec()
        self._items.append((job_id, samples, trace))
        self.metrics.counter("ingress.samples").inc(samples.shape[0])
        self.metrics.gauge("ingress.depth").inc()
        return SubmitResult.ACCEPTED

    def extend(self, items) -> None:
        """Enqueue chunks already admitted elsewhere: no policy, no counters."""
        if items:
            self._items.extend(items)
            self.metrics.gauge("ingress.depth").inc(len(items))

    def pop(self) -> tuple[object, np.ndarray, object]:
        """Dequeue the oldest chunk."""
        item = self._items.popleft()
        self.metrics.gauge("ingress.depth").dec()
        return item

    def take(self, max_chunks: int | None = None) -> list:
        """Dequeue up to ``max_chunks`` oldest chunks (None = all)."""
        n = len(self._items)
        if max_chunks is not None:
            n = min(n, max_chunks)
        return [self.pop() for _ in range(n)]

    def drop_job(self, job_id) -> None:
        """Drop every queued chunk of ``job_id`` (its session ended)."""
        if not self._items:
            return
        kept = deque(item for item in self._items if item[0] != job_id)
        dropped = len(self._items) - len(kept)
        if dropped:
            self._items = kept
            self.metrics.counter("ingress.dropped_on_end").inc(dropped)
            self.metrics.gauge("ingress.depth").dec(dropped)


def _retire_failed(sessions: dict, metrics: MetricsRegistry,
                   requests: list[WindowRequest]) -> None:
    """Retire a failed batch: no label, no vote, no longer pending."""
    for request in requests:
        session = sessions.get(request.session_id)
        # A session ended (and perhaps reopened) since the cut has
        # nothing pending for the request.
        if session is not None and session is request.origin:
            session.cancel(request)
    metrics.counter("predictions.failed").inc(len(requests))


class InferenceServer:
    """Multi-tenant streaming classifier over a shared micro-batcher.

    Parameters
    ----------
    model:
        Fitted estimator with ``predict`` over ``(n, window, sensors)``
        (typically fetched from a :class:`~repro.serve.registry.ModelRegistry`).
    config:
        A :class:`ServeConfig`; defaults are challenge-shaped (540/90/5).
    clock:
        Monotonic time source, injectable for deterministic replay.
    metrics:
        Optional shared :class:`MetricsRegistry`; one is created when
        omitted and exposed as ``server.metrics``.
    taps:
        Monitor taps (see :mod:`repro.monitor`): objects that observe
        traffic without affecting it.  A tap may implement
        ``on_ingress(chunks)`` — called once per :meth:`step` that popped
        any ingress, with the step's ``(job_id, samples)`` chunks in pop
        order — and/or ``on_batch(completions)`` — called with each
        non-empty list of classified windows before they are folded back
        into sessions.
    tracer:
        Optional :class:`~repro.trace.Tracer`.  When set, chunks
        submitted with a trace context get per-stage spans (``ingest``,
        ``batch.wait``, ``predict``, ``emit``, ``taps``) attached to the
        caller's tree; untraced chunks and ``tracer=None`` pay only a
        ``None`` check.
    """

    def __init__(
        self,
        model,
        config: ServeConfig | None = None,
        *,
        clock=time.monotonic,
        metrics: MetricsRegistry | None = None,
        taps=(),
        tracer=None,
    ):
        self.config = config or ServeConfig()
        self.clock = clock
        self.tracer = tracer
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._ingress_taps = []
        self._batch_taps = []
        for tap in taps:
            self.add_tap(tap)
        self._sessions: dict[object, StreamSession] = {}
        self.batcher = MicroBatcher(
            model,
            max_batch=self.config.max_batch,
            max_delay_s=self.config.flush_deadline_s,
            clock=clock,
            metrics=self.metrics,
            # Not a bound method: a batcher holding the server would make
            # every server garbage for the cycle collector.
            on_failure=functools.partial(
                _retire_failed, self._sessions, self.metrics),
        )
        # Completions of batches that succeeded in a step or drain that
        # then raised; the next step or drain emits them first.
        self._unemitted: list[BatchCompletion] = []
        self.ingress = IngressQueue(self.config, self.metrics)

    def add_tap(self, tap) -> None:
        """Attach a monitor tap (``on_ingress`` and/or ``on_batch``)."""
        has_ingress = hasattr(tap, "on_ingress")
        has_batch = hasattr(tap, "on_batch")
        if not (has_ingress or has_batch):
            raise TypeError(
                "tap must implement on_ingress(chunks) and/or "
                "on_batch(completions)"
            )
        if has_ingress:
            self._ingress_taps.append(tap)
        if has_batch:
            self._batch_taps.append(tap)

    # -- ingress -------------------------------------------------------
    def submit(self, job_id, samples, *, trace=None) -> SubmitResult:
        """Enqueue a telemetry chunk for ``job_id``; falsy when refused.

        Applies the configured admission policy when the ingress queue is
        at capacity.  Chunks are processed on the next :meth:`step`.  The
        returned :class:`SubmitResult` distinguishes ``REJECTED``
        (overload backpressure) from ``DRAINING`` (replica shutting down
        — a router should fail the chunk over rather than retry here).
        ``trace`` (a trace context or None) rides the queue with the
        chunk; serve-stage spans attach under it once the chunk is
        processed.  A shed chunk's context is dropped with it.  A chunk
        that is not ``(k, 7)`` raises ``ValueError`` and changes nothing.
        """
        return self.ingress.admit(job_id, samples, trace)

    # -- processing ----------------------------------------------------
    def step(self, max_chunks: int | None = None) -> list[Emission]:
        """Process queued ingress, flush due batches, emit predictions.

        ``max_chunks`` bounds how many ingress chunks this step consumes
        (None = all of them).  A bounded step models a replica with finite
        per-tick serving capacity: under overload the ingress queue grows
        and sheds instead of the step silently absorbing any offered load
        — the saturation signal the fleet autoscaler reacts to.

        If ``predict`` raises, the failed batch's windows are retired
        without a vote (counted in ``predictions.failed``), windows not
        yet classified stay queued, the chunks already consumed still
        reach the ingress taps, and the exception propagates; the
        predictions of batches that succeeded before it are emitted by
        the next :meth:`step` or :meth:`drain`.
        """
        self._consume(max_chunks)
        self._unemitted.extend(self.batcher.poll())
        completions, self._unemitted = self._unemitted, []
        return self._emit(completions)

    def drain(self) -> list[Emission]:
        """Graceful shutdown: consume remaining ingress, force-flush batches.

        After ``drain`` the server refuses new ``submit`` calls until
        :meth:`reopen`.  A ``predict`` that raises is handled as in
        :meth:`step`.
        """
        self._consume(None)
        self._unemitted.extend(self.batcher.poll())
        n_stepped = len(self._unemitted)
        self.ingress.draining = True
        self.batcher.drain(self._unemitted)
        completions, self._unemitted = self._unemitted, []
        # What a step would have emitted, then the forced flushes.
        return (self._emit(completions[:n_stepped])
                + self._emit(completions[n_stepped:]))

    def _consume(self, max_chunks: int | None) -> None:
        """Push queued ingress into sessions and their windows into the batcher.

        Completions of the batches this fills go to ``self._unemitted``.
        """
        now = self.clock()
        tracer = self.tracer
        # The chunks handed to the ingress taps; built only when one is
        # attached.
        popped = [] if self._ingress_taps else None
        processed = 0
        try:
            while self.ingress and (max_chunks is None or processed < max_chunks):
                job_id, samples, ctx = self.ingress.pop()
                processed += 1
                if popped is not None:
                    popped.append((job_id, samples))
                session = self._session(job_id)
                if ctx is not None and tracer is not None:
                    ingest_ctx = tracer.child(ctx)
                    tic = time.perf_counter()
                    requests = session.push(samples, now_s=now, trace=ingest_ctx)
                    tracer.emit(
                        ingest_ctx, "ingest", start_s=now, end_s=now,
                        wall_s=time.perf_counter() - tic,
                        annotations={"rows": samples.shape[0],
                                     "windows": len(requests)},
                    )
                else:
                    requests = session.push(samples, now_s=now)
                # Full batches flush as they fill; if one raises, the
                # windows behind it stay queued.
                self.batcher.enqueue(requests)
                while self.batcher.queued >= self.batcher.max_batch:
                    self._unemitted.extend(self.batcher.flush())
        finally:
            if popped:
                for tap in self._ingress_taps:
                    tap.on_ingress(popped)

    def reopen(self) -> None:
        """Accept new work again after a :meth:`drain`."""
        self.ingress.draining = False

    # -- sessions ------------------------------------------------------
    def end_session(self, job_id) -> bool:
        """Discard per-job state (job finished); True when one existed.

        Windows already queued in the batcher become orphans (they are
        predicted but never emitted, also when the job's session reopens
        before they are classified); chunks still waiting in the ingress
        queue are dropped — otherwise a leftover chunk would silently
        resurrect the session on a later step, which breaks session
        migration in the fleet tier.
        """
        existed = self._sessions.pop(job_id, None) is not None
        if existed:
            self.metrics.gauge("sessions.active").dec()
        self.ingress.drop_job(job_id)
        for tap in self._ingress_taps:
            if hasattr(tap, "end_session"):
                tap.end_session(job_id)
        return existed

    def rebuild_session(
        self, job_id, rows, *, emit_after_index: int = -1, trace=None,
    ) -> list[Emission]:
        """Reconstruct ``job_id``'s session by replaying its history.

        The fleet failover path: ``rows`` is every telemetry row the job
        was ever delivered (typically a zero-copy slice out of
        :class:`~repro.store.TelemetryStore` or the load generator's
        stream), replayed through a *fresh* session.  Every due window is
        re-predicted out-of-band — one batched ``predict`` per
        ``max_batch`` windows, bypassing the live micro-batcher queue —
        and completed in ``seq`` order, which rebuilds the sliding window
        *and* the majority-vote state exactly as an unfailed twin would
        hold them.  Predictions at ``sample_index`` beyond
        ``emit_after_index`` were never emitted by the dead replica, so
        they are (re-)emitted here; earlier ones only refresh vote state.

        Emission parity holds because window cut points depend only on
        per-session sample counts and the models predict each window
        independently of its batch — both pinned by the fleet test suite.
        """
        self.end_session(job_id)
        session = self._session(job_id)
        now = self.clock()
        tic = time.perf_counter()
        # Same dtype rule as submit(), so the session buffers the float32
        # rows the live path buffered; a store history (a float32 memmap
        # view) goes in without a conversion.
        rows = np.atleast_2d(np.asarray(rows, dtype=float_dtype(rows)))
        requests = session.push(rows, now_s=now) if rows.size else []
        labels: list[int] = []
        for lo in range(0, len(requests), self.config.max_batch):
            chunk = requests[lo: lo + self.config.max_batch]
            stacked = np.stack([r.window for r in chunk])
            labels.extend(
                int(v) for v in np.asarray(self.batcher.model.predict(stacked))
            )
        out: list[Emission] = []
        for request, label in zip(requests, labels):
            prediction = session.complete(request, label)
            if prediction.sample_index > emit_after_index:
                self.metrics.counter("predictions.emitted").inc()
                self.metrics.counter("predictions.recovered").inc()
                out.append(Emission(job_id=job_id, prediction=prediction,
                                    latency_s=0.0))
        self.metrics.counter("sessions.rebuilt").inc()
        if trace is not None and self.tracer is not None:
            # The replay span lives in the *original* request's trace (the
            # context the router propagated from the failed route), so a
            # recovered request reads as one connected tree.
            self.tracer.emit(
                self.tracer.child(trace), "failover.replay",
                start_s=now, end_s=self.clock(),
                wall_s=time.perf_counter() - tic,
                annotations={"windows": len(requests), "re_emitted": len(out),
                             "links": trace.trace_id},
            )
        return out

    @property
    def n_sessions(self) -> int:
        """Currently tracked job sessions."""
        return len(self._sessions)

    @property
    def queue_depth(self) -> int:
        """Chunks waiting in the ingress queue."""
        return len(self.ingress)

    def _session(self, job_id) -> StreamSession:
        session = self._sessions.get(job_id)
        if session is None:
            session = StreamSession(
                session_id=job_id,
                window=self.config.window,
                hop=self.config.hop,
                vote_window=self.config.vote_window,
            )
            self._sessions[job_id] = session
            self.metrics.counter("sessions.opened").inc()
            self.metrics.gauge("sessions.active").inc()
        return session

    # -- emission ------------------------------------------------------
    def _emit(self, completions: list[BatchCompletion]) -> list[Emission]:
        now = self.clock()
        tracer = self.tracer
        if completions:
            taps_wall = 0.0
            if tracer is not None and self._batch_taps:
                tic = time.perf_counter()
                for tap in self._batch_taps:
                    tap.on_batch(completions)
                taps_wall = time.perf_counter() - tic
                first = next((c.request.trace for c in completions
                              if c.request.trace is not None), None)
                if first is not None:
                    tracer.emit(
                        tracer.child(first), "taps", start_s=now, end_s=now,
                        wall_s=taps_wall,
                        annotations={"completions": len(completions)},
                    )
            else:
                for tap in self._batch_taps:
                    tap.on_batch(completions)
        out: list[Emission] = []
        for completion in completions:
            request = completion.request
            session = self._sessions.get(request.session_id)
            # The session ended (and perhaps reopened) while in flight.
            if session is None or session is not request.origin:
                self.metrics.counter("predictions.orphaned").inc()
                continue
            traced = tracer is not None and request.trace is not None
            tic = time.perf_counter() if traced else 0.0
            prediction = session.complete(request, completion.label)
            latency = now - request.created_s
            self.metrics.counter("predictions.emitted").inc()
            self.metrics.histogram("latency.window_s").observe(latency)
            out.append(Emission(job_id=request.session_id,
                                prediction=prediction, latency_s=latency))
            if traced:
                emit_wall = time.perf_counter() - tic
                ctx = request.trace
                tracer.emit(
                    tracer.child(ctx), "batch.wait",
                    start_s=request.created_s, end_s=completion.flushed_s,
                )
                tracer.emit(
                    tracer.child(ctx), "predict",
                    start_s=completion.flushed_s, end_s=completion.flushed_s,
                    wall_s=completion.predict_share_s,
                )
                tracer.emit(
                    tracer.child(ctx), "emit",
                    start_s=completion.flushed_s, end_s=now, wall_s=emit_wall,
                    annotations={"label": int(completion.label),
                                 "sample_index": int(request.sample_index)},
                )
        return out
