"""The fleet ingress tier: consistent-hash routing, failover, aggregation.

:class:`FleetRouter` presents the same surface as a single
:class:`~repro.serve.server.InferenceServer` (``submit`` / ``step`` /
``drain`` / ``end_session`` — the :class:`~repro.serve.FleetLoadGenerator`
drives it unchanged) but fans the work across N workers:

* **Routing** — each chunk goes to ``ring.owner(job_id)``; session
  affinity falls out of hashing, no routing table to replicate.
* **Failure handling** — a worker that raises
  :class:`~repro.fleet.worker.WorkerUnavailable` (crashed, SIGKILLed
  child) or whose heartbeat lease lapses is removed from the ring; its
  jobs are re-owned by the survivors and their sessions rebuilt from
  history replay (:class:`~repro.fleet.failover.SessionRebuilder`), so
  post-recovery emissions are bit-identical to an unfailed run.
* **Typed rejections** — a worker answering ``DRAINING`` is retired
  (flushed, its sessions migrated) rather than treated as an error; an
  overloaded worker's ``REJECTED`` is surfaced to the caller as ordinary
  backpressure.
* **Aggregation** — :meth:`fleet_metrics` merges every worker's registry
  with the router's own (counters add, gauges sum, histogram
  percentiles over the union of samples), giving the operator one
  fleet-wide view — the signal the autoscaler consumes.  A removed
  worker's counters and histograms stay in that view.
* **Scatter/gather** — :meth:`step` and :meth:`drain` first start the op
  on every live worker, then collect the replies in sorted-id order, so
  subprocess workers compute at the same time.  Workers found dead fail
  over only after every reply has been read, again in sorted-id order.

Everything is clock-injected and the router itself is single-threaded;
a fleet replay is deterministic for a fixed seed, which is what lets the
tests pin routing determinism and failover parity bit-for-bit.
"""

from __future__ import annotations

import time

import numpy as np

from repro.fleet.failover import FailoverEvent, SessionRebuilder
from repro.fleet.ring import HashRing
from repro.fleet.worker import WorkerUnavailable
from repro.serve.metrics import MetricsRegistry
from repro.serve.server import Emission, SubmitResult

__all__ = ["FleetRouter"]


class FleetRouter:
    """Route job streams across a resizable set of serving workers.

    Parameters
    ----------
    workers:
        Initial worker objects (:class:`~repro.fleet.worker.FleetWorker`
        or :class:`~repro.fleet.worker.SubprocessWorker`); at least one.
        All must share ``clock``.
    clock:
        The fleet's shared time source.  ``None`` (the default) adopts
        the first worker's clock; an explicit clock is *propagated*: any
        worker on a different time source is re-bound
        (``worker.rebind_clock``), and a ``health`` monitor on a
        different source is re-pointed too.  Historically the default
        was ``time.monotonic``, which silently mixed wall time into
        simulated-clock fleets and made lease expiry nondeterministic.
    history:
        Optional ``job_id -> full row array`` provider for failover
        replay (see :class:`~repro.fleet.failover.SessionRebuilder`);
        without it, failed-over sessions restart cold.
    health:
        Optional :class:`~repro.fleet.health.HeartbeatMonitor`.  The
        router checks leases at the top of every :meth:`step` and fails
        over expired workers; workers must be constructed with
        ``heartbeat=health`` so their steps actually beat it.
    vnodes / salt:
        Hash-ring shape (see :class:`~repro.fleet.ring.HashRing`).
    tracer:
        Optional :class:`~repro.trace.Tracer` for the routing tier:
        chunks submitted with a trace context get a ``route`` span per
        attempt, and failovers record ``worker.lost`` /
        ``failover.rebuild`` spans in the affected requests' traces.
    """

    def __init__(
        self,
        workers,
        *,
        clock=None,
        history=None,
        health=None,
        vnodes: int = 128,
        salt: str = "repro-fleet",
        tracer=None,
    ):
        workers = list(workers)
        if not workers:
            raise ValueError("need at least one worker")
        if clock is None:
            clock = getattr(workers[0], "clock", None) or time.monotonic
        self.clock = clock
        self.tracer = tracer
        #: job -> last propagated trace context (failover spans attach here).
        self._trace_ctx: dict[object, object] = {}
        self.health = health
        if health is not None and health.clock is not clock:
            # One fleet, one time base: a monitor left on its own clock
            # (usually the wall default) would expire simulated-clock
            # leases at wall speed.  Registrations below re-baseline the
            # beats on the shared clock.
            health.clock = clock
        self.metrics = MetricsRegistry()
        #: counters and histograms of the workers that left the fleet
        self._retired = MetricsRegistry()
        self.rebuilder = SessionRebuilder(history)
        self._workers: dict[str, object] = {}
        self.ring = HashRing(vnodes=vnodes, salt=salt)
        #: job -> current owning worker id (insertion-ordered: migration
        #: and failover walk jobs in first-seen order, deterministically).
        self._owner: dict[object, str] = {}
        self._delivered: dict[object, int] = {}
        #: job -> highest sample_index the fleet has actually emitted.
        self._last_index: dict[object, int] = {}
        self._buffer: list[Emission] = []
        self.events: list[FailoverEvent] = []
        for worker in workers:
            if worker.worker_id in self._workers:
                raise ValueError(f"duplicate worker id {worker.worker_id!r}")
            self._adopt_clock(worker)
            self._workers[worker.worker_id] = worker
            self.ring.add(worker.worker_id)
            if self.health is not None:
                self.health.register(worker.worker_id)
        self.metrics.gauge("fleet.workers").set(len(self._workers))

    def _adopt_clock(self, worker) -> None:
        """Re-bind ``worker`` onto the router's clock if it differs."""
        rebind = getattr(worker, "rebind_clock", None)
        if rebind is not None and getattr(worker, "clock", None) is not self.clock:
            rebind(self.clock)

    # ------------------------------------------------------------------
    # introspection
    @property
    def n_workers(self) -> int:
        """Live workers behind the router."""
        return len(self._workers)

    @property
    def worker_ids(self) -> list[str]:
        """Live worker ids in join order (newest last)."""
        return list(self._workers)

    def worker(self, worker_id: str):
        """The live worker object for ``worker_id`` (KeyError when gone)."""
        return self._workers[worker_id]

    @property
    def queue_depth(self) -> int:
        """Total chunks queued across live workers."""
        total = 0
        for worker in self._workers.values():
            try:
                total += worker.queue_depth
            except WorkerUnavailable:
                continue
        return total

    @property
    def n_sessions(self) -> int:
        """Total sessions resident across live workers."""
        total = 0
        for worker in self._workers.values():
            try:
                total += worker.n_sessions
            except WorkerUnavailable:
                continue
        return total

    def owner_of(self, job_id) -> str:
        """The worker id currently owning ``job_id``'s session."""
        worker_id = self._owner.get(job_id)
        if worker_id is None or worker_id not in self._workers:
            worker_id = self.ring.owner(job_id)
            self._owner[job_id] = worker_id
        return worker_id

    def fleet_metrics(self) -> MetricsRegistry:
        """Fleet-wide registry: the router's own + every worker's, merged.

        Workers that failed over or were retired count with the counters
        and histograms they last reported (see :meth:`_retire_metrics`),
        so ``predictions.emitted`` covers every prediction delivered.
        """
        merged = MetricsRegistry().merge(self.metrics).merge(self._retired)
        for worker_id in sorted(self._workers):
            try:
                merged.merge(self._workers[worker_id].metrics_registry())
            except WorkerUnavailable:
                continue
        return merged

    # ------------------------------------------------------------------
    # ingress
    def submit(self, job_id, samples, *, trace=None) -> SubmitResult:
        """Route one chunk to the owning worker, failing over on death.

        A dead owner triggers an immediate failover (ring removal +
        session rebuild) and the chunk retries on the new owner — the
        caller never sees the crash.  ``REJECTED`` (overload) is returned
        as-is: backpressure is the caller's signal, not a routing error.

        ``trace`` (a trace context or None) is propagated to the owning
        worker; each routing attempt records a ``route`` span under it —
        a failed attempt (dead owner) gets its own failed span before
        the retry's — and the context is remembered per job so later
        failover spans can link back to the request that was in flight.
        """
        samples = np.atleast_2d(np.asarray(samples))
        tracer = self.tracer if trace is not None else None
        if tracer is not None:
            self._trace_ctx[job_id] = trace
        for _ in range(len(self._workers) + 1):
            worker_id = self.owner_of(job_id)
            worker = self._workers[worker_id]
            if tracer is not None:
                route_ctx = tracer.child(trace)
                start = self.clock()
                tic = time.perf_counter()
                try:
                    result = worker.submit(job_id, samples, trace=route_ctx)
                except WorkerUnavailable:
                    tracer.emit(
                        route_ctx, "route", start_s=start, end_s=self.clock(),
                        wall_s=time.perf_counter() - tic,
                        worker_id=worker_id, status="failed",
                        annotations={"error": "worker-unavailable"},
                    )
                    self._on_worker_death(worker_id)
                    continue
                tracer.emit(
                    route_ctx, "route", start_s=start, end_s=self.clock(),
                    wall_s=time.perf_counter() - tic,
                    worker_id=worker_id,
                    status="ok" if result else str(result.value),
                )
            else:
                try:
                    result = worker.submit(job_id, samples)
                except WorkerUnavailable:
                    self._on_worker_death(worker_id)
                    continue
            if result is SubmitResult.DRAINING:
                self.metrics.counter("fleet.rerouted.draining").inc()
                self._handoff(worker_id, kind="drain")
                continue
            if result:
                self.metrics.counter("fleet.chunks.routed").inc()
                self._delivered[job_id] = (
                    self._delivered.get(job_id, 0) + samples.shape[0]
                )
            else:
                self.metrics.counter("fleet.chunks.rejected").inc()
            return result
        raise WorkerUnavailable("no live worker accepted the chunk")

    # ------------------------------------------------------------------
    # processing
    def step(self) -> list[Emission]:
        """One fleet tick: lease checks, then every worker steps at once.

        See :meth:`_scatter_gather`: every live worker is sent its step
        before any reply is read, so subprocess workers compute in
        parallel.  Emissions come out in sorted-id order (determinism),
        and those recovered by the failovers of workers found dead are
        appended to this tick's output.
        """
        out = self._take_buffer()
        if self.health is not None:
            for worker_id in self.health.expired():
                if worker_id in self._workers:
                    self.metrics.counter("fleet.lease_expired").inc()
                    self._on_worker_death(worker_id)
        out.extend(self._scatter_gather("step"))
        out.extend(self._take_buffer())
        return out

    def drain(self) -> list[Emission]:
        """Flush every worker at once (graceful fleet shutdown)."""
        out = self._take_buffer()
        out.extend(self._scatter_gather("drain"))
        out.extend(self._take_buffer())
        return out

    def end_session(self, job_id) -> bool:
        """Forget ``job_id`` fleet-wide (stream finished)."""
        worker_id = self._owner.pop(job_id, None)
        self._delivered.pop(job_id, None)
        self._last_index.pop(job_id, None)
        self._trace_ctx.pop(job_id, None)
        if worker_id is not None and worker_id in self._workers:
            try:
                return self._workers[worker_id].end_session(job_id)
            except WorkerUnavailable:
                self._on_worker_death(worker_id)
        return False

    # ------------------------------------------------------------------
    # membership
    def add_worker(self, worker) -> list:
        """Join a worker; migrate exactly the jobs its vnodes claim.

        Consistent hashing guarantees every migrated job moves *to* the
        new worker; each migration ends the session on its old (live)
        owner and rebuilds it on the new one from history replay, so the
        resize is emission-lossless.  Returns the migrated job ids.
        """
        worker_id = worker.worker_id
        if worker_id in self._workers:
            raise ValueError(f"worker {worker_id!r} already routed")
        self._adopt_clock(worker)
        self._workers[worker_id] = worker
        self.ring.add(worker_id)
        if self.health is not None:
            self.health.register(worker_id)
        self.metrics.counter("fleet.scale.up").inc()
        self.metrics.gauge("fleet.workers").set(len(self._workers))
        moved = [
            job for job, owner in self._owner.items()
            if self.ring.owner(job) != owner
        ]
        recovered = 0
        for job in moved:
            source = self._workers.get(self._owner[job])
            recovered += len(self._migrate(job, source=source))
        self.events.append(FailoverEvent(
            at_s=self.clock(), kind="scale-up", worker_id=worker_id,
            n_jobs=len(moved), n_recovered=recovered,
        ))
        return moved

    def remove_worker(self, worker_id: str):
        """Gracefully retire a worker: flush, migrate, close.

        The leaving replica drains first (its queued work emits here,
        attributed normally), then every session it owned is rebuilt on
        the survivors.  Returns the removed worker object.
        """
        if worker_id not in self._workers:
            raise KeyError(f"worker {worker_id!r} not routed")
        if len(self._workers) == 1:
            raise ValueError("cannot remove the last worker")
        worker = self._handoff(worker_id, kind="scale-down")
        worker.close()
        return worker

    # ------------------------------------------------------------------
    # internals
    def _scatter_gather(self, op: str) -> list[Emission]:
        """Run ``op`` (``"step"`` or ``"drain"``) on every live worker.

        Scatter: ``worker.start(op)`` for every worker in sorted-id order.
        Gather: ``worker.finish(op)`` in the same order, so the emissions
        are those of a serial pass.  Failover waits until every reply has
        been read: a rebuild sent to a survivor whose reply is still
        unread would take that reply for its own.  Deferring it changes
        nothing else when one worker dies — a rebuild never touches the
        adopting worker's live batcher and the clock does not move during
        a tick — so the emissions and timeline are those of a serial
        pass.  When several die in one tick, all leave the ring first and
        their jobs are rebuilt in sorted-id order, onto survivors only.
        """
        started, dead = [], []
        for worker_id in sorted(self._workers):
            try:
                self._workers[worker_id].start(op)
            except WorkerUnavailable:
                dead.append(worker_id)
                continue
            started.append(worker_id)
        out: list[Emission] = []
        for worker_id in started:
            try:
                emissions = self._workers[worker_id].finish(op)
            except WorkerUnavailable:
                dead.append(worker_id)
                continue
            self._note(emissions)
            out.extend(emissions)
        if dead:
            self._on_worker_death(*sorted(dead))
        return out

    def _take_buffer(self) -> list[Emission]:
        out, self._buffer = self._buffer, []
        return out

    def _note(self, emissions) -> None:
        for emission in emissions:
            index = emission.prediction.sample_index
            if index > self._last_index.get(emission.job_id, -1):
                self._last_index[emission.job_id] = index

    def _jobs_owned_by(self, worker_id: str) -> list:
        return [job for job, owner in self._owner.items() if owner == worker_id]

    def _migrate(self, job, *, source) -> list[Emission]:
        """Move one job to its current ring owner, rebuilding its session.

        ``source`` is the job's previous worker when it is still alive
        (scale events) — its session state is dropped first so a stale
        replica can never emit for the job again; ``None`` when the
        previous worker is already gone (failover).
        """
        if source is not None:
            source.end_session(job)
        new_worker_id = self.ring.owner(job)
        ctx = self._trace_ctx.get(job) if self.tracer is not None else None
        rebuild_ctx = None
        if ctx is not None:
            rebuild_ctx = self.tracer.child(ctx)
            start = self.clock()
            tic = time.perf_counter()
        emissions = self.rebuilder.rebuild(
            job,
            self._delivered.get(job, 0),
            self._workers[new_worker_id],
            emit_after_index=self._last_index.get(job, -1),
            trace=rebuild_ctx,
        )
        if rebuild_ctx is not None:
            # Recorded in the *original* request's trace: the rebuild is
            # causally part of whatever chunk was last in flight for the
            # job, and the links annotation makes that explicit.
            self.tracer.emit(
                rebuild_ctx, "failover.rebuild",
                start_s=start, end_s=self.clock(),
                wall_s=time.perf_counter() - tic,
                worker_id=new_worker_id,
                annotations={"job": job, "recovered": len(emissions),
                             "links": rebuild_ctx.trace_id},
            )
        self._owner[job] = new_worker_id
        self.metrics.counter("fleet.sessions.migrated").inc()
        if emissions:
            self.metrics.counter("fleet.predictions.recovered").inc(
                len(emissions))
            self._note(emissions)
            self._buffer.extend(emissions)
        return emissions

    def _on_worker_death(self, *worker_ids: str) -> None:
        """Abrupt failover: un-ring the dead workers, rebuild their jobs.

        Every dead worker leaves the ring before any job is rebuilt, so
        no job is rebuilt onto a worker already known to be dead; the
        jobs are then rebuilt one dead worker at a time, in the order
        given.
        """
        for worker_id in worker_ids:
            self._retire_metrics(self._workers.pop(worker_id))
            self.ring.remove(worker_id)
            if self.health is not None:
                self.health.deregister(worker_id)
            self.metrics.counter("fleet.failovers").inc()
        self.metrics.gauge("fleet.workers").set(len(self._workers))
        if not self._workers:
            raise WorkerUnavailable(
                f"last worker {worker_ids[-1]!r} died; nothing to fail over to"
            )
        for worker_id in worker_ids:
            jobs = self._jobs_owned_by(worker_id)
            if self.tracer is not None:
                now = self.clock()
                for job in jobs:
                    ctx = self._trace_ctx.get(job)
                    if ctx is not None:
                        # The request that was in flight on the dead worker is
                        # marked failed in its own trace; the rebuild spans
                        # that follow (via _migrate) attach alongside it.
                        self.tracer.emit(
                            self.tracer.child(ctx), "worker.lost",
                            start_s=now, end_s=now, worker_id=worker_id,
                            status="failed", annotations={"job": job},
                        )
            recovered = sum(
                len(self._migrate(job, source=None)) for job in jobs
            )
            self.events.append(FailoverEvent(
                at_s=self.clock(), kind="failover", worker_id=worker_id,
                n_jobs=len(jobs), n_recovered=recovered,
            ))

    def _handoff(self, worker_id: str, *, kind: str):
        """Retire a live worker: drain it, migrate its jobs, un-ring it."""
        worker = self._workers.pop(worker_id)
        self.ring.remove(worker_id)
        if self.health is not None:
            self.health.deregister(worker_id)
        self.metrics.counter("fleet.scale.down").inc()
        self.metrics.gauge("fleet.workers").set(len(self._workers))
        try:
            emissions = worker.drain()
            self._note(emissions)
            self._buffer.extend(emissions)
        except WorkerUnavailable:
            pass                        # died while retiring; replay covers it
        jobs = self._jobs_owned_by(worker_id)
        recovered = 0
        for job in jobs:
            try:
                worker.end_session(job)
            except WorkerUnavailable:
                pass
            recovered += len(self._migrate(job, source=None))
        self._retire_metrics(worker)
        self.events.append(FailoverEvent(
            at_s=self.clock(), kind=kind, worker_id=worker_id,
            n_jobs=len(jobs), n_recovered=recovered,
        ))
        return worker

    def _retire_metrics(self, worker) -> None:
        """Keep a leaving worker's counters and histograms in the fleet view.

        Its gauges are dropped: its sessions now live on the survivors.
        An in-process :class:`~repro.fleet.worker.FleetWorker` stays
        readable after it dies.  A SIGKILLed
        :class:`~repro.fleet.worker.SubprocessWorker` raises
        :class:`WorkerUnavailable` instead, so its child's counters are
        lost and the fleet view undercounts what it emitted.
        """
        try:
            registry = worker.metrics_registry()
        except WorkerUnavailable:
            return
        self._retired.merge(registry.cumulative())
