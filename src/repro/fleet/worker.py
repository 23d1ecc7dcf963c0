"""Fleet workers: one serving replica behind the router.

A worker owns one :class:`~repro.serve.server.InferenceServer` plus its
own :class:`~repro.serve.metrics.MetricsRegistry` (the router merges
registries fleet-wide), a bounded per-step serving capacity, and the
``fleet.worker.crash`` / ``fleet.heartbeat.drop`` fault points that let
tests kill it at an exact tick.

Two interchangeable implementations share the same surface (``submit`` /
``step`` / ``drain`` / ``end_session`` / ``rebuild_session`` /
``metrics_registry``):

* :class:`FleetWorker` — in-process.  Everything happens synchronously on
  the shared clock; the deterministic choice for tests and the bench's
  parity gates.  "Death" is the crash fault point raising — the worker
  marks itself dead and every later call raises
  :class:`WorkerUnavailable`.
* :class:`SubprocessWorker` — the same worker inside a spawned child
  process (the :mod:`repro.parallel` convention: spawn context, never
  fork), driven over a pipe.  Real process isolation, really
  SIGKILL-able: the parent detects a dead child as a broken pipe and
  raises :class:`WorkerUnavailable`, which the router turns into a
  failover.  The parent timestamps every message with the shared clock
  and the child syncs its private clock before acting, so a subprocess
  fleet replays the exact schedule of an in-process one (pinned by the
  crash test suite).
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import signal
import time

import numpy as np

from repro.resilience.faults import (
    FaultInjector,
    InjectedFault,
    fault_point,
    install,
)
from repro.serve.loadgen import SimulatedClock
from repro.serve.metrics import MetricsRegistry
from repro.serve.server import Emission, InferenceServer, ServeConfig, SubmitResult

__all__ = ["WorkerUnavailable", "FleetWorker", "SubprocessWorker"]


class WorkerUnavailable(RuntimeError):
    """The worker crashed or its process died; the router must fail over."""


class FleetWorker:
    """In-process serving replica with bounded per-step capacity.

    Parameters
    ----------
    worker_id:
        Stable name; its position on the hash ring.
    model:
        Fitted estimator with ``predict`` over ``(n, window, sensors)``.
    config:
        :class:`~repro.serve.server.ServeConfig` for the wrapped server.
    clock:
        The fleet's shared clock (one instance across router, workers,
        heartbeats, and the load generator).
    capacity_per_step:
        Max ingress chunks served per step (None = unbounded).  A finite
        capacity is the serving cost model: under overload the queue
        grows and sheds instead of a step absorbing any offered load,
        which is what makes queue depth an autoscaling signal and
        per-worker goodput additive across the fleet.
    heartbeat:
        Optional :class:`~repro.fleet.health.HeartbeatMonitor`; every
        step beats it (unless the ``fleet.heartbeat.drop`` fault eats
        the beat in transit).
    tracer:
        Optional :class:`~repro.trace.Tracer` handed to the wrapped
        server; serve-stage spans it emits are stamped with this
        worker's id (set ``worker_id=...`` on the tracer, or share the
        router's sink with a per-worker tracer).
    """

    def __init__(
        self,
        worker_id: str,
        model,
        config: ServeConfig | None = None,
        *,
        clock=time.monotonic,
        capacity_per_step: int | None = None,
        heartbeat=None,
        tracer=None,
    ):
        if capacity_per_step is not None and capacity_per_step < 1:
            raise ValueError(
                f"capacity_per_step must be >= 1 or None, got {capacity_per_step}"
            )
        self.worker_id = str(worker_id)
        self.clock = clock
        self.capacity_per_step = capacity_per_step
        self.metrics = MetricsRegistry()
        self.server = InferenceServer(model, config, clock=clock,
                                      metrics=self.metrics, tracer=tracer)
        self._heartbeat = heartbeat
        self._alive = True

    def rebind_clock(self, clock) -> None:
        """Re-point this worker and everything it owns at ``clock``.

        The router calls this at construction so one shared time source
        drives the worker, its server, and the server's batcher — a
        replica left on ``time.monotonic`` while the fleet replays on a
        simulated clock makes batch deadlines (and thus emission
        schedules) nondeterministic.
        """
        self.clock = clock
        self.server.clock = clock
        self.server.batcher.clock = clock

    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        """False once the worker has crashed (or been :meth:`kill`-ed)."""
        return self._alive

    def _check_alive(self) -> None:
        if not self._alive:
            raise WorkerUnavailable(f"worker {self.worker_id} is dead")

    def kill(self) -> None:
        """Abrupt death: drop all in-flight state, refuse every later call.

        The in-process analogue of SIGKILL — queued ingress chunks and
        batcher windows are simply gone, exactly what failover recovery
        must compensate for.
        """
        self._alive = False

    def _beat(self) -> None:
        if self._heartbeat is None:
            return
        try:
            fault_point("fleet.heartbeat.drop")
        except InjectedFault:
            return                      # beat lost in transit; worker is fine
        self._heartbeat.beat(self.worker_id)

    # ------------------------------------------------------------------
    def submit(self, job_id, samples, *, trace=None) -> SubmitResult:
        """Enqueue one chunk on the wrapped server."""
        self._check_alive()
        return self.server.submit(job_id, samples, trace=trace)

    def step(self) -> list[Emission]:
        """Serve one tick: up to ``capacity_per_step`` chunks, due batches."""
        self._check_alive()
        try:
            fault_point("fleet.worker.crash")
        except InjectedFault as exc:
            self._alive = False
            raise WorkerUnavailable(
                f"worker {self.worker_id} crashed: {exc}"
            ) from exc
        self._beat()
        return self.server.step(max_chunks=self.capacity_per_step)

    def drain(self) -> list[Emission]:
        """Graceful shutdown of the replica: flush everything queued."""
        self._check_alive()
        return self.server.drain()

    def end_session(self, job_id) -> bool:
        """Discard one job's session state (migrated away or finished)."""
        self._check_alive()
        return self.server.end_session(job_id)

    def rebuild_session(self, job_id, rows, *, emit_after_index: int = -1,
                        trace=None):
        """Failover adoption: replay ``rows`` into a fresh session here."""
        self._check_alive()
        return self.server.rebuild_session(
            job_id, rows, emit_after_index=emit_after_index, trace=trace
        )

    def metrics_registry(self) -> MetricsRegistry:
        """This replica's live metrics registry."""
        return self.metrics

    @property
    def queue_depth(self) -> int:
        """Chunks waiting in this replica's ingress queue."""
        return self.server.queue_depth

    @property
    def n_sessions(self) -> int:
        """Sessions resident on this replica."""
        return self.server.n_sessions

    def close(self) -> None:
        """Release the replica (no-op in-process; symmetry with subprocess)."""
        self._alive = False


# ----------------------------------------------------------------------
# subprocess flavor
def _subprocess_worker_main(conn, payload: bytes) -> None:
    """Child entry point: run a :class:`FleetWorker` behind a pipe.

    The child owns a private :class:`SimulatedClock` synced from the
    timestamp on every request, so parent and child observe the same
    deterministic timeline.  Fault specs shipped in the payload are
    installed here — a ``mode="kill"`` spec SIGKILLs *this* process,
    which the parent sees as a broken pipe.

    When the payload enables tracing, the child runs its own
    :class:`~repro.trace.Tracer` (component = worker id, so its span ids
    can never collide with the parent's) over a private buffer sink;
    every response ships the buffered spans back as the third element of
    the reply tuple, where the parent merges them.  Spans buffered when
    the child is SIGKILLed are lost with it — by design: an
    unacknowledged span is exactly as gone as the work it described.
    """
    spec = pickle.loads(payload)
    if spec["faults"]:
        install(FaultInjector(list(spec["faults"])))
    clock = SimulatedClock()
    sink = None
    tracer = None
    if spec.get("trace") is not None:
        from repro.trace import Tracer, TraceSink

        sink = TraceSink()
        tracer = Tracer(sink, component=spec["worker_id"],
                        worker_id=spec["worker_id"], sample=spec["trace"])
    worker = FleetWorker(
        spec["worker_id"],
        spec["model"],
        spec["config"],
        clock=clock,
        capacity_per_step=spec["capacity_per_step"],
        tracer=tracer,
    )
    while True:
        try:
            message = conn.recv()
        except EOFError:
            return
        op, now = message[0], message[1]
        if op == "close":
            conn.close()
            return
        clock.advance_to(now)
        try:
            if op == "submit":
                result = worker.submit(message[2], message[3],
                                       trace=message[4])
            elif op == "step":
                result = worker.step()
            elif op == "drain":
                result = worker.drain()
            elif op == "end_session":
                result = worker.end_session(message[2])
            elif op == "rebuild_session":
                result = worker.rebuild_session(
                    message[2], message[3], emit_after_index=message[4],
                    trace=message[5],
                )
            elif op == "metrics":
                result = worker.metrics_registry()
            elif op == "state":
                result = (worker.queue_depth, worker.n_sessions)
            else:
                raise ValueError(f"unknown worker op {op!r}")
        except Exception as exc:  # report, keep serving
            spans = sink.drain() if sink is not None else ()
            conn.send(("err", f"{type(exc).__name__}: {exc}", spans))
        else:
            spans = sink.drain() if sink is not None else ()
            conn.send(("ok", result, spans))


class SubprocessWorker:
    """A :class:`FleetWorker` in a spawned child process, driven by pipe.

    Same surface as :class:`FleetWorker`; every method is one synchronous
    request/response round trip.  A dead child (crash, SIGKILL, OOM)
    surfaces as :class:`WorkerUnavailable` from whatever call touches the
    broken pipe — the router treats that exactly like an in-process
    crash.  ``faults`` ships :class:`~repro.resilience.FaultSpec` s for
    the child to install, so crash tests can SIGKILL it at an exact step.

    ``trace_sink`` (optional) enables tracing in the child: the child
    runs a private tracer (``trace_sample`` sampling) and every pipe
    response carries its freshly recorded spans, which are merged into
    the given sink here in the parent.
    """

    def __init__(
        self,
        worker_id: str,
        model,
        config: ServeConfig | None = None,
        *,
        clock=time.monotonic,
        capacity_per_step: int | None = None,
        heartbeat=None,
        faults=(),
        trace_sink=None,
        trace_sample: float = 1.0,
    ):
        self.worker_id = str(worker_id)
        self.clock = clock
        self.capacity_per_step = capacity_per_step
        self._heartbeat = heartbeat
        self.trace_sink = trace_sink
        self._alive = True
        ctx = mp.get_context("spawn")   # fork is unsafe with threaded BLAS
        self._conn, child_conn = ctx.Pipe()
        payload = pickle.dumps({
            "worker_id": self.worker_id,
            "model": model,
            "config": config,
            "capacity_per_step": capacity_per_step,
            "faults": tuple(faults),
            "trace": float(trace_sample) if trace_sink is not None else None,
        })
        self._proc = ctx.Process(
            target=_subprocess_worker_main,
            args=(child_conn, payload),
            daemon=True,
        )
        self._proc.start()
        child_conn.close()

    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        """False once the child died or the pipe broke."""
        return self._alive and self._proc.is_alive()

    @property
    def pid(self) -> int:
        """Child process id (SIGKILL target for crash tests)."""
        return self._proc.pid

    def kill(self) -> None:
        """SIGKILL the child — no atexit, no flushing, abrupt death."""
        if self._proc.is_alive():
            os.kill(self._proc.pid, signal.SIGKILL)
            self._proc.join(timeout=10.0)
        self._alive = False

    def close(self) -> None:
        """Graceful shutdown of the child process."""
        if self._alive and self._proc.is_alive():
            try:
                self._conn.send(("close", self.clock()))
            except (BrokenPipeError, OSError):
                pass
        self._alive = False
        self._proc.join(timeout=10.0)
        if self._proc.is_alive():
            self._proc.terminate()

    def rebind_clock(self, clock) -> None:
        """Re-point at ``clock``; the child syncs via message timestamps."""
        self.clock = clock

    def _call(self, op: str, *args):
        if not self._alive:
            raise WorkerUnavailable(f"worker {self.worker_id} is dead")
        try:
            self._conn.send((op, self.clock(), *args))
            status, result, spans = self._conn.recv()
        except (EOFError, BrokenPipeError, ConnectionResetError, OSError) as exc:
            self._alive = False
            raise WorkerUnavailable(
                f"worker {self.worker_id} process died mid-{op}"
            ) from exc
        if spans and self.trace_sink is not None:
            # Merge even on "err": spans describe work that did complete
            # in the child before the failure.
            self.trace_sink.extend(spans)
        if status == "err":
            self._alive = False
            raise WorkerUnavailable(
                f"worker {self.worker_id} failed {op}: {result}"
            )
        if self._heartbeat is not None:
            # A successful round trip is proof of life on the shared clock.
            self._heartbeat.beat(self.worker_id)
        return result

    # ------------------------------------------------------------------
    def submit(self, job_id, samples, *, trace=None) -> SubmitResult:
        """Enqueue one chunk in the child replica."""
        return self._call("submit", job_id, samples, trace)

    def step(self) -> list[Emission]:
        """Serve one tick in the child replica."""
        return self._call("step")

    def drain(self) -> list[Emission]:
        """Flush the child replica."""
        return self._call("drain")

    def end_session(self, job_id) -> bool:
        """Discard one job's session state in the child."""
        return self._call("end_session", job_id)

    def rebuild_session(self, job_id, rows, *, emit_after_index: int = -1,
                        trace=None):
        """Failover adoption in the child (rows cross the pipe once)."""
        return self._call(
            "rebuild_session", job_id, np.ascontiguousarray(rows),
            emit_after_index, trace,
        )

    def metrics_registry(self) -> MetricsRegistry:
        """A pickled snapshot of the child's registry (not live)."""
        return self._call("metrics")

    @property
    def queue_depth(self) -> int:
        """Chunks queued in the child replica."""
        return self._call("state")[0]

    @property
    def n_sessions(self) -> int:
        """Sessions resident in the child replica."""
        return self._call("state")[1]
