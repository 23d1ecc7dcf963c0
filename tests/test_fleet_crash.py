"""Subprocess worker tests: real process isolation, real SIGKILL.

Kept deliberately small (few jobs, few ticks, at most two child
processes per test) — every subprocess step is a pipe round trip on a
spawn-context child, and spawning one is slow on CI boxes.
"""

import multiprocessing as mp
import os
import signal

import numpy as np
import pytest

from repro.fleet import FleetRouter, FleetWorker, SubprocessWorker, WorkerUnavailable
from repro.fleet.ring import HashRing
from repro.resilience.faults import FaultSpec, inject
from repro.serve import FleetLoadGenerator, ServeConfig, SimulatedClock, SubmitResult
from repro.trace import TraceQuery, TraceSink, Tracer
from tests.stubs import ThresholdModel


def _series(n_rows, seed=11, n_series=4):
    rng = np.random.default_rng(seed)
    return [rng.random((n_rows, 7)) * 100.0 for _ in range(n_series)]


def _config():
    return ServeConfig(window=90, hop=90, flush_deadline_s=0.0)


def _gen(clock, *, n_jobs=4, rows=360):
    return FleetLoadGenerator(
        _series(rows), n_jobs=n_jobs, samples_per_tick=90,
        max_samples_per_job=rows, seed=5, clock=clock,
    )


def _trace(emissions):
    out = {}
    for e in emissions:
        out.setdefault(e.job_id, []).append(
            (e.prediction.sample_index, e.prediction.label,
             e.prediction.smoothed_label, e.prediction.confidence))
    return out


def test_subprocess_worker_matches_in_process_twin():
    in_clock = SimulatedClock()
    in_gen = _gen(in_clock)
    in_report = in_gen.run(
        FleetWorker("w0", ThresholdModel(), _config(), clock=in_clock))

    sub_clock = SimulatedClock()
    sub_gen = _gen(sub_clock)
    worker = SubprocessWorker("w0", ThresholdModel(), _config(),
                              clock=sub_clock)
    try:
        sub_report = sub_gen.run(worker)
    finally:
        worker.close()
    assert _trace(sub_report.emissions) == _trace(in_report.emissions)
    assert not worker.alive


def test_sigkilled_child_fails_over_with_parity():
    # clean twin: all in-process
    clean_clock = SimulatedClock()
    clean_gen = _gen(clean_clock)
    clean_router = FleetRouter(
        [FleetWorker(w, ThresholdModel(), _config(), clock=clean_clock)
         for w in ("w0", "w1")],
        clock=clean_clock, history=clean_gen.job_stream,
    )
    clean = clean_gen.run(clean_router)

    # victim fleet: job 0's ring owner is the subprocess, the other
    # worker stays in-process so recovery is cheap and deterministic
    victim = HashRing(["w0", "w1"]).owner(0)
    survivor = "w1" if victim == "w0" else "w0"
    clock = SimulatedClock()
    gen = _gen(clock)
    sub = SubprocessWorker(victim, ThresholdModel(), _config(), clock=clock)
    router = FleetRouter(
        [sub, FleetWorker(survivor, ThresholdModel(), _config(), clock=clock)],
        clock=clock, history=gen.job_stream,
    )

    def on_tick(tick, emissions):
        if tick == 1 and victim in router.worker_ids:
            sub.kill()      # SIGKILL — the parent sees a broken pipe next

    try:
        report = gen.run(router, on_tick=on_tick)
    finally:
        for wid in router.worker_ids:
            router.worker(wid).close()
    assert _trace(report.emissions) == _trace(clean.emissions)
    events = [e for e in router.events if e.kind == "failover"]
    assert [e.worker_id for e in events] == [victim]
    assert router.worker_ids == [survivor]


def test_sigkill_mid_traced_request_marks_span_failed_and_links_failover():
    victim = HashRing(["w0", "w1"]).owner(0)
    survivor = "w1" if victim == "w0" else "w0"
    clock = SimulatedClock()
    gen = _gen(clock)
    sink = TraceSink()
    sub = SubprocessWorker(victim, ThresholdModel(), _config(), clock=clock,
                           trace_sink=sink)
    router = FleetRouter(
        [sub,
         FleetWorker(survivor, ThresholdModel(), _config(), clock=clock,
                     tracer=Tracer(sink, component=survivor,
                                   worker_id=survivor))],
        clock=clock, history=gen.job_stream,
        tracer=Tracer(sink, component="router"),
    )

    def on_tick(tick, emissions):
        if tick == 1 and victim in router.worker_ids:
            sub.kill()

    try:
        report = gen.run(router, on_tick=on_tick,
                         tracer=Tracer(sink, component="gen"))
    finally:
        for wid in router.worker_ids:
            router.worker(wid).close()

    # tracing must not perturb recovery: same emissions as the untraced
    # twin of test_sigkilled_child_fails_over_with_parity's clean fleet
    clean_clock = SimulatedClock()
    clean_gen = _gen(clean_clock)
    clean = clean_gen.run(FleetRouter(
        [FleetWorker(w, ThresholdModel(), _config(), clock=clean_clock)
         for w in ("w0", "w1")],
        clock=clean_clock, history=clean_gen.job_stream,
    ))
    assert _trace(report.emissions) == _trace(clean.emissions)

    query = TraceQuery(sink.spans())
    lost = [s for s in sink.spans() if s.name == "worker.lost"]
    assert lost, "expected a worker.lost span for the killed worker's jobs"
    assert all(s.failed and s.worker_id == victim for s in lost)
    # every in-flight request the victim held gets failover spans that
    # link back to the original trace, and the tree stays connected
    for span in lost:
        replays = [s for s in sink.spans()
                   if s.trace_id == span.trace_id
                   and s.name == "failover.replay"]
        assert replays and all(
            s.annotations["links"] == span.trace_id for s in replays)
        assert query.is_connected(span.trace_id)
    # spans recorded by the child *before* the kill shipped back on each
    # pipe response — serve-stage work from the victim is visible
    assert any(s.worker_id == victim and s.name == "ingest"
               for s in sink.spans())


def test_fault_spec_shipped_to_child_sigkills_it():
    clock = SimulatedClock()
    worker = SubprocessWorker(
        "w0", ThresholdModel(), _config(), clock=clock,
        faults=(FaultSpec("fleet.worker.crash", at_hit=2, mode="kill"),),
    )
    try:
        assert worker.step() == []          # hit 1: survives
        with pytest.raises(WorkerUnavailable):
            worker.step()                   # hit 2: child SIGKILLs itself
        assert not worker.alive
        with pytest.raises(WorkerUnavailable):
            worker.submit(0, np.ones((5, 7)))
    finally:
        worker.close()


def _victim_fleet(clock, gen, **sub_kwargs):
    """Job 0's ring owner as a subprocess, the other worker in-process."""
    victim = HashRing(["w0", "w1"]).owner(0)
    survivor = "w1" if victim == "w0" else "w0"
    sub = SubprocessWorker(victim, ThresholdModel(), _config(), clock=clock,
                           **sub_kwargs)
    router = FleetRouter(
        [sub, FleetWorker(survivor, ThresholdModel(), _config(), clock=clock)],
        clock=clock, history=gen.job_stream,
    )
    return victim, survivor, sub, router


def _clean_twin():
    clock = SimulatedClock()
    gen = _gen(clock)
    return gen.run(FleetRouter(
        [FleetWorker(w, ThresholdModel(), _config(), clock=clock)
         for w in ("w0", "w1")],
        clock=clock, history=gen.job_stream,
    ))


def test_silently_sigkilled_child_is_detected_at_step_with_parity():
    clean = _clean_twin()
    clock = SimulatedClock()
    gen = _gen(clock)
    victim, survivor, sub, router = _victim_fleet(clock, gen)

    def on_tick(tick, emissions):
        if tick == 1 and victim in router.worker_ids:
            # No sub.kill(): the parent learns of the death only from
            # the pipe, at the next step.
            os.kill(sub.pid, signal.SIGKILL)

    try:
        report = gen.run(router, on_tick=on_tick)
    finally:
        for wid in router.worker_ids:
            router.worker(wid).close()
        sub.close()
    assert _trace(report.emissions) == _trace(clean.emissions)
    events = [e for e in router.events if e.kind == "failover"]
    assert [e.worker_id for e in events] == [victim]
    # The victim's tick-2 chunks were admitted in the parent after the
    # death; they count as delivered, so the replay re-emits them.
    assert events[0].n_recovered == 2
    assert router.worker_ids == [survivor]


def test_err_reply_fails_over_and_reaps_the_child():
    clean = _clean_twin()
    clock = SimulatedClock()
    gen = _gen(clock)
    victim, survivor, sub, router = _victim_fleet(
        clock, gen,
        faults=(FaultSpec("fleet.worker.crash", at_hit=2, mode="raise"),))
    try:
        report = gen.run(router)
        assert [e.worker_id for e in router.events
                if e.kind == "failover"] == [victim]
        assert not sub._proc.is_alive()
        assert sub._proc.exitcode is not None           # reaped
        assert sub._proc not in mp.active_children()
        with pytest.raises(WorkerUnavailable):
            sub.submit(0, np.ones((5, 7)))
    finally:
        for wid in router.worker_ids:
            router.worker(wid).close()
        sub.close()
    assert _trace(report.emissions) == _trace(clean.emissions)


def _overload(worker, clock):
    """Drive four jobs at twice a 2-chunk capacity; record everything."""
    series = _series(540)
    results, depths, emissions = [], [], []
    for tick in range(6):
        if tick == 3:
            # Each policy leaves one of these jobs' chunks queued; ending
            # the session drops it.
            worker.end_session(1)
            worker.end_session(3)
        for job in range(4):
            chunk = series[job][tick * 90: (tick + 1) * 90]
            results.append(worker.submit(job, chunk))
        emissions.extend(worker.step())
        depths.append(worker.queue_depth)
        clock.advance(10.0)
    emissions.extend(worker.drain())
    results.append(worker.submit(0, series[0][:90]))    # after drain
    for job in range(4):
        worker.end_session(job)
    registry = worker.metrics_registry()
    counters = {name: registry.counter(name).value for name in (
        "ingress.chunks", "ingress.samples", "ingress.rejected",
        "ingress.shed", "ingress.dropped_on_end", "ingress.draining")}
    rows = [(e.job_id, e.prediction, e.latency_s) for e in emissions]
    return results, depths, rows, counters, registry.gauge("ingress.depth").value


@pytest.mark.parametrize("admission", ["reject", "shed-oldest"])
def test_parent_side_admission_matches_in_process_worker(admission):
    config = ServeConfig(window=90, hop=90, flush_deadline_s=0.0,
                         queue_capacity=3, admission=admission)
    in_clock = SimulatedClock()
    expected = _overload(
        FleetWorker("w0", ThresholdModel(), config, clock=in_clock,
                    capacity_per_step=2), in_clock)
    sub_clock = SimulatedClock()
    sub = SubprocessWorker("w0", ThresholdModel(), config, clock=sub_clock,
                           capacity_per_step=2)
    try:
        got = _overload(sub, sub_clock)
    finally:
        sub.close()
    assert got == expected
    results, depths, rows, counters, depth = got
    assert SubmitResult.DRAINING in results and rows
    assert counters["ingress.dropped_on_end"] > 0
    assert counters["ingress.rejected" if admission == "reject"
                    else "ingress.shed"] > 0
    assert depth == 0


class _CountingConn:
    """Pipe end that records the op of every message the parent sends."""

    def __init__(self, conn):
        self._conn = conn
        self.ops = []

    def send(self, message):
        self.ops.append(message[0])
        self._conn.send(message)

    def __getattr__(self, name):
        return getattr(self._conn, name)


def test_replay_sends_one_pipe_message_per_tick():
    clock = SimulatedClock()
    gen = _gen(clock)
    worker = SubprocessWorker("w0", ThresholdModel(), _config(), clock=clock)
    worker._conn = conn = _CountingConn(worker._conn)
    try:
        report = gen.run(worker)
        ops = list(conn.ops)
    finally:
        worker.close()
    # Submits admit in the parent; only steps, the drain and the
    # end-of-stream end_sessions cross the pipe.
    assert ops == (["step"] * report.n_ticks + ["drain"]
                   + ["end_session"] * gen.n_jobs)
    assert report.n_predictions > 0


_LEFT_QUEUED_PROBE = """
import sys
import numpy as np
from repro.fleet import SubprocessWorker, WorkerUnavailable
from repro.serve import ServeConfig, SimulatedClock
from tests.stubs import ThresholdModel

worker = SubprocessWorker(
    "w0", ThresholdModel(), ServeConfig(window=90, hop=90, flush_deadline_s=0.0),
    clock=SimulatedClock(), capacity_per_step=1)
chunk = np.ones((90, 7))
try:
    # Ship two chunks to a child that serves one per step.
    worker._call("step", [(0, chunk, None), (1, chunk, None)])
except WorkerUnavailable as exc:
    print("optimize", sys.flags.optimize, "alive", worker._proc.is_alive(),
          "|", exc)
else:
    print("no error")
worker.close()
"""


def test_child_left_queued_check_survives_python_O():
    import subprocess
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), str(root)]))
    out = subprocess.run([sys.executable, "-O", "-c", _LEFT_QUEUED_PROBE],
                         cwd=root, env=env, capture_output=True, text=True,
                         timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == (
        "optimize 1 alive False | worker w0 failed step: "
        "RuntimeError: 1 chunks left queued after step")


class _LoggedConn:
    """Pipe end that appends ``(worker id, op)`` to a shared log for each
    message the parent sends and ``(worker id, "recv")`` for each reply it
    reads."""

    def __init__(self, conn, worker_id, log):
        self._conn = conn
        self._worker_id = worker_id
        self._log = log

    def send(self, message):
        self._log.append((self._worker_id, message[0]))
        self._conn.send(message)

    def recv(self):
        self._log.append((self._worker_id, "recv"))
        return self._conn.recv()

    def __getattr__(self, name):
        return getattr(self._conn, name)


def _subprocess_fleet(clock, gen, log, faults=None):
    """A router over subprocess workers w0 and w1, their pipes logged."""
    workers = []
    for wid in ("w0", "w1"):
        worker = SubprocessWorker(wid, ThresholdModel(), _config(),
                                  clock=clock,
                                  faults=(faults or {}).get(wid, ()))
        worker._conn = _LoggedConn(worker._conn, wid, log)
        workers.append(worker)
    return workers, FleetRouter(workers, clock=clock,
                                history=gen.job_stream)


def _ordered(emissions):
    return [(e.job_id, e.prediction.sample_index, e.prediction.label,
             e.prediction.smoothed_label, e.prediction.confidence)
            for e in emissions]


def test_router_sends_every_step_before_reading_any_reply():
    clock = SimulatedClock()
    gen = _gen(clock)
    log = []
    workers, router = _subprocess_fleet(clock, gen, log)
    try:
        report = gen.run(router)
        log = list(log)                 # before the close messages
    finally:
        for worker in workers:
            worker.close()
    overlapped = {op: [("w0", op), ("w1", op), ("w0", "recv"), ("w1", "recv")]
                  for op in ("step", "drain")}
    n_tick_messages = 4 * (report.n_ticks + 1)
    assert log[:n_tick_messages] == (overlapped["step"] * report.n_ticks
                                     + overlapped["drain"])
    # Then one end_session round trip per job, on its owner.
    rest = log[n_tick_messages:]
    assert [op for _, op in rest] == ["end_session", "recv"] * gen.n_jobs
    assert _trace(report.emissions) == _trace(_clean_twin().emissions)


def test_lower_id_child_killed_mid_step_fails_over_like_in_process_twin():
    # w0 SIGKILLs itself inside its third step (tick 2), after the router
    # has already sent w1 its step: the death is seen while w1's reply is
    # still unread.
    clock = SimulatedClock()
    gen = _gen(clock)
    log = []
    workers, router = _subprocess_fleet(
        clock, gen, log,
        faults={"w0": (FaultSpec("fleet.worker.crash", at_hit=3,
                                 mode="kill"),)})
    try:
        report = gen.run(router)
    finally:
        for worker in workers:
            worker.close()
    # Tick 2: both steps went out, w0's recv failed, w1's was then read,
    # and only after that did the failover's rebuilds go to w1.
    tick2 = log[8:14]
    assert tick2 == [("w0", "step"), ("w1", "step"), ("w0", "recv"),
                     ("w1", "recv"), ("w1", "rebuild_session"),
                     ("w1", "recv")]

    # In-process twin: w0's crash fault point fires at the same step
    # (hits alternate w0, w1 each tick, so tick 2's w0 step is hit 5).
    twin_clock = SimulatedClock()
    twin_gen = _gen(twin_clock)
    twin_router = FleetRouter(
        [FleetWorker(w, ThresholdModel(), _config(), clock=twin_clock)
         for w in ("w0", "w1")],
        clock=twin_clock, history=twin_gen.job_stream)
    with inject(FaultSpec("fleet.worker.crash", at_hit=5, mode="raise")):
        twin = twin_gen.run(twin_router)

    assert _ordered(report.emissions) == _ordered(twin.emissions)
    assert _trace(report.emissions) == _trace(_clean_twin().emissions)
    assert router.events == twin_router.events
    (event,) = router.events
    assert (event.kind, event.worker_id) == ("failover", "w0")
    assert event.n_jobs > 0 and event.n_recovered > 0
    assert router.worker_ids == ["w1"]


def test_worker_with_a_reply_outstanding_refuses_other_calls():
    clock = SimulatedClock()
    worker = SubprocessWorker("w0", ThresholdModel(), _config(), clock=clock)
    worker._conn = conn = _CountingConn(worker._conn)
    try:
        assert worker.submit(0, np.ones((90, 7)))
        worker.start("step")
        for call in (lambda: worker.submit(0, np.ones((90, 7))),
                     worker.step, worker.drain,
                     lambda: worker.start("step"),
                     lambda: worker.finish("drain"),
                     lambda: worker.end_session(0),
                     lambda: worker.rebuild_session(0, np.ones((90, 7))),
                     worker.metrics_registry):
            with pytest.raises(RuntimeError, match="step"):
                call()
        assert conn.ops == ["step"]             # nothing else went out
        (emission,) = worker.finish("step")     # the step's own reply
        assert (emission.job_id, emission.prediction.sample_index) == (0, 90)
        assert worker.step() == []              # usable again
        with pytest.raises(RuntimeError, match="no step reply"):
            worker.finish("step")
    finally:
        worker.close()


def test_two_children_killed_in_one_tick_fail_over_onto_the_survivor():
    # w0 and w1 SIGKILL themselves in the same step (tick 2).  Both leave
    # the ring before any job is rebuilt, so no rebuild is sent to a
    # worker already found dead, and everything lands on w2.
    kill = (FaultSpec("fleet.worker.crash", at_hit=3, mode="kill"),)
    clock = SimulatedClock()
    gen = _gen(clock)
    subs = [SubprocessWorker(w, ThresholdModel(), _config(), clock=clock,
                             faults=kill) for w in ("w0", "w1")]
    router = FleetRouter(
        [*subs, FleetWorker("w2", ThresholdModel(), _config(), clock=clock)],
        clock=clock, history=gen.job_stream)
    try:
        report = gen.run(router)
    finally:
        for sub in subs:
            sub.close()

    # In-process twin: tick 2's w0 and w1 steps are crash hits 7 and 8.
    twin_clock = SimulatedClock()
    twin_gen = _gen(twin_clock)
    twin_router = FleetRouter(
        [FleetWorker(w, ThresholdModel(), _config(), clock=twin_clock)
         for w in ("w0", "w1", "w2")],
        clock=twin_clock, history=twin_gen.job_stream)
    with inject(FaultSpec("fleet.worker.crash", at_hit=7, mode="raise"),
                FaultSpec("fleet.worker.crash", at_hit=8, mode="raise")):
        twin = twin_gen.run(twin_router)

    clean_clock = SimulatedClock()
    clean_gen = _gen(clean_clock)
    clean = clean_gen.run(FleetRouter(
        [FleetWorker(w, ThresholdModel(), _config(), clock=clean_clock)
         for w in ("w0", "w1", "w2")],
        clock=clean_clock, history=clean_gen.job_stream))

    assert _ordered(report.emissions) == _ordered(twin.emissions)
    assert _trace(report.emissions) == _trace(clean.emissions)
    assert router.events == twin_router.events
    assert [(e.kind, e.worker_id) for e in router.events] == [
        ("failover", "w0"), ("failover", "w1")]
    assert router.worker_ids == ["w2"]
