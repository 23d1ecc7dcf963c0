"""Subprocess worker tests: real process isolation, real SIGKILL.

Kept deliberately small (few jobs, few ticks, at most one child process
per test) — every subprocess call is a pipe round trip on a spawn-context
child, which is slow on CI boxes.
"""

import numpy as np
import pytest

from repro.fleet import FleetRouter, FleetWorker, SubprocessWorker, WorkerUnavailable
from repro.fleet.ring import HashRing
from repro.resilience.faults import FaultSpec
from repro.serve import FleetLoadGenerator, ServeConfig, SimulatedClock
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
