"""Kill a serving worker mid-run and recover without losing a prediction.

The fleet control plane (:mod:`repro.fleet`) shards job streams across
workers by consistent hashing and rebuilds a dead worker's sessions from
history replay.  This script makes the reliability claim concrete: run
the same traffic twice — once undisturbed, once killing the worker that
owns job 0 halfway through — and show that the surviving fleet re-emits
exactly what the dead worker lost, bit-identical to the unfailed run.
The series are replayed as float32, as a store replay hands them out,
so the run also checks that float32 admission and failover emit what a
float64 replay of the same telemetry emits::

    python examples/fleet_failover.py
"""

import contextlib

import numpy as np

from repro import SimulationConfig
from repro.data import build_challenge_suite, build_labelled_dataset
from repro.fleet import FleetRouter, FleetWorker
from repro.models import make_rf_cov
from repro.resilience.faults import FaultSpec, inject
from repro.serve import FleetLoadGenerator, ServeConfig, SimulatedClock


def build_fleet(model, window, gen, n_workers):
    """A router over ``n_workers`` in-process replicas on the gen's clock."""
    config = ServeConfig(window=window, hop=window, max_batch=32,
                         flush_deadline_s=0.0)
    workers = [
        FleetWorker(f"w{i}", model, config, clock=gen.clock)
        for i in range(n_workers)
    ]
    return FleetRouter(workers, clock=gen.clock, history=gen.job_stream)


def trace(emissions):
    """Per-job emission fingerprint: the failover parity currency."""
    out = {}
    for e in emissions:
        out.setdefault(e.job_id, []).append(
            (e.prediction.sample_index, e.prediction.label,
             e.prediction.smoothed_label, round(e.prediction.confidence, 9)))
    return out


def replay(model, window, series, *, kill_tick=None):
    """One full fleet replay; optionally kill job 0's owner at a tick.

    Each series keeps its own dtype from submit to the session ring, as
    in a store replay.
    """
    gen = FleetLoadGenerator(
        series, n_jobs=24, samples_per_tick=window,
        max_samples_per_job=window * 12, seed=7, clock=SimulatedClock(),
        keep_dtype=True,
    )
    router = build_fleet(model, window, gen, n_workers=4)
    victim = router.owner_of(0)
    if kill_tick is None:
        crash = contextlib.nullcontext()
    else:
        # Crash the victim at the top of its step on `kill_tick`: that
        # tick's chunks are already routed and queued on it, so they die
        # with it and failover replay must re-produce their predictions.
        # Workers finish their steps in sorted-id order, one
        # fleet.worker.crash hit each per tick, which makes the kill
        # instant reproducible.
        hit = kill_tick * router.n_workers + sorted(
            router.worker_ids).index(victim) + 1
        crash = inject(FaultSpec("fleet.worker.crash", at_hit=hit,
                                 mode="raise"))
    with crash:
        report = gen.run(router)
    return report, router, victim


def main() -> None:
    # 1. The usual offline model (see serve_fleet.py for the long form).
    config = SimulationConfig(seed=2022, trials_scale=0.02,
                              min_jobs_per_class=2, startup_mean_s=28.0)
    labelled = build_labelled_dataset(config)
    ds = build_challenge_suite(labelled, seed=0, names=("60-random-1",))[
        "60-random-1"]
    model = make_rf_cov(n_estimators=30).fit(ds.X_train, ds.y_train)
    window = ds.n_samples
    # Float32 telemetry, the dtype a TelemetryStore archives and replays.
    series = [t.series.astype(np.float32)
              for t in labelled.eligible(window).trials]
    print(f"offline model fitted on {ds.n_train} windows\n")

    # 2. The unfailed twin: 24 jobs across 4 workers, nobody dies.
    print("clean run (no failures):")
    clean, clean_router, _ = replay(model, window, series)
    print(f"  {len(clean.emissions)} predictions from "
          f"{clean_router.n_workers} workers\n")

    # 3. Same traffic, but job 0's owner is killed mid-run.  The router
    #    notices on the next call into it, re-owns its jobs on the ring,
    #    and rebuilds their sessions by replaying delivered history.
    print("failure run (worker killed mid-run):")
    failed, router, victim = replay(model, window, series, kill_tick=6)
    event = next(e for e in router.events if e.kind == "failover")
    print(f"  {victim} died owning {event.n_jobs} jobs; "
          f"{event.n_recovered} lost predictions re-emitted by replay")
    print(f"  survivors: {router.worker_ids}\n")

    # 4. The parity claim: per job, the union of pre-crash and recovered
    #    emissions is bit-identical to the unfailed twin.  An explicit
    #    check, not an assert, so that ``python -O`` still exits 1.
    if trace(failed.emissions) != trace(clean.emissions):
        raise SystemExit("parity: the failure run's emissions differ "
                         "from the unfailed run")
    print("parity: every (sample_index, label, smoothed, confidence) "
          "matches the unfailed run exactly")

    # 5. The same telemetry as float64 emits the same predictions: float32
    #    rows are widened exactly wherever a float64 value is needed.
    wide, _, _ = replay(model, window, [s.astype(np.float64) for s in series])
    if trace(wide.emissions) != trace(clean.emissions):
        raise SystemExit("dtype: the float64 replay's emissions differ "
                         "from the float32 replay's")
    print("dtype: a float64 replay of the same telemetry emits the same")

    # 6. One fleet-wide operator view — counters add, histograms merge.
    #    The dead worker's counters stay in it, so the fleet counts every
    #    prediction it delivered.
    fleet = router.fleet_metrics()
    print(f"\nfleet metrics after recovery "
          f"({int(fleet.gauge('fleet.workers').value)} workers):")
    for name in ("fleet.chunks.routed", "fleet.failovers",
                 "fleet.sessions.migrated", "fleet.predictions.recovered",
                 "predictions.emitted"):
        print(f"  {name:<30} {fleet.counter(name).value}")
    emitted = fleet.counter("predictions.emitted").value
    if emitted != len(failed.emissions):
        raise SystemExit(f"metrics: the fleet counts {emitted} predictions "
                         f"emitted but delivered {len(failed.emissions)}")


if __name__ == "__main__":
    main()
