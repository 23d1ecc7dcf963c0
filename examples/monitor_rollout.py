"""Drift detection primitives: catch an injected sensor gain ramp.

``serve_fleet.py`` ends with a model serving a fleet; this walkthrough
shows the first thing that keeps that model honest once the fleet
underneath it changes.  It injects a sensor gain ramp into a telemetry
stream with :func:`repro.monitor.inject_series` and watches a
:class:`repro.monitor.SensorDriftDetector` catch it, while the clean
stream stays silent.

The whole control loop on top of these primitives (a drifting fleet,
a shadowed challenger, a canary cohort, alerts and the registry flip on
promotion or rollback) is wired in ``_rollout`` in
``tests/test_monitor.py``; ``TestRolloutOnASimulatedRelease`` runs it
with RF-cov models on a simulated release::

    python examples/monitor_rollout.py
"""

import numpy as np

from repro.monitor import DriftInjection, SensorDriftDetector, inject_series


def drift_primitives_demo() -> None:
    """One detector, one stream, one injected gain ramp."""
    rng = np.random.default_rng(7)
    # A plausible steady-state stream: fixed operating point + sensor noise.
    level = np.array([55.0, 30.0, 20000.0, 12000.0, 55.0, 60.0, 180.0])
    noise = np.array([8.0, 5.0, 300.0, 300.0, 0.5, 0.5, 20.0])
    series = level + rng.normal(size=(3000, 7)) * noise

    injection = DriftInjection(start_sample=1500, ramp_samples=270,
                               gain=1.25, sensors=(0, 6))
    drifted = inject_series(series, injection)

    for name, stream in (("clean", series), ("drifted", drifted)):
        detector = SensorDriftDetector(session_id=name)
        events = detector.update_many(stream)
        if not events:
            print(f"{name:>8}: no drift events (as it should be)")
            continue
        first = detector.first_event_sample
        print(f"{name:>8}: {len(events)} events, first on sensor "
              f"{events[0].sensor!r} at sample {first} "
              f"({first - injection.start_sample} after injection)")


def main() -> None:
    """Run the drift-detection demo."""
    print("== drift detection primitives ==")
    drift_primitives_demo()


if __name__ == "__main__":
    main()
