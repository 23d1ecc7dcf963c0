"""Classify a live workload stream — the paper's deployment use case.

Section VI: models should help "classifying snapshots of data from live
workloads running in-progress, which represents a viable use case for
these types of models to be deployed".  This example trains the RF+Cov
baseline offline, then replays a held-out job's telemetry sample-by-sample
through :class:`repro.core.OnlineWorkloadClassifier`, printing the rolling
prediction as the job runs::

    python examples/live_classification.py
"""

import numpy as np

from repro import SimulationConfig
from repro.core import OnlineWorkloadClassifier
from repro.data import build_challenge_suite, build_labelled_dataset
from repro.models import make_rf_cov
from repro.simcluster.architectures import architecture_names


def main() -> None:
    config = SimulationConfig(seed=2022, trials_scale=0.03, min_jobs_per_class=4,
                              startup_mean_s=28.0)
    labelled = build_labelled_dataset(config)
    suite = build_challenge_suite(labelled, seed=0, names=("60-random-1",))
    ds = suite["60-random-1"]

    model = make_rf_cov(n_estimators=100, max_features=None)
    model.fit(ds.X_train, ds.y_train)
    print(f"offline model fitted on {ds.n_train} windows; now going live.\n")

    # Replay a fresh job's full telemetry as a live stream.
    live = max(labelled.eligible(1200).trials, key=lambda t: t.n_samples)
    names = architecture_names()
    print(f"streaming job {live.job_id} ({live.n_samples} samples @ 9 Hz); "
          f"true class: {names[live.label]}\n")

    online = OnlineWorkloadClassifier(model=model, window=540, hop=270,
                                      vote_window=5)
    chunk = 90  # 10 s of telemetry per poll
    print(f"{'t (s)':>7s}  {'window pred':<14s} {'smoothed':<14s} conf")
    for start in range(0, live.n_samples, chunk):
        for pred in online.push(live.series[start : start + chunk]):
            t_s = pred.sample_index / 9.0
            print(f"{t_s:7.0f}  {names[pred.label]:<14s} "
                  f"{names[pred.smoothed_label]:<14s} {pred.confidence:.2f}")

    # An empty push emits nothing.  An explicit check, not an assert, so
    # that ``python -O`` still exits 1.
    final = online.push(np.empty((0, 7)))
    if final != []:
        raise SystemExit(f"an empty push emitted {len(final)} predictions")
    print("\nNote how early windows (startup phase) are least reliable and "
          "the smoothed vote settles as steady-state telemetry arrives — "
          "the start-window effect of Tables V/VI, live.")


if __name__ == "__main__":
    main()
