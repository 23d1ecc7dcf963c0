"""A spawned child imports only what it runs.

Every ``spawn`` child (a fleet worker) starts a fresh interpreter and
pays for each module its entry point pulls in.  These tests start such an
interpreter, run what the child runs, and check that the heavy packages
it never uses stay out of ``sys.modules``: scipy (only ``PCA.fit`` uses
it, and imports it there), the simulator package (serving
reads its stream constants from ``repro.telemetry``), the subpackages
that ``repro`` and ``repro.core`` export lazily, and the process-pool
machinery that only grid search and cross-validation load.

A structural check, not a timing gate.
"""

import json
import os
import pickle
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np

import repro
from repro.models import make_rf_cov

SRC = str(Path(repro.__file__).resolve().parent.parent)


def _loaded_after(code: str, watched: list[str], cwd) -> list[str]:
    """Run ``code`` in a fresh interpreter; return the ``watched``
    packages present in its ``sys.modules`` afterwards."""
    probe = textwrap.dedent(code) + textwrap.dedent(f"""
        import json, sys
        watched = {watched!r}
        print(json.dumps(sorted(
            w for w in watched
            if any(m == w or m.startswith(w + ".") for m in sys.modules))))
    """)
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", probe], cwd=cwd, env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_fleet_worker_child_serves_rf_cov_without_heavy_imports(tmp_path):
    rng = np.random.default_rng(0)
    X = rng.random((12, 90, 7))
    model = make_rf_cov(n_estimators=3).fit(X, np.arange(12) % 3)
    path = tmp_path / "rf_cov.pkl"
    path.write_bytes(pickle.dumps(model))
    expected = int(model.predict(X[:1])[0])

    watched = ["scipy", "repro.core", "repro.nn", "repro.data",
               "repro.models", "repro.store", "repro.parallel",
               "repro.simcluster", "multiprocessing.shared_memory"]
    loaded = _loaded_after(f"""
        import pickle
        import numpy as np
        import repro.fleet.worker
        model = pickle.loads(open({str(path)!r}, "rb").read())
        X = np.random.default_rng(0).random((12, 90, 7))
        assert int(model.predict(X[:1])[0]) == {expected}
    """, watched, tmp_path)
    assert loaded == []


def test_trainer_import_skips_scipy_the_simulator_and_the_pool(tmp_path):
    watched = ["scipy", "repro.data", "repro.simcluster.cluster",
               "repro.parallel"]
    loaded = _loaded_after("import repro.nn.training.trainer\n",
                           watched, tmp_path)
    assert loaded == []


def test_import_repro_loads_no_subpackage_exports(tmp_path):
    watched = ["scipy", "repro.core.challenge"]
    assert _loaded_after("import repro\n", watched, tmp_path) == []


def test_probe_sees_a_loaded_package(tmp_path):
    # Guards the probe itself: a watched package that is imported shows up.
    loaded = _loaded_after("from repro import SimulationConfig\n",
                           ["scipy", "repro.simcluster.cluster"], tmp_path)
    assert loaded == ["repro.simcluster.cluster"]


def test_simulate_ingest_fit_serve_loads_no_scipy(tmp_path):
    # The paper's pipeline end to end: simulate a release, ingest it, cut
    # the 60-random-1 split, fit RF-cov and replay jobs through a
    # drift-monitored server.  No stage of it needs scipy.
    loaded = _loaded_after(f"""
        from repro.data import build_challenge_suite
        from repro.models import make_rf_cov
        from repro.monitor import FleetDriftMonitor
        from repro.serve import (FleetLoadGenerator, InferenceServer,
                                 ServeConfig)
        from repro.simcluster import ClusterSimulator, SimulationConfig
        from repro.store import TelemetryStore

        config = SimulationConfig(seed=3, trials_scale=0.004,
                                  min_jobs_per_class=1)
        with TelemetryStore({str(tmp_path / "store")!r}) as store:
            ClusterSimulator(config).generate(store=store)
            split = build_challenge_suite(
                store.labelled_dataset(540), seed=3,
                names=("60-random-1",))["60-random-1"]
            model = make_rf_cov(n_estimators=3, random_state=3)
            model.fit(split.X_train, split.y_train)
            gen = FleetLoadGenerator.from_store(
                store, n_jobs=2, seed=3, max_samples_per_job=720)
            server = InferenceServer(
                model, ServeConfig(window=540, flush_deadline_s=0.0),
                clock=gen.clock, taps=[FleetDriftMonitor()])
            assert gen.run(server).emissions
    """, ["scipy"], tmp_path)
    assert loaded == []


def test_simulator_re_exports_the_telemetry_constants():
    """Serving reads the stream constants from the leaf ``repro.telemetry``;
    the simulator's names are the same objects, and the sensor count
    matches Table III's schema."""
    from repro import telemetry
    from repro.simcluster import sensors, workload

    assert sensors.N_GPU_SENSORS is telemetry.N_GPU_SENSORS
    assert workload.DEFAULT_DT_S is telemetry.DEFAULT_DT_S
    assert len(sensors.GPU_SENSORS) == telemetry.N_GPU_SENSORS
