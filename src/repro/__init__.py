"""repro — reproduction of "The MIT Supercloud Workload Classification
Challenge" (IPPS 2022).

Quickstart::

    from repro import WorkloadClassificationChallenge, SimulationConfig
    from repro.models import make_rf_cov

    challenge = WorkloadClassificationChallenge.from_simulation(
        SimulationConfig(seed=2022, trials_scale=0.05))
    result = challenge.evaluate(make_rf_cov(n_estimators=100), "60-middle-1")
    print(f"RF+Cov test accuracy: {result['accuracy']:.2%}")

Subpackages
-----------
``repro.simcluster``
    TX-Gaia-like telemetry simulator (the labelled-dataset substitute).
``repro.data``
    Labelled dataset → the seven 60-second challenge datasets.
``repro.ml``
    From-scratch classical ML: SVC/SMO, random forest, Newton boosting,
    PCA, covariance features, grid-search CV, metrics.
``repro.nn``
    NumPy autograd, LSTM/Conv1d layers, optimizers, trainer with
    crash-safe checkpoint/resume.
``repro.models``
    The paper's baseline configurations (Sections IV & V).
``repro.core``
    Challenge protocol, evaluation, leaderboard, baseline harnesses.
``repro.serve``
    Fleet-scale streaming inference: model registry, micro-batching
    server, metrics, deterministic load generator.
``repro.fleet``
    Sharded serving control plane: consistent-hash routing, worker
    failover by history replay, metrics-driven autoscaling.
``repro.resilience``
    Crash-safety toolkit: fault injection and retry with backoff.
``repro.store``
    Crash-safe sharded telemetry store: WAL + mmap segment files,
    zero-copy reads, deterministic replay, compaction.
``repro.parallel``
    Order-preserving process-pool map for grid search and
    cross-validation.

The top-level exports resolve lazily (PEP 562): ``import repro`` loads
none of the subpackages, so a spawned child that imports only
``repro.fleet.worker`` never pays for the simulator or the challenge
harness.  ``from repro import SimulationConfig`` imports the defining
module on first access.  Only ``PCA.fit`` imports scipy (its
``linalg``), at its use site.
"""

import importlib

__version__ = "1.0.0"

__all__ = ["WorkloadClassificationChallenge", "SimulationConfig", "__version__"]

# Public name -> defining module, imported on first attribute access.
_EXPORTS = {
    "WorkloadClassificationChallenge": "repro.core.challenge",
    "SimulationConfig": "repro.simcluster.cluster",
}


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
