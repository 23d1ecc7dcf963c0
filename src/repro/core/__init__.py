"""The Workload Classification Challenge itself (paper Section III).

:class:`WorkloadClassificationChallenge` bundles the seven datasets, the
evaluation protocol (test accuracy on held-out trials), a submission
scorer with a leaderboard, and harnesses that run the paper's baseline
models end-to-end.

The exports resolve lazily (PEP 562): importing one submodule, such as
``repro.core.streaming`` in a serving child, does not import the others,
so the baselines, models and nn stack load only when a name that needs
them is first read.
"""

import importlib

__all__ = [
    "WorkloadClassificationChallenge",
    "Submission",
    "evaluate_predictions",
    "evaluate_model",
    "Leaderboard",
    "LeaderboardEntry",
    "run_traditional_baseline",
    "run_xgboost_baseline",
    "run_rnn_baseline",
    "OnlineWorkloadClassifier",
    "StreamPrediction",
]

# Public name -> defining module, imported on first attribute access.
_EXPORTS = {
    "WorkloadClassificationChallenge": "repro.core.challenge",
    "Submission": "repro.core.evaluation",
    "evaluate_predictions": "repro.core.evaluation",
    "evaluate_model": "repro.core.evaluation",
    "Leaderboard": "repro.core.leaderboard",
    "LeaderboardEntry": "repro.core.leaderboard",
    "run_traditional_baseline": "repro.core.baselines",
    "run_xgboost_baseline": "repro.core.baselines",
    "run_rnn_baseline": "repro.core.baselines",
    "OnlineWorkloadClassifier": "repro.core.streaming",
    "StreamPrediction": "repro.core.streaming",
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
