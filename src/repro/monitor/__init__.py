"""Continuous evaluation for the serving fleet (the monitoring layer).

:mod:`repro.serve` answers "can we classify live workloads at fleet
scale"; this package answers the question that follows it into
production: *is the deployed model still right, and is its replacement
safe to ship?*  Large-cluster reliability studies are unambiguous that
ML systems live or die on continuous monitoring plus automated
remediation — so that layer is first-class here, not a notebook.

* :class:`SensorDriftDetector` / :class:`FleetDriftMonitor` — streaming
  per-sensor drift detection (reference-window z-tests on mean and
  covariance features + Page–Hinkley), bounded state per stream,
  attached to a server as an ingress tap that takes a whole serving
  step's chunks in one call and scans every session's Page–Hinkley
  detectors in one pass.
* :class:`ShadowEvaluator` — replays every served micro-batch through a
  challenger model; champion/challenger agreement and
  disagreement-by-class, attached as a batch tap.
* :class:`CanaryController` — SHADOW → CANARY(k%) → PROMOTED /
  ROLLED_BACK state machine; deterministic hash-based session routing,
  agreement/latency guardrails, flips the
  :class:`~repro.serve.registry.ModelRegistry` active pointer.
* :class:`AlertManager` / :class:`AlertRule` — thresholded alerts over
  :class:`~repro.serve.metrics.MetricsRegistry` snapshots with a
  firing/resolved lifecycle.
* :class:`DriftInjection` — deterministic sensor gain/offset ramps and
  class-mix shifts for the load generator, so the whole pipeline is
  rehearsable end to end (``tests/test_monitor.py::_rollout`` wires it:
  a drifting fleet, shadow, canary and alerts on every tick).
"""

from repro.monitor.alerts import AlertEvent, AlertManager, AlertRule
from repro.monitor.drift import (
    DriftConfig,
    DriftEvent,
    FleetDriftMonitor,
    PageHinkley,
    SensorDriftDetector,
)
from repro.monitor.inject import DriftInjection, inject_series
from repro.monitor.rollout import (
    CANARY,
    PROMOTED,
    ROLLED_BACK,
    SHADOW,
    CanaryController,
    RolloutConfig,
    RolloutDecision,
)
from repro.monitor.shadow import ShadowEvaluator

__all__ = [
    "AlertEvent",
    "AlertManager",
    "AlertRule",
    "DriftConfig",
    "DriftEvent",
    "FleetDriftMonitor",
    "PageHinkley",
    "SensorDriftDetector",
    "DriftInjection",
    "inject_series",
    "SHADOW",
    "CANARY",
    "PROMOTED",
    "ROLLED_BACK",
    "CanaryController",
    "RolloutConfig",
    "RolloutDecision",
    "ShadowEvaluator",
]
