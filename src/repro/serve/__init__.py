"""Fleet-scale streaming inference service (the serving substrate).

The paper's deployment vision — classifying "snapshots of data from live
workloads running in-progress" — at production scale: thousands of
concurrent job streams, one model call per tick.

* :class:`ModelRegistry` — versioned on-disk store of fitted pipelines
  with a warm-model LRU.
* :class:`StreamSession` — per-job sliding windows, the one window
  implementation (buffer, hop cadence, majority vote), decoupled from
  ``predict``; :class:`~repro.core.streaming.OnlineWorkloadClassifier`
  wraps one.
* :class:`MicroBatcher` — coalesces ready windows across sessions into
  batched ``predict`` calls (size/deadline bounded).
* :class:`InferenceServer` — bounded ingress, admission control
  (shed-oldest / reject), graceful drain.
* :class:`MetricsRegistry` — counters, gauges, latency/batch histograms
  with p50/p95/p99 summaries.
* :class:`FleetLoadGenerator` — deterministic replay of simulated
  telemetry fleets, driving the whole stack end to end
  (``examples/serve_fleet.py``).
"""

from repro.serve.batcher import BatchCompletion, MicroBatcher
from repro.serve.loadgen import (
    FleetLoadGenerator,
    LoadReport,
    ManualClock,
    SimulatedClock,
)
from repro.serve.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.serve.registry import ModelRegistry
from repro.serve.server import Emission, InferenceServer, ServeConfig, SubmitResult
from repro.serve.session import StreamSession, WindowRequest

__all__ = [
    "BatchCompletion",
    "MicroBatcher",
    "FleetLoadGenerator",
    "LoadReport",
    "ManualClock",
    "SimulatedClock",
    "SubmitResult",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ModelRegistry",
    "Emission",
    "InferenceServer",
    "ServeConfig",
    "StreamSession",
    "WindowRequest",
]
