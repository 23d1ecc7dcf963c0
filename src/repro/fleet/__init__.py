"""repro.fleet — sharded multi-worker serving control plane.

Scales the single-process :mod:`repro.serve` stack out to a
self-healing cluster while keeping every behavior the smaller stack
pinned — deterministic replay, bounded memory, graceful drain — true
fleet-wide:

* :mod:`~repro.fleet.ring` — consistent-hash routing with virtual
  nodes: per-``job_id`` session affinity, exact minimal-churn resizes.
* :mod:`~repro.fleet.worker` — one serving replica (in-process for
  deterministic tests, or a spawned, SIGKILL-able subprocess) with
  bounded per-step capacity and its own metrics registry.
* :mod:`~repro.fleet.health` — heartbeat/lease failure detection on the
  shared clock.
* :mod:`~repro.fleet.failover` — session rebuild by history replay;
  post-recovery emissions are bit-identical to an unfailed twin.
* :mod:`~repro.fleet.router` — the ingress tier: routes chunks, turns
  crashes and drains into failovers/handoffs, aggregates fleet metrics.
* :mod:`~repro.fleet.autoscale` — debounced queue-depth control loop
  growing and shrinking the fleet through the lossless resize paths.

Routing determinism, failover parity, ring churn, capacity-model load
spreading and lossless autoscaling are pinned by ``tests/test_fleet_*.py``;
the ``fleet-rf`` workload of ``perfbench/`` times the subprocess fleet.
"""

from repro.fleet.autoscale import AutoscaleConfig, AutoscaleDecision, Autoscaler
from repro.fleet.failover import FailoverEvent, SessionRebuilder, store_history
from repro.fleet.health import HeartbeatMonitor
from repro.fleet.ring import HashRing
from repro.fleet.router import FleetRouter
from repro.fleet.worker import FleetWorker, SubprocessWorker, WorkerUnavailable

__all__ = [
    "AutoscaleConfig",
    "AutoscaleDecision",
    "Autoscaler",
    "FailoverEvent",
    "FleetRouter",
    "FleetWorker",
    "HashRing",
    "HeartbeatMonitor",
    "SessionRebuilder",
    "SubprocessWorker",
    "WorkerUnavailable",
    "store_history",
]
