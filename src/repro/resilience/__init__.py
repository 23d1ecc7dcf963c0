"""Crash-safety toolkit: fault injection and retries.

At fleet scale the dominant operational cost is not steady-state compute
but preemptions, node failures and the corrupt state they leave behind
(Kokolis et al., "Revisiting Reliability in Large-Scale ML Research
Clusters").  This package holds the machinery for *proving* the repo
survives them:

* :mod:`repro.resilience.faults` — named fault points + deterministic
  injector (SIGKILL or raise, on the N-th hit) wired into the durable
  write path and the training loop.
* :mod:`repro.resilience.retry` — bounded exponential backoff for
  transient load failures.

The crash-safe primitives themselves live where their callers are:
atomic replace + CRC32 checksums in :mod:`repro.utils.persist`,
checkpoint/resume in :mod:`repro.nn.training.checkpoint`.  The tier-1
crash tests (``tests/test_resilience_crash.py``, ``test_store_crash.py``,
``test_fleet_crash.py``) SIGKILL spawned training runs, registry writers,
store writers and fleet workers and check what survives.
"""

from repro.resilience.faults import (
    FAULT_POINTS,
    FaultInjector,
    FaultSpec,
    InjectedFault,
    fault_point,
    inject,
    install,
    uninstall,
)
from repro.resilience.retry import RetryPolicy, load_model_with_retry, retry_call

__all__ = [
    "FAULT_POINTS",
    "FaultInjector",
    "FaultSpec",
    "InjectedFault",
    "fault_point",
    "inject",
    "install",
    "uninstall",
    "RetryPolicy",
    "retry_call",
    "load_model_with_retry",
]
