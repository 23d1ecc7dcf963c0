"""End-to-end request tracing across the serving fleet.

Aggregate counters (:mod:`repro.serve.metrics`) say *how much*; traces
say *which path*.  Each telemetry chunk entering the fleet can carry a
:class:`TraceContext` through loadgen ingress → ring routing → worker
admission → micro-batch assembly → model predict → session emit →
monitor taps — across the subprocess-worker pipe boundary and through
failover-by-replay (rebuilt sessions record spans in the original
request's trace).  Completed :class:`Span` s land in a bounded
:class:`TraceSink` (optionally WAL-persisted with the store's torn-tail
recovery rule), and :class:`TraceQuery` reconstructs per-request span
trees, critical paths, and per-stage p50/p95 self-time profiles.

``tests/test_trace.py`` and ``tests/test_fleet_crash.py`` pin the
subsystem: traced and untraced fleets must emit identically (under
failover too), every completed request's trace must form one connected
tree, and the span WAL must survive a crash mid-flush.
"""

from repro.trace.query import TraceQuery
from repro.trace.sink import TraceSink, load_spans
from repro.trace.span import Span, TraceContext, Tracer

__all__ = [
    "Span",
    "TraceContext",
    "Tracer",
    "TraceSink",
    "TraceQuery",
    "load_spans",
]
