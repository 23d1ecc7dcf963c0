"""Outside-in timing of the program's public calls.

The benchmark never edits the package: it replaces bound methods on live
objects (``server.submit``, ``model.predict``, ``tap.on_ingress``, a
child module's ``forward``...) with wrappers that time each call.  Two
recorders share that idea:

* :class:`SpanRecorder` keeps, per span name, the call count, the total
  time and the *self* time (total minus the time of spans that ran
  inside it).  Spans nest on one stack because every wrapped call runs
  synchronously on the driver thread.
* :class:`LatencyProbe` is the light instrument of the untraced run: it
  stamps each ``submit`` and each ``step``/``drain`` return, which is all
  the window-latency metric needs.
"""

from __future__ import annotations

import bisect
import time
from collections import defaultdict

__all__ = ["SpanRecorder", "LatencyProbe", "wrap_call"]


def wrap_call(obj, attr: str, make):
    """Replace ``obj.attr`` with ``make(original)``; returns the original.

    The replacement is an instance attribute, so it shadows the class
    method for this object only.
    """
    original = getattr(obj, attr)
    setattr(obj, attr, make(original))
    return original


class SpanRecorder:
    """Per-name call count, total time and self time of wrapped calls."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        # One child-time accumulator per open span; index 0 is the level
        # outside every span.
        self._child = [0.0]

    def wrap(self, obj, attr: str, name: str) -> None:
        """Time every later call of ``obj.attr`` as span ``name``."""
        def make(inner):
            def timed(*args, **kwargs):
                self._child.append(0.0)
                tic = time.perf_counter()
                try:
                    return inner(*args, **kwargs)
                finally:
                    self._close(name, time.perf_counter() - tic)
            return timed
        wrap_call(obj, attr, make)

    def interval(self, name: str, seconds: float) -> None:
        """Record a span that is a gap between two calls, not a call.

        It counts as a child of whatever span is open, like a call would.
        """
        self._child.append(0.0)
        self._close(name, seconds)

    def _close(self, name: str, seconds: float) -> None:
        child = self._child.pop()
        self._child[-1] += seconds
        self.calls[name] += 1
        self.total[name] += seconds
        self.self_s[name] += seconds - child


class LatencyProbe:
    """Wall time from the ``submit`` that delivered a window's last row to
    the return of the ``step``/``drain`` that emitted the window.

    ``target`` is whatever the load generator drives (a server or the
    fleet router).  Each emission's ``sample_index`` is the row count of
    its stream when the window closed, so the delivering chunk is the
    first one whose cumulative row count reaches it.  ``marks`` holds the
    time of every ``step``/``drain`` return: the replay's tick boundaries.
    """

    def __init__(self, target):
        self.latencies_s: list[float] = []
        self.marks: list[float] = []
        self._ends: dict[object, list[int]] = {}
        self._stamps: dict[object, list[float]] = {}

        def make_submit(inner):
            def submit(job_id, samples, **kwargs):
                ends = self._ends.get(job_id)
                if ends is None:
                    ends = self._ends[job_id] = []
                    self._stamps[job_id] = []
                ends.append((ends[-1] if ends else 0) + len(samples))
                self._stamps[job_id].append(time.perf_counter())
                return inner(job_id, samples, **kwargs)
            return submit

        def make_emit(inner):
            def emit(*args, **kwargs):
                out = inner(*args, **kwargs)
                now = time.perf_counter()
                self.marks.append(now)
                for emission in out:
                    job = emission.job_id
                    k = bisect.bisect_left(self._ends[job],
                                           emission.prediction.sample_index)
                    self.latencies_s.append(now - self._stamps[job][k])
                return out
            return emit

        wrap_call(target, "submit", make_submit)
        wrap_call(target, "step", make_emit)
        wrap_call(target, "drain", make_emit)
