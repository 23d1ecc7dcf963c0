"""Deterministic fleet load generator for the inference server.

Replays :mod:`repro.simcluster` telemetry as ``n_jobs`` concurrent job
streams against an :class:`~repro.serve.server.InferenceServer`: each
simulated job is assigned a (seeded) labelled GPU series and a staggered
start tick, then every tick delivers ``samples_per_tick`` rows per active
job — i.e. a fleet polling cadence of ``samples_per_tick / 9`` seconds at
the paper's 9 Hz sampling rate.  Time is a :class:`SimulatedClock` shared
with the server, so batching deadlines, latencies, and shed decisions are
bit-for-bit reproducible for a fixed seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.serve.server import Emission, InferenceServer
from repro.telemetry import DEFAULT_DT_S
from repro.utils.rng import as_generator

__all__ = ["SimulatedClock", "ManualClock", "LoadReport", "FleetLoadGenerator"]


class SimulatedClock:
    """Manually advanced monotonic clock (callable like ``time.monotonic``).

    One instance is meant to be *shared*: the load generator, every
    server/worker, the fleet router, and heartbeat leases all read the
    same ``clock()`` so batching deadlines, latencies, and failure
    detection advance in lockstep.  Construct it once and pass it to
    every component (``FleetLoadGenerator(..., clock=clock)``,
    ``InferenceServer(..., clock=clock)``, …).
    """

    def __init__(self, start_s: float = 0.0):
        self._now = float(start_s)

    def __call__(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance(self, dt_s: float) -> float:
        """Move time forward by ``dt_s`` seconds; returns the new time."""
        if dt_s < 0:
            raise ValueError(f"dt_s must be >= 0, got {dt_s}")
        self._now += dt_s
        return self._now

    def advance_to(self, now_s: float) -> float:
        """Move time forward to ``now_s`` (no-op when already past it).

        Monotonic by construction — a subprocess fleet worker syncs its
        local clock to the router's timestamp with this, and a late or
        reordered message can never run time backwards.
        """
        if now_s > self._now:
            self._now = float(now_s)
        return self._now


#: Historical name for :class:`SimulatedClock` — kept as an alias because
#: "manual clock" is how the fleet docs/tests refer to the shared
#: hand-advanced time source.
ManualClock = SimulatedClock


@dataclass
class LoadReport:
    """Outcome of one fleet replay."""

    emissions: list[Emission]
    n_jobs: int
    n_ticks: int
    sim_seconds: float          # simulated stream duration
    wall_seconds: float         # real compute time for the whole replay
    true_labels: dict = field(default_factory=dict)

    @property
    def n_predictions(self) -> int:
        """Total predictions emitted across the fleet."""
        return len(self.emissions)

    @property
    def windows_per_second(self) -> float:
        """Serving throughput: classified windows per wall-clock second."""
        if self.wall_seconds <= 0:
            return float("nan")
        return self.n_predictions / self.wall_seconds

    def final_smoothed(self) -> dict:
        """Last smoothed label per job — the operator's fleet view."""
        out: dict = {}
        for emission in self.emissions:
            out[emission.job_id] = emission.prediction.smoothed_label
        return out

    def smoothed_accuracy(self) -> float:
        """Fraction of jobs whose final smoothed label is correct."""
        final = self.final_smoothed()
        scored = [
            int(final[job]) == int(label)
            for job, label in self.true_labels.items()
            if job in final
        ]
        return sum(scored) / len(scored) if scored else float("nan")


class FleetLoadGenerator:
    """Replay labelled telemetry as a fleet of concurrent job streams.

    Parameters
    ----------
    series:
        Candidate telemetry series, each ``(n_samples, 7)``; jobs draw
        from these (with replacement) under the generator's seed.
    labels:
        True class label per series (for the report's accuracy view).
    n_jobs:
        Concurrent simulated job streams.
    samples_per_tick:
        Telemetry rows delivered per job per tick (90 = 10 s at 9 Hz).
    max_samples_per_job:
        Truncate each stream to this many rows (None = full series).
    stagger_ticks:
        Each job starts at a seeded random tick in ``[0, stagger_ticks]``,
        desynchronizing window boundaries across the fleet.
    seed:
        Drives series assignment and stagger; fixes the whole replay.
    rate:
        Replay-rate multiplier: ``2.0`` delivers the same rows in half
        the simulated time (tick duration divided by ``rate``).  Chunk
        contents and order are unaffected.
    clock:
        Shared :class:`SimulatedClock` driving the replay.  Historically
        each generator built a private clock and every *other* component
        defaulted to ``time.monotonic``, so wiring a router, workers,
        and heartbeat timers onto one deterministic timeline meant
        threading ``gen.clock`` around by hand after construction.  Pass
        one clock instance here and to each component instead; ``None``
        keeps the old behavior of creating a fresh clock.
    keep_dtype:
        Keep each series' own dtype instead of the historical float64
        coercion — required for zero-copy replay of float32 memmap views
        handed out by :class:`~repro.store.TelemetryStore`.
    drift:
        Optional :class:`~repro.monitor.inject.DriftInjection`: replayed
        streams get the sensor gain/offset ramp, and a seeded
        ``class_shift_fraction`` of jobs splice to a donor series of a
        different class at the injection offset.  ``None`` replays clean
        telemetry, bit-for-bit identical to before the hook existed.
    """

    def __init__(
        self,
        series: list[np.ndarray],
        labels: list[int] | None = None,
        *,
        n_jobs: int = 16,
        samples_per_tick: int = 90,
        max_samples_per_job: int | None = None,
        stagger_ticks: int = 3,
        seed: int = 0,
        rate: float = 1.0,
        clock: SimulatedClock | None = None,
        keep_dtype: bool = False,
        drift=None,
    ):
        if not series:
            raise ValueError("need at least one telemetry series")
        if n_jobs < 1:
            raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
        if samples_per_tick < 1:
            raise ValueError(
                f"samples_per_tick must be >= 1, got {samples_per_tick}"
            )
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        if keep_dtype:
            self.series = [np.asarray(s) for s in series]
        else:
            self.series = [np.asarray(s, dtype=np.float64) for s in series]
        self.labels = list(labels) if labels is not None else None
        if self.labels is not None and len(self.labels) != len(self.series):
            raise ValueError("labels and series lengths differ")
        self.n_jobs = n_jobs
        self.samples_per_tick = samples_per_tick
        self.max_samples_per_job = max_samples_per_job
        self.rate = float(rate)
        self.tick_s = samples_per_tick * DEFAULT_DT_S / self.rate
        self.clock = clock if clock is not None else SimulatedClock()
        rng = as_generator(seed)
        self._assignment = rng.integers(0, len(self.series), size=n_jobs)
        self._start_tick = rng.integers(0, stagger_ticks + 1, size=n_jobs)
        self.drift = drift
        self._donors: dict[int, int] = {}
        self._stream_cache: dict[int, np.ndarray] = {}
        if drift is not None and drift.class_shift_fraction > 0.0:
            self._pick_class_shift_donors(rng)

    @classmethod
    def from_simulation(
        cls,
        config=None,
        *,
        n_jobs: int = 16,
        min_samples: int = 540,
        **kwargs,
    ) -> "FleetLoadGenerator":
        """Build a generator from a fresh :mod:`repro.simcluster` run.

        ``config`` is a :class:`~repro.simcluster.cluster.SimulationConfig`
        (or None for defaults); only trials with at least ``min_samples``
        rows are replayed, mirroring the release's eligibility rule.
        """
        from repro.data.labelled import build_labelled_dataset

        labelled = build_labelled_dataset(config).eligible(min_samples)
        if not len(labelled.trials):
            raise ValueError(
                f"simulation produced no trials with >= {min_samples} samples"
            )
        return cls(
            [t.series for t in labelled.trials],
            [t.label for t in labelled.trials],
            n_jobs=n_jobs,
            **kwargs,
        )

    @classmethod
    def from_store(
        cls,
        store,
        *,
        n_jobs: int = 16,
        min_samples: int = 540,
        **kwargs,
    ) -> "FleetLoadGenerator":
        """Replay telemetry straight out of a :class:`TelemetryStore`.

        Sealed trials are replayed as zero-copy float32 memmap views
        (``keep_dtype`` defaults on); only trials with at least
        ``min_samples`` rows participate, mirroring
        :meth:`from_simulation`.
        """
        series: list[np.ndarray] = []
        labels: list[int] = []
        for _key, info, data in store.iter_trials():
            if data.shape[0] >= min_samples:
                series.append(data)
                labels.append(info.label)
        if not series:
            raise ValueError(
                f"store {store.root} has no trials with >= {min_samples} samples"
            )
        kwargs.setdefault("keep_dtype", True)
        return cls(series, labels, n_jobs=n_jobs, **kwargs)

    # ------------------------------------------------------------------
    def _pick_class_shift_donors(self, rng) -> None:
        """Seeded donor assignment for class-mix drift (init-time only)."""
        from repro.monitor.inject import DriftInjection  # avoid cycle at import

        drift: DriftInjection = self.drift
        if self.labels is None:
            raise ValueError(
                "class_shift_fraction needs labels to pick donor classes"
            )
        n_shift = int(round(drift.class_shift_fraction * self.n_jobs))
        shifted = rng.choice(self.n_jobs, size=n_shift, replace=False)
        for job in shifted:
            own = int(self.labels[int(self._assignment[job])])
            candidates = [
                i for i, label in enumerate(self.labels)
                if int(label) != own
                and (drift.class_shift_to is None
                     or int(label) == drift.class_shift_to)
            ]
            if candidates:
                self._donors[int(job)] = candidates[
                    int(rng.integers(len(candidates)))]

    def job_stream(self, job: int) -> np.ndarray:
        """The telemetry series replayed by simulated job ``job``.

        With a :attr:`drift` injection attached this is the *perturbed*
        stream (computed once and cached); length always matches the
        clean stream so tick counts are unaffected.
        """
        data = self.series[int(self._assignment[job])]
        if self.max_samples_per_job is not None:
            data = data[: self.max_samples_per_job]
        if self.drift is None:
            return data
        cached = self._stream_cache.get(job)
        if cached is None:
            cached = self._inject(job, data)
            self._stream_cache[job] = cached
        return cached

    def _inject(self, job: int, data: np.ndarray) -> np.ndarray:
        from repro.monitor.inject import inject_series

        start = self.drift.start_sample
        donor_idx = self._donors.get(job)
        if donor_idx is not None and start < data.shape[0]:
            donor = self.series[donor_idx]
            needed = data.shape[0] - start
            # Continue the stream with donor telemetry from the same
            # stream position (tiled when the donor is shorter).
            tail = donor[start: start + needed]
            if tail.shape[0] < needed:
                reps = -(-needed // max(1, donor.shape[0]))
                tail = np.tile(donor, (reps, 1))[:needed]
            data = np.vstack([data[:start], tail])
        return inject_series(data, self.drift)

    def class_shifted_jobs(self) -> dict[int, int]:
        """``job -> donor series index`` for class-mix drifted jobs."""
        return dict(self._donors)

    def true_label(self, job: int) -> int | None:
        """True class of job ``job``'s series (None when labels absent)."""
        if self.labels is None:
            return None
        return int(self.labels[int(self._assignment[job])])

    @property
    def n_ticks(self) -> int:
        """Ticks until every job's stream is exhausted."""
        ticks = 0
        for job in range(self.n_jobs):
            n = self.job_stream(job).shape[0]
            chunks = -(-n // self.samples_per_tick)        # ceil division
            ticks = max(ticks, int(self._start_tick[job]) + chunks)
        return ticks

    def run(
        self,
        server: InferenceServer,
        *,
        end_sessions: bool = True,
        route=None,
        on_tick=None,
        tracer=None,
    ) -> LoadReport:
        """Drive ``server`` through the whole fleet replay.

        The server must share this generator's :attr:`clock` (pass
        ``clock=gen.clock`` when constructing it).  Each tick submits one
        chunk per active job, steps the server, then advances simulated
        time; a final ``drain`` flushes partial batches.

        ``route`` (optional) maps ``job -> InferenceServer`` per tick and
        enables canary splits: returning a different server (sharing this
        clock) sends that job's next chunks there — a job rerouted
        mid-stream starts a fresh window on the new server, exactly like a
        reconnecting client.  Returning ``None`` keeps the primary.
        ``on_tick(tick, emissions)`` (optional) runs after every tick's
        step with that tick's emissions — the hook rollout controllers and
        alert evaluation attach to.

        ``tracer`` (optional :class:`~repro.trace.Tracer`) opens a root
        ``request`` span per submitted chunk — trace id ``j<job>.t<tick>``
        — and propagates its context through ``submit(..., trace=ctx)``,
        so downstream stages (routing, ingest, batching, predict, emit)
        attach to it.  The target must accept the ``trace`` keyword
        (:class:`InferenceServer` and the fleet router both do).
        Sampling is head-based at *job* granularity: the tracer's
        ``sample`` fraction picks whole job streams (hash of
        ``"j<job>"``), so a sampled job records a complete trace for
        every one of its chunks, and chunks of unsampled jobs take the
        untraced call path at the cost of one set test.
        """
        if server.clock is not self.clock:
            raise ValueError(
                "server must be constructed with clock=generator.clock "
                "for a deterministic replay"
            )
        servers: list[InferenceServer] = [server]
        emissions: list[Emission] = []
        finished: set[int] = set()
        traced_jobs: set[int] | None = None
        if tracer is not None:
            # One sampling decision per job stream, made up front: the
            # per-chunk alternative pays a hash on every submit of the
            # hot loop and records traces whose sibling chunks are
            # missing.  Deterministic (hash of "j<job>"), like all
            # tracer sampling.
            traced_jobs = {
                job for job in range(self.n_jobs)
                if tracer.sampled(f"j{job}")
            }
        tic = time.perf_counter()
        for tick in range(self.n_ticks):
            for job in range(self.n_jobs):
                start_tick = int(self._start_tick[job])
                if tick < start_tick or job in finished:
                    continue
                target = server
                if route is not None:
                    target = route(job) or server
                    if target is not server and target not in servers:
                        if target.clock is not self.clock:
                            raise ValueError(
                                "routed servers must share the "
                                "generator's clock"
                            )
                        servers.append(target)
                stream = self.job_stream(job)
                lo = (tick - start_tick) * self.samples_per_tick
                chunk = stream[lo: lo + self.samples_per_tick]
                if chunk.shape[0]:
                    if traced_jobs is None or job not in traced_jobs:
                        target.submit(job, chunk)
                    else:
                        ctx = tracer.root(f"j{job}.t{tick}")
                        now = self.clock()
                        tic_req = time.perf_counter()
                        accepted = target.submit(job, chunk, trace=ctx)
                        tracer.emit(
                            ctx, "request", start_s=now, end_s=now,
                            wall_s=time.perf_counter() - tic_req,
                            status="ok" if accepted else "refused",
                            annotations={"job": int(job), "tick": int(tick)},
                        )
                if lo + self.samples_per_tick >= stream.shape[0]:
                    finished.add(job)
            tick_emissions: list[Emission] = []
            for s in servers:
                tick_emissions.extend(s.step())
            emissions.extend(tick_emissions)
            if on_tick is not None:
                on_tick(tick, tick_emissions)
            self.clock.advance(self.tick_s)
        for s in servers:
            emissions.extend(s.drain())
        if end_sessions:
            for job in range(self.n_jobs):
                for s in servers:
                    s.end_session(job)
        wall = time.perf_counter() - tic
        true = {
            job: self.true_label(job)
            for job in range(self.n_jobs)
            if self.true_label(job) is not None
        }
        return LoadReport(
            emissions=emissions,
            n_jobs=self.n_jobs,
            n_ticks=self.n_ticks,
            sim_seconds=self.n_ticks * self.tick_s,
            wall_seconds=wall,
            true_labels=true,
        )
