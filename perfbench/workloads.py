"""The benchmark's four workloads, each driven through the public API.

One *episode* is a full pass of a workload's pipeline:

* set-up (timed as ``setup_s``): simulate a telemetry release, ingest it
  into a ``TelemetryStore`` with fsync on, reopen the store, read it back,
  fit or construct the paper model, build the server or spawn the fleet
  workers, and warm up the model;
* the timed phase: one closed-loop store replay through the serving stack
  (serving workloads) or one serial ``Trainer.fit`` (``train-cnnlstm``).

Every component of a replay shares the load generator's
``SimulatedClock``, so the seed fixes the batching deadlines and the
emission schedule and wall time is pure compute.  An episode in traced
mode additionally wraps the public calls of every layer with a
:class:`~spans.SpanRecorder`; the untraced episode carries only the
:class:`~spans.LatencyProbe`.
"""

from __future__ import annotations

import gc
import hashlib
import os
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from spans import LatencyProbe, SpanRecorder, wrap_call

__all__ = ["Episode", "Shape", "WORKLOADS", "SHAPES", "run_episode"]

WINDOW = 540
SPLIT = "60-random-1"
N_SHARDS = 4
N_FLEET_WORKERS = 2


@dataclass(frozen=True)
class Shape:
    """Size of one workload's inputs (``full`` by default, ``tiny`` for
    the smoke test)."""

    scale: float                  # simulator trials_scale
    jobs: int = 0                 # replayed job streams (serving)
    max_samples: int | None = None  # rows replayed per job (None = all)
    trees: int = 0                # RF-cov forest size
    epochs: int = 0               # Trainer.fit epochs (train-cnnlstm)
    batch: int = 16               # Trainer mini-batch (train-cnnlstm)
    hidden: int = 128             # LSTM width (paper: 128)
    min_latency_samples: int = 0  # latencies every episode needs for p90
    max_batch: int = 64           # ServeConfig.max_batch


#: Workload -> (model, monitored, fleet, full shape).  Every serving job
#: replays 1350 rows, the shortest simulated series, so all streams are
#: the same length and a seed changes the telemetry but not the load.
#: Batches flush at the end of every step (deadline 0) and ``max_batch``
#: exceeds the windows one tick produces, so a window is emitted by the
#: step of the tick that delivered its last row and latency has one mode.
#: (With a deadline, a step flushes the previous tick's windows together
#: with its own, and the latencies split into two modes.)
#: Episodes are short so that a run holds several: the end-to-end metrics
#: are medians over episodes, which a few seconds of host noise cannot
#: move.  ``min_latency_samples`` is per episode: 100 windows put ten
#: beyond p90.
WORKLOADS = {
    "serve-rf-monitored": ("rf", True, False,
                           Shape(scale=0.02, jobs=32, max_samples=1350,
                                 trees=50, max_batch=64,
                                 min_latency_samples=100)),
    "fleet-rf": ("rf", False, True,
                 Shape(scale=0.02, jobs=512, max_samples=1350, trees=50,
                       max_batch=1024, min_latency_samples=100)),
    "serve-bilstm": ("bilstm", False, False,
                     Shape(scale=0.02, jobs=12, max_samples=1350,
                           min_latency_samples=100)),
    "train-cnnlstm": ("cnnlstm", False, False,
                      Shape(scale=0.03, epochs=3, min_latency_samples=15)),
}

#: The smoke test's size: every layer still runs, in well under a second
#: per episode.
TINY = {
    "serve-rf-monitored": Shape(scale=0.02, jobs=4, max_samples=900, trees=5),
    "fleet-rf": Shape(scale=0.02, jobs=8, max_samples=900, trees=5),
    "serve-bilstm": Shape(scale=0.02, jobs=2, max_samples=720, hidden=8),
    "train-cnnlstm": Shape(scale=0.02, epochs=1, batch=32, hidden=8),
}

SHAPES = {"full": {k: v[3] for k, v in WORKLOADS.items()}, "tiny": TINY}


@dataclass
class Episode:
    """What one episode measured and produced."""

    setup_laps_s: list[float]     # set-up stage times, in order
    segments_s: list[float]       # the timed phase, cut at every tick or batch
    units: int                    # windows emitted, or windows trained
    latencies_s: list[float]      # in emission (or batch) order
    digest: str                   # hash of the outputs (the gate compares)
    attempted: int
    failed: int
    accuracy: float
    layers: dict = field(default_factory=dict)   # set-up layer timings
    counts: dict = field(default_factory=dict)   # per-layer counters
    spans: SpanRecorder | None = None
    worker_rss_mb: float = 0.0
    reference_digest: str | None = None  # in-process twin of a fleet replay

    @property
    def setup_s(self) -> float:
        return sum(self.setup_laps_s)

    @property
    def timed_s(self) -> float:
        """Wall time of the timed phase."""
        return sum(self.segments_s)


def _timed(fn, *args, **kwargs):
    tic = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - tic


class Laps:
    """Consecutive stage times of a set-up, read off one running clock."""

    def __init__(self):
        self.laps_s: list[float] = []
        self._last = time.perf_counter()

    def __call__(self) -> None:
        """End the current stage and start the next."""
        now = time.perf_counter()
        self.laps_s.append(now - self._last)
        self._last = now


def _segments(start: float, marks: list[float], end: float) -> list[float]:
    """Split the interval [start, end] at every mark."""
    return np.diff([start, *marks, end]).tolist()


def _digest(rows) -> str:
    """Order-independent hash of output tuples."""
    return hashlib.sha256(repr(sorted(rows)).encode()).hexdigest()


def emission_digest(emissions) -> str:
    """Hash of (job, sample_index, label, smoothed label) per window."""
    return _digest(
        (int(e.job_id), int(e.prediction.sample_index),
         int(e.prediction.label), int(e.prediction.smoothed_label))
        for e in emissions)


def _store(seed: int, shape: Shape, workdir: Path, layers: dict):
    """Simulate, ingest with fsync on, close, and reopen the store."""
    from repro.simcluster import ClusterSimulator, SimulationConfig
    from repro.store import TelemetryStore

    sim = ClusterSimulator(SimulationConfig(seed=seed, trials_scale=shape.scale))
    (jobs, _log), layers["simcluster.generate_s"] = _timed(sim.generate)
    tic = time.perf_counter()
    with TelemetryStore(workdir, n_shards=N_SHARDS, fsync=True) as store:
        store.ingest(jobs)
        rows = store.total_rows()
    layers["store.ingest_s"] = time.perf_counter() - tic
    layers["store.ingest_rows_per_s"] = rows / layers["store.ingest_s"]
    store, layers["store.open_s"] = _timed(TelemetryStore, workdir)
    return store


def _split(store, seed: int, layers: dict):
    from repro.data import build_challenge_suite

    dataset, layers["store.read_s"] = _timed(store.labelled_dataset, WINDOW)
    return build_challenge_suite(dataset, seed=seed, names=(SPLIT,))[SPLIT]


def _max_rss_mb(pid: int) -> float:
    """Peak resident set of a live child process, from /proc."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def peak_rss_mb() -> float:
    """This process's peak resident set in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# serving workloads
def _serve_episode(name: str, seed: int, shape: Shape, workdir: Path,
                   traced: bool, reference: bool) -> Episode:
    from repro.fleet import FleetRouter, SubprocessWorker
    from repro.models import LSTMClassifier, make_rf_cov
    from repro.monitor import FleetDriftMonitor
    from repro.serve import FleetLoadGenerator, InferenceServer, ServeConfig

    kind, monitored, fleet, _ = WORKLOADS[name]
    layers: dict = {}
    lap = Laps()
    store = _store(seed, shape, workdir, layers)
    lap()
    if kind == "rf":
        split = _split(store, seed, layers)
        lap()
        model = make_rf_cov(n_estimators=shape.trees, random_state=seed)
        _, layers["model.fit_s"] = _timed(model.fit, split.X_train,
                                          split.y_train)
    else:
        model, layers["model.fit_s"] = _timed(
            LSTMClassifier, seq_len=WINDOW, hidden_size=shape.hidden, seed=seed)
    lap()
    gen, read_s = _timed(FleetLoadGenerator.from_store, store,
                         n_jobs=shape.jobs, seed=seed,
                         max_samples_per_job=shape.max_samples)
    layers["store.read_s"] = layers.get("store.read_s", 0.0) + read_s
    lap()
    warm = gen.job_stream(0)[:WINDOW]
    config = ServeConfig(window=WINDOW, max_batch=shape.max_batch,
                         flush_deadline_s=0.0)
    monitor = FleetDriftMonitor() if monitored else None
    workers = []
    if fleet:
        spawn_tic = time.perf_counter()
        workers = [SubprocessWorker(f"w{i}", model, config, clock=gen.clock)
                   for i in range(N_FLEET_WORKERS)]
        for worker in workers:
            # A round trip proves the child is up; the out-of-band rebuild
            # predicts in the child, so its lazy model set-up is done too.
            worker.rebuild_session(-1, warm)
            worker.end_session(-1)
        layers["fleet.spawn_s"] = time.perf_counter() - spawn_tic
        target = FleetRouter(workers, clock=gen.clock)
    else:
        model.predict(warm[None])
        target = InferenceServer(model, config, clock=gen.clock,
                                 taps=[monitor] if monitor else ())
    lap()

    try:
        spans = None
        if traced:
            spans = SpanRecorder()
            _trace_serving(spans, gen, target, model, monitor, workers)
        probe = LatencyProbe(target)
        tic = time.perf_counter()
        report = gen.run(target)
        segments = _segments(tic, probe.marks, time.perf_counter())
        registry = target.fleet_metrics() if fleet else target.metrics
        worker_rss = sum(_max_rss_mb(w.pid) for w in workers)
        twin = None
        if fleet and reference:
            # Untimed: the same inputs through one in-process server.
            twin_gen = FleetLoadGenerator.from_store(
                store, n_jobs=shape.jobs, seed=seed,
                max_samples_per_job=shape.max_samples)
            twin = emission_digest(twin_gen.run(InferenceServer(
                model, config, clock=twin_gen.clock)).emissions)
    finally:
        for worker in workers:
            worker.close()
        store.close()

    def counter(key: str) -> int:
        return int(registry.counter(key).value)

    emissions = report.emissions
    correct = sum(int(e.prediction.label) == gen.true_label(e.job_id)
                  for e in emissions)
    counts = {
        "serve.windows": counter("batch.windows"),
        "serve.predict_calls": counter("batch.predict_calls"),
        "serve.batch_size_mean": registry.histogram("batch.size").mean,
        "monitor.rows": counter("ingress.samples") if monitored else 0,
        "monitor.events": monitor.n_events if monitored else 0,
    }
    if fleet:
        counts["fleet.worker_predict_s"] = _worker_predict_s(registry)
    return Episode(
        setup_laps_s=lap.laps_s, segments_s=segments, units=len(emissions),
        latencies_s=probe.latencies_s, digest=emission_digest(emissions),
        attempted=counter("ingress.chunks"),
        failed=sum(counter(k) for k in (
            "ingress.rejected", "ingress.shed", "ingress.dropped_on_end",
            "predictions.orphaned", "fleet.chunks.rejected",
            "fleet.failovers")),
        accuracy=correct / max(len(emissions), 1),
        layers=layers, counts=counts, spans=spans, worker_rss_mb=worker_rss,
        reference_digest=twin)


def _worker_predict_s(registry) -> float:
    """Total model time in the workers, from their merged registries.

    The batcher observes ``predict wall / batch size`` once per batch
    next to the batch size, so the two histograms' retained samples pair
    up batch by batch while neither has decimated.
    """
    share = registry.histogram("batch.predict_wall_s")
    size = registry.histogram("batch.size")
    if len(share._values) == share.count == len(size._values):
        return float(np.dot(share._values, size._values))
    return share.total * size.mean


def _trace_serving(spans: SpanRecorder, gen, target, model, monitor,
                   workers) -> None:
    """Span every layer boundary the replay crosses in this process."""
    spans.wrap(gen, "run", "loadgen.run")
    ops = ("submit", "step", "drain", "end_session")
    if workers:
        for op in ops:
            spans.wrap(target, op, f"fleet.router.{op}")
        for worker in workers:
            for op in ops:
                spans.wrap(worker, op, f"fleet.rpc.{op}")
        return                    # the model runs in the worker processes
    for op in ops:
        spans.wrap(target, op, f"serve.{op}")
    if monitor is not None:
        spans.wrap(monitor, "on_ingress", "monitor.on_ingress")
    spans.wrap(model, "predict", "model.predict")
    if hasattr(model, "steps"):                  # the RF-cov pipeline
        for step_name, est in model.steps[:-1]:
            spans.wrap(est, "transform", f"ml.{step_name}")
        spans.wrap(model.steps[-1][1], "predict", "ml.forest")
    else:
        _trace_nn(spans, model)


def _trace_nn(spans: SpanRecorder, model) -> None:
    spans.wrap(model, "forward", "nn.model")
    for child_name, child in model.named_modules():
        if child_name and "." not in child_name:
            spans.wrap(child, "forward", f"nn.{child_name}")


# ----------------------------------------------------------------------
# training workload
def _train_episode(name: str, seed: int, shape: Shape, workdir: Path,
                   traced: bool) -> Episode:
    from repro.models import CNNLSTMClassifier
    from repro.nn import Adam, NLLLoss, Trainer

    layers: dict = {}
    lap = Laps()
    store = _store(seed, shape, workdir, layers)
    lap()
    try:
        split = _split(store, seed, layers)
        X_train = np.ascontiguousarray(split.X_train, dtype=np.float32)
        X_val = np.ascontiguousarray(split.X_test, dtype=np.float32)
    finally:
        store.close()
    lap()

    def build():
        model = CNNLSTMClassifier(seq_len=WINDOW, hidden_size=shape.hidden,
                                  kernel_size=7, stride=2, seed=seed)
        optimizer = Adam(model.parameters(), lr=1e-3)
        trainer = Trainer(model, optimizer, NLLLoss(), batch_size=shape.batch,
                          max_epochs=shape.epochs, patience=shape.epochs,
                          shuffle_rng=seed)
        return model, optimizer, trainer

    (model, optimizer, trainer), layers["model.fit_s"] = _timed(build)
    model.predict(X_val[:shape.batch])            # warm-up, draws no RNG
    lap()

    spans = SpanRecorder() if traced else None
    if spans is not None:
        _trace_training(spans, model, optimizer, trainer)
    latencies, marks = _batch_latency_probe(model, optimizer)
    tic = time.perf_counter()
    history = trainer.fit(X_train, split.y_train, X_val, split.y_test)
    segments = _segments(tic, marks, time.perf_counter())
    epochs = [(e.epoch, e.train_loss, e.val_accuracy, e.lr)
              for e in history.epochs]
    batches = -(-len(X_train) // shape.batch) * len(epochs)
    failed = sum(-(-len(X_train) // shape.batch)
                 for e in history.epochs if not np.isfinite(e.train_loss))
    return Episode(
        setup_laps_s=lap.laps_s, segments_s=segments,
        units=len(X_train) * len(epochs),
        latencies_s=latencies, digest=_digest(epochs), attempted=batches,
        failed=failed, accuracy=history.epochs[-1].val_accuracy,
        layers=layers, counts={"train.batches": batches}, spans=spans)


def _batch_latency_probe(model, optimizer) -> tuple[list[float], list[float]]:
    """Per-mini-batch wall time: epoch start or previous step -> step return.

    ``Trainer.fit`` calls ``model.train()`` at the top of each epoch and
    ``optimizer.step()`` once per batch; the validation pass between the
    last step and the next epoch is not part of any batch.  Returns the
    latency list and the list of step-return times, filled as ``fit`` runs.
    """
    latencies: list[float] = []
    marks: list[float] = []
    mark = [0.0]

    def make_train(inner):
        def train(mode=True):
            if mode:
                mark[0] = time.perf_counter()
            return inner(mode)
        return train

    def make_step(inner):
        def step():
            out = inner()
            now = time.perf_counter()
            latencies.append(now - mark[0])
            marks.append(now)
            mark[0] = now
            return out
        return step

    wrap_call(model, "train", make_train)
    wrap_call(optimizer, "step", make_step)
    return latencies, marks


def _trace_training(spans: SpanRecorder, model, optimizer, trainer) -> None:
    """Spans for the serial training loop.

    ``train.backward`` is the gap from the loss's return to the entry of
    ``clip_grad_norm`` (zero_grad plus the autograd backward pass).
    """
    spans.wrap(trainer, "fit", "train.fit")
    spans.wrap(trainer, "evaluate_accuracy", "train.eval")
    spans.wrap(trainer, "loss_fn", "train.loss")
    spans.wrap(optimizer, "clip_grad_norm", "train.optim")
    spans.wrap(optimizer, "step", "train.optim")
    _trace_nn(spans, model)
    loss_done = [0.0]

    def make_loss(inner):
        def loss_fn(*args):
            out = inner(*args)
            loss_done[0] = time.perf_counter()
            return out
        return loss_fn

    def make_clip(inner):
        def clip_grad_norm(max_norm):
            spans.interval("train.backward", time.perf_counter() - loss_done[0])
            return inner(max_norm)
        return clip_grad_norm

    wrap_call(trainer, "loss_fn", make_loss)
    wrap_call(optimizer, "clip_grad_norm", make_clip)


def run_episode(name: str, seed: int, shape: Shape, workdir: Path, *,
                traced: bool, reference: bool = False) -> Episode:
    """One fresh set-up plus one timed phase of workload ``name``.

    ``reference`` also replays a fleet workload's inputs through an
    in-process server, untimed, for the correctness gate.
    """
    os.makedirs(workdir, exist_ok=True)
    # Autograd graphs are reference cycles: collect the previous episode's
    # garbage now, so peak RSS does not depend on when the collector ran.
    gc.collect()
    if WORKLOADS[name][0] == "cnnlstm":
        return _train_episode(name, seed, shape, workdir, traced)
    return _serve_episode(name, seed, shape, workdir, traced, reference)

