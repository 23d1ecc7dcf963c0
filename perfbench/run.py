#!/usr/bin/env python3
"""Run one benchmark workload, or all of them, and print every metric.

    python3 perfbench/run.py --workload fleet-rf --seed 3 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 3 --seconds 10

A run repeats *episodes* of its workload (fresh set-up, then one timed
replay or training fit) until it has at least four of them and
``--seconds`` of timed work.  ``--trace 0`` reports the end-to-end
metrics of untraced episodes, built from the fastest repeat of each tick,
window and set-up stage across episodes; ``--trace 1`` alternates
untraced and traced episodes and reports the per-layer metrics.  The
last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The correctness gate
runs before it is printed; on any mismatch the run exits 1 instead.
``--workload all`` runs every workload in both modes, each in a fresh
process.  See ``perfbench/README.md`` for every metric's definition.
"""

import os

# Pin BLAS threads before numpy loads; spawned fleet workers inherit it.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: (name, unit) of every end-to-end metric, reported with ``--trace 0``.
END_TO_END = (
    ("windows_per_s", "windows/s"),
    ("latency_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)

#: (name, unit) of every per-layer metric, reported with ``--trace 1``.
PER_LAYER = (
    ("monitor.on_ingress_s", "s"), ("monitor.rows", "count"),
    ("monitor.events", "count"),
    ("fleet.rpc_s", "s"), ("fleet.rpc_calls", "count"),
    ("fleet.router_self_s", "s"), ("fleet.worker_predict_s", "s"),
    ("fleet.spawn_s", "s"),
    ("serve.submit_s", "s"), ("serve.step_self_s", "s"),
    ("serve.drain_s", "s"), ("serve.predict_calls", "count"),
    ("serve.batch_size_mean", "windows"), ("serve.windows", "count"),
    ("ml.scale_s", "s"), ("ml.cov_s", "s"), ("ml.forest_s", "s"),
    ("model.predict_us_per_window", "us"), ("model.fit_s", "s"),
    ("nn.conv1.forward_s", "s"), ("nn.pool.forward_s", "s"),
    ("nn.conv2.forward_s", "s"), ("nn.lstm.forward_s", "s"),
    ("nn.fc1.forward_s", "s"), ("nn.fc2.forward_s", "s"),
    ("nn.model_self_s", "s"),
    ("train.loss_s", "s"), ("train.backward_s", "s"), ("train.optim_s", "s"),
    ("train.eval_s", "s"), ("train.batches", "count"),
    ("store.ingest_s", "s"), ("store.ingest_rows_per_s", "rows/s"),
    ("store.open_s", "s"), ("store.read_s", "s"),
    ("simcluster.generate_s", "s"),
    ("share.loadgen", "fraction"), ("share.fleet", "fraction"),
    ("share.serve", "fraction"), ("share.monitor", "fraction"),
    ("share.model", "fraction"), ("share.nn", "fraction"),
    ("share.train", "fraction"),
    ("quality.accuracy", "fraction"),
    ("bench.trace_overhead_frac", "fraction"),
    ("bench.stage_sum_gap_frac", "fraction"),
    ("bench.traced_wall_s", "s"), ("bench.latency_p90_ms", "ms"),
)

#: Layers of the self-time table; a span belongs to its name's prefix.
LAYERS = ("loadgen", "fleet", "serve", "monitor", "model", "nn", "train")
LAYER_OF_PREFIX = {"ml": "model"}

#: The traced run's layer self-times must sum to its wall time within
#: this share.  The self-times partition the outermost span by
#: construction, so the gap is only what lies outside it.
STAGE_SUM_TOLERANCE = 0.01

#: Fewest episodes per run: the end-to-end metrics take the fastest of
#: each piece of work across them.
MIN_EPISODES = 4


class GateError(RuntimeError):
    """The correctness gate failed; no number may be reported."""


def host_block() -> dict:
    """Usable cores, CPU model, BLAS vendor and threads, versions."""
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next(line.split(":", 1)[1].strip() for line in info
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas": blas,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def _done(episodes, trace: int, seconds: float) -> bool:
    if len(episodes) < MIN_EPISODES or sum(e.timed_s for e in episodes) < seconds:
        return False
    return not trace or len(episodes) % 2 == 0


def _traced_slot(i: int) -> bool:
    """Episodes pair up as (untraced, traced), then (traced, untraced), ...

    Alternating which side runs first keeps an order effect out of the
    traced-vs-untraced comparison.
    """
    return (i % 2 == 1) != ((i // 2) % 2 == 1)


def _gate(name: str, episodes, shape) -> None:
    """Outputs must not depend on repeats, tracing, or the fleet."""
    digests = {e.digest for e in episodes}
    if len(digests) != 1:
        raise GateError(f"{name}: outputs differ across episodes "
                        f"({len(digests)} distinct digests)")
    twins = {e.reference_digest for e in episodes} - {None}
    if twins and twins != digests:
        raise GateError(f"{name}: fleet emissions differ from the in-process "
                        "replay of the same inputs")
    fewest = min(len(e.latencies_s) for e in episodes)
    if fewest < shape.min_latency_samples:
        raise GateError(f"{name}: an episode has {fewest} latency samples, "
                        f"p90 needs {shape.min_latency_samples}")
    for series in ("setup_laps_s", "segments_s", "latencies_s"):
        lengths = {len(getattr(e, series)) for e in episodes}
        if len(lengths) != 1:
            raise GateError(f"{name}: episodes differ in the length of "
                            f"{series} ({sorted(lengths)})")


def _fastest(episodes, series: str):
    """Element-wise minimum over episodes of one aligned per-episode series.

    Every episode repeats the same deterministic work, so element ``i`` is
    the same set-up stage, tick, batch or window in each.  Host contention
    only ever adds time, in bursts of up to a few seconds; the fastest of
    several repeats of each short piece is the piece's cost on a quiet
    host, and it repeats within a few percent where medians swing by 20%.
    """
    import numpy as np

    return np.min([getattr(e, series) for e in episodes], axis=0)


def _latency_ms(episodes, q: float) -> float:
    """q-th percentile over windows of each window's fastest latency."""
    import numpy as np

    return 1e3 * float(np.percentile(_fastest(episodes, "latencies_s"), q))


def end_to_end(episodes, rss_mb: float) -> dict:
    """Built from the fastest repeat of each tick, window and set-up stage."""
    return {
        "windows_per_s": episodes[0].units
        / float(_fastest(episodes, "segments_s").sum()),
        "latency_p50_ms": _latency_ms(episodes, 50.0),
        "setup_s": float(_fastest(episodes, "setup_laps_s").sum()),
        "peak_rss_mb": rss_mb + max(e.worker_rss_mb for e in episodes),
    }


def _layer_of(span_name: str) -> str:
    prefix = span_name.split(".", 1)[0]
    return LAYER_OF_PREFIX.get(prefix, prefix)


def per_layer(episodes) -> dict:
    traced = [e for e in episodes if e.spans is not None]
    plain = [e for e in episodes if e.spans is None]
    n = len(traced)

    def total(*names):
        return sum(e.spans.total.get(k, 0.0) for e in traced for k in names) / n

    def self_s(*names):
        return sum(e.spans.self_s.get(k, 0.0) for e in traced
                   for k in names) / n

    def calls(prefix):
        return sum(c for e in traced for k, c in e.spans.calls.items()
                   if k.startswith(prefix)) / n

    def count(key):
        return sum(e.counts.get(key, 0) for e in traced) / n

    def setup(key):
        return statistics.median(e.layers.get(key, 0.0) for e in episodes)

    wall = sum(e.timed_s for e in traced) / n
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for e in traced:
        for span_name, seconds in e.spans.self_s.items():
            layer_self[_layer_of(span_name)] += seconds / n
    ops = ("submit", "step", "drain", "end_session")
    windows = count("serve.windows")
    if "fleet.worker_predict_s" in traced[0].counts:
        predict_s = count("fleet.worker_predict_s")
    else:
        predict_s = total("model.predict")
    pairs = [t.timed_s / u.timed_s for u, t in zip(plain, traced)]
    metrics = {
        "monitor.on_ingress_s": total("monitor.on_ingress"),
        "monitor.rows": count("monitor.rows"),
        "monitor.events": count("monitor.events"),
        "fleet.rpc_s": total(*(f"fleet.rpc.{op}" for op in ops)),
        "fleet.rpc_calls": calls("fleet.rpc."),
        "fleet.router_self_s": self_s(*(f"fleet.router.{op}" for op in ops)),
        "fleet.worker_predict_s": count("fleet.worker_predict_s"),
        "fleet.spawn_s": setup("fleet.spawn_s"),
        "serve.submit_s": total("serve.submit"),
        "serve.step_self_s": self_s("serve.step"),
        "serve.drain_s": total("serve.drain"),
        "serve.predict_calls": count("serve.predict_calls"),
        "serve.batch_size_mean": count("serve.batch_size_mean"),
        "serve.windows": windows,
        "ml.scale_s": total("ml.scale"),
        "ml.cov_s": total("ml.cov"),
        "ml.forest_s": total("ml.forest"),
        "model.predict_us_per_window": 1e6 * predict_s / windows
        if windows else 0.0,
        "model.fit_s": setup("model.fit_s"),
        "nn.conv1.forward_s": total("nn.conv1"),
        "nn.pool.forward_s": total("nn.pool"),
        "nn.conv2.forward_s": total("nn.conv2"),
        "nn.lstm.forward_s": total("nn.lstm", "nn.lstm1"),
        "nn.fc1.forward_s": total("nn.fc1"),
        "nn.fc2.forward_s": total("nn.fc2"),
        "nn.model_self_s": self_s("nn.model"),
        "train.loss_s": total("train.loss"),
        "train.backward_s": total("train.backward"),
        "train.optim_s": total("train.optim"),
        "train.eval_s": total("train.eval"),
        "train.batches": count("train.batches"),
        "store.ingest_s": setup("store.ingest_s"),
        "store.ingest_rows_per_s": setup("store.ingest_rows_per_s"),
        "store.open_s": setup("store.open_s"),
        "store.read_s": setup("store.read_s"),
        "simcluster.generate_s": setup("simcluster.generate_s"),
        **{f"share.{layer}": layer_self[layer] / wall for layer in LAYERS},
        "quality.accuracy": statistics.mean(e.accuracy for e in episodes),
        "bench.trace_overhead_frac": statistics.median(pairs) - 1.0,
        "bench.stage_sum_gap_frac":
            abs(sum(layer_self.values()) - wall) / wall,
        "bench.traced_wall_s": wall,
        "bench.latency_p90_ms": _latency_ms(plain, 90.0),
    }
    if metrics["bench.stage_sum_gap_frac"] > STAGE_SUM_TOLERANCE:
        raise GateError(
            f"layer self-times sum to {sum(layer_self.values()):.6f}s, traced "
            f"wall is {wall:.6f}s (tolerance {STAGE_SUM_TOLERANCE:.0%})")
    if min(layer_self.values()) < -STAGE_SUM_TOLERANCE * wall:
        raise GateError(f"negative layer self-time: {layer_self}")
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 size: str) -> dict:
    """Run episodes of ``name`` until done; returns the result object."""
    from workloads import SHAPES, peak_rss_mb, run_episode

    shape = SHAPES[size][name]
    workdir = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    episodes = []
    try:
        while not _done(episodes, trace, seconds):
            i = len(episodes)
            episodes.append(run_episode(
                name, seed, shape, workdir / f"ep{i}",
                traced=bool(trace) and _traced_slot(i),
                reference=not episodes))
        rss_mb = peak_rss_mb()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()          # only once no other run uses it
        except OSError:
            pass
    _gate(name, episodes, shape)
    if trace:
        metrics, units = per_layer(episodes), dict(PER_LAYER)
    else:
        metrics, units = end_to_end(episodes, rss_mb), dict(END_TO_END)
    samples = [len(e.latencies_s) for e in episodes]
    print(f"host {json.dumps(host_block())}")
    print(f"workload {name} seed {seed} trace {trace}: {len(episodes)} "
          f"episodes, {sum(e.timed_s for e in episodes):.2f}s timed, "
          f"latency samples per episode {min(samples)}-{max(samples)}, "
          f"digest {episodes[0].digest[:16]}")
    for key, value in metrics.items():
        print(f"  {key:<30} {value:>16.6g} {units[key]}")
    return {
        "correct": True,
        "attempted": sum(e.attempted for e in episodes),
        "failed": sum(e.failed for e in episodes),
        "metrics": {key: {"value": value, "unit": units[key]}
                    for key, value in metrics.items()},
    }


def _child_pids() -> list[int]:
    """Live children of this process, from /proc."""
    me, pids = os.getpid(), []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # Fields after the parenthesised command: state, ppid, ...
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            pids.append(int(entry.name))
    return pids


def stop_children() -> None:
    """Stop every process this run started and wait until each has ended.

    Fleet workers are multiprocessing children.  Spawning them also starts
    multiprocessing's resource tracker, which is meant to outlive its
    parent; it is stopped here.  Anything left after that is killed.
    """
    import multiprocessing as mp
    from multiprocessing import resource_tracker

    for child in mp.active_children():
        child.kill()
        child.join()
    resource_tracker._resource_tracker._stop()
    for pid in _child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


def run_all(args) -> int:
    """Every workload in both modes, each in a fresh process."""
    from workloads import WORKLOADS

    print(f"host {json.dumps(host_block())}")
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace),
                   "--size", args.size]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=900)
            for line in proc.stdout.splitlines():
                if not line.startswith(("host ", "{")):
                    print(line, flush=True)
            if proc.returncode != 0:
                print(f"{name} trace {trace}: FAILED (exit {proc.returncode})")
                status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the smoke test's inputs")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: package source not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)} or all")
    try:
        result = run_workload(args.workload, args.seed, args.seconds,
                              args.trace, args.size)
    except GateError as exc:
        print(f"perfbench: correctness gate failed: {exc}", file=sys.stderr)
        return 1
    finally:
        stop_children()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
