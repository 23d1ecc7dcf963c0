"""Command-line interface.

Six subcommands cover the common workflows end to end::

    python -m repro simulate         --scale 0.05 --npz-dir release/ --csv-dir logs/
    python -m repro evaluate         --model rf_cov --dataset 60-middle-1 --scale 0.05
    python -m repro efficiency       --scale 0.02
    python -m repro serve-bench      --scale 0.02 --jobs 50
    python -m repro monitor-bench    --scale 0.02 --jobs 24 --challenger good
    python -m repro resilience-bench --scale 0.01 --mtbf-epochs 2

All commands are deterministic for a given ``--seed`` (wall-clock readouts
such as ``monitor-bench`` throughput vary with the machine; every
classification, batch, shed, drift, rollout and preemption decision does
not).  Serving throughput is timed by ``perfbench/run.py``, not here.
"""

from __future__ import annotations

import argparse
import sys

from repro.simcluster.cluster import SimulationConfig

__all__ = ["main", "build_parser"]

_MODEL_CHOICES = ("svm_pca", "svm_cov", "rf_pca", "rf_cov", "xgb_cov")


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse CLI parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MIT Supercloud Workload Classification Challenge "
                    "reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=2022,
                       help="simulation seed (default 2022)")
        p.add_argument("--scale", type=float, default=0.03,
                       help="trials_scale: fraction of the paper's per-class "
                            "job counts (1.0 = full 3,430-job release)")

    p_sim = sub.add_parser("simulate", help="generate a labelled release")
    add_common(p_sim)
    p_sim.add_argument("--npz-dir", help="write the seven challenge datasets "
                                         "as npz archives here")
    p_sim.add_argument("--csv-dir", help="export scheduler log + telemetry "
                                         "CSVs here")
    p_sim.add_argument("--store-dir",
                       help="archive every generated GPU series into a "
                            "crash-safe telemetry store at this path")

    p_eval = sub.add_parser("evaluate", help="train and test one baseline")
    add_common(p_eval)
    p_eval.add_argument("--model", choices=_MODEL_CHOICES, default="rf_cov")
    p_eval.add_argument("--dataset", default="60-middle-1")
    p_eval.add_argument("--cv", type=int, default=3,
                        help="grid-search folds (paper: 10)")

    p_eff = sub.add_parser("efficiency",
                           help="per-job-type power-efficiency analysis "
                                "(Section IV-B's suggestion)")
    add_common(p_eff)

    p_serve = sub.add_parser(
        "serve-bench",
        help="train a quick RF+Cov model, register it, and replay a "
             "simulated fleet through the micro-batching inference server",
    )
    add_common(p_serve)
    p_serve.add_argument("--jobs", type=int, default=50,
                         help="concurrent simulated job streams (default 50)")
    p_serve.add_argument("--rate", type=int, default=90,
                         help="telemetry samples per job per tick "
                              "(default 90 = 10 s at 9 Hz)")
    p_serve.add_argument("--max-batch", type=int, default=64,
                         help="micro-batch flush size (default 64)")
    p_serve.add_argument("--deadline-s", type=float, default=30.0,
                         help="micro-batch flush deadline in simulated "
                              "seconds (default 30)")
    p_serve.add_argument("--queue", type=int, default=2048,
                         help="ingress queue capacity in chunks (default 2048)")
    p_serve.add_argument("--policy", choices=("shed-oldest", "reject"),
                         default="shed-oldest",
                         help="admission policy when the queue is full")
    p_serve.add_argument("--trees", type=int, default=30,
                         help="random-forest size for the quick model")
    p_serve.add_argument("--max-samples", type=int, default=1620,
                         help="cap each job's replayed stream (default 1620 "
                              "= 3 minutes at 9 Hz)")
    p_serve.add_argument("--registry-dir",
                         help="model registry directory (default: a "
                              "temporary directory)")

    p_mon = sub.add_parser(
        "monitor-bench",
        help="champion-vs-challenger rollout under injected telemetry "
             "drift: detection latency, shadow agreement, canary "
             "promotion/rollback, alert timeline",
    )
    add_common(p_mon)
    p_mon.add_argument("--jobs", type=int, default=24,
                       help="concurrent simulated job streams (default 24)")
    p_mon.add_argument("--trees", type=int, default=30,
                       help="random-forest size for champion/challenger")
    p_mon.add_argument("--challenger", choices=("good", "bad"),
                       default="good",
                       help="'good' retrains the baseline (should be "
                            "promoted); 'bad' scrambles labels (should be "
                            "rolled back)")
    p_mon.add_argument("--max-samples", type=int, default=2700,
                       help="replayed stream length per job (default 2700 "
                            "= 5 minutes at 9 Hz)")
    p_mon.add_argument("--drift-start", type=int, default=1080,
                       help="stream sample where injected drift begins "
                            "(default 1080 = 2 minutes)")
    p_mon.add_argument("--drift-gain", type=float, default=1.6,
                       help="sensor gain at full ramp (default 1.6)")
    p_mon.add_argument("--drift-offset", type=float, default=0.0,
                       help="sensor additive offset at full ramp")
    p_mon.add_argument("--drift-ramp", type=int, default=270,
                       help="samples over which the drift ramps in")
    p_mon.add_argument("--class-shift", type=float, default=0.0,
                       help="fraction of jobs switching workload class at "
                            "the drift offset (default 0)")
    p_mon.add_argument("--canary-fraction", type=float, default=0.4,
                       help="fraction of sessions routed to the "
                            "challenger during canary (default 0.4)")
    p_mon.add_argument("--registry-dir",
                       help="model registry directory (default: a "
                            "temporary directory)")
    p_mon.add_argument("--store-dir",
                       help="replay the fleet from a telemetry store at "
                            "this path (an empty store is seeded with the "
                            "bench's simulated release first)")

    p_res = sub.add_parser(
        "resilience-bench",
        help="SIGKILL an LSTM training run at simulated preemptions and "
             "registry writers mid-save; assert checkpoint/resume is "
             "bit-identical and the registry keeps serving",
    )
    add_common(p_res)
    p_res.set_defaults(scale=0.01)
    p_res.add_argument("--epochs", type=int, default=5,
                       help="training epochs for both twins (default 5)")
    p_res.add_argument("--hidden", type=int, default=8,
                       help="LSTM hidden size (default 8; paper: 128)")
    p_res.add_argument("--time-stride", type=int, default=8,
                       help="window subsampling for CPU budget (default 8)")
    p_res.add_argument("--mtbf-epochs", type=float, default=2.0,
                       help="mean epochs between injected preemptions "
                            "(default 2.0)")
    p_res.add_argument("--workdir",
                       help="checkpoint/registry directory (default: a "
                            "temporary directory)")

    return parser


def _cmd_simulate(args) -> int:
    from repro.data import build_challenge_suite, challenge_suite_table, save_challenge_suite
    from repro.data.labelled import trials_from_jobs
    from repro.data.stats import family_totals, format_table
    from repro.simcluster import ClusterSimulator
    from repro.simcluster.export import export_release

    from repro.simcluster.nodestate import snapshot_cluster

    config = SimulationConfig(seed=args.seed, trials_scale=args.scale)
    store = None
    if args.store_dir:
        from repro.store import TelemetryStore
        store = TelemetryStore(args.store_dir)
    jobs, log = ClusterSimulator(config).generate(store=store)
    labelled = trials_from_jobs(jobs)
    print(f"simulated {len(jobs)} jobs -> {len(labelled)} labelled GPU series")
    if store is not None:
        print(f"archived telemetry to store: {store.stats()}")
        store.close()
    print("family totals:", family_totals(labelled))
    state = snapshot_cluster(list(log), n_nodes=224, dt_s=600.0)
    print(f"cluster view: peak {state.peak_concurrency()} GPUs in use "
          f"across 224 nodes")

    if args.csv_dir:
        counts = export_release(jobs, log, args.csv_dir)
        print(f"exported CSVs to {args.csv_dir}: {counts}")
    if args.npz_dir:
        suite = build_challenge_suite(labelled, seed=args.seed)
        print(format_table(challenge_suite_table(suite)))
        paths = save_challenge_suite(suite, args.npz_dir)
        print(f"wrote {len(paths)} npz datasets to {args.npz_dir}")
    return 0


def _cmd_evaluate(args) -> int:
    from repro.core import WorkloadClassificationChallenge
    from repro.core.baselines import run_traditional_baseline, run_xgboost_baseline

    challenge = WorkloadClassificationChallenge.from_simulation(
        SimulationConfig(seed=args.seed, trials_scale=args.scale),
        names=(args.dataset,),
    )
    if args.model == "xgb_cov":
        result = run_xgboost_baseline(challenge, args.dataset, cv=args.cv)
        print("top-5 features by gain importance:")
        for name, value in result["feature_importance"][:5]:
            print(f"  {value:6.3f}  {name}")
    else:
        result = run_traditional_baseline(
            challenge, args.model, args.dataset, cv=args.cv,
            rf_trees=(50, 100),
        )
        print(f"best params: {result['best_params']}")
    print(f"{args.model} on {args.dataset}: "
          f"test accuracy {result['test_accuracy']:.2%} "
          f"(cv {result['cv_accuracy']:.2%}, "
          f"fit {result['fit_seconds']:.0f}s)")
    return 0


def _cmd_efficiency(args) -> int:
    from repro.analysis import job_type_efficiency
    from repro.data import build_labelled_dataset
    from repro.data.stats import format_table

    labelled = build_labelled_dataset(
        SimulationConfig(seed=args.seed, trials_scale=args.scale)
    )
    reports = job_type_efficiency(labelled)
    print(format_table([r.row() for r in reports]))
    worst = reports[-1]
    print(f"\nleast efficient job type: {worst.class_name} "
          f"({worst.util_per_watt:.3f} util%/W) — the kind of finding the "
          "paper suggests operators could act on.")
    return 0


def _cmd_serve_bench(args) -> int:
    import tempfile
    import time

    from repro.data import build_challenge_suite
    from repro.data.labelled import build_labelled_dataset
    from repro.models import make_rf_cov
    from repro.serve import (
        FleetLoadGenerator,
        InferenceServer,
        ModelRegistry,
        ServeConfig,
    )

    # 1. Offline: simulate a release and fit the paper's best traditional
    #    baseline on one challenge dataset.
    sim = SimulationConfig(seed=args.seed, trials_scale=args.scale)
    labelled = build_labelled_dataset(sim)
    suite = build_challenge_suite(labelled, seed=args.seed,
                                  names=("60-random-1",))
    ds = suite["60-random-1"]
    model = make_rf_cov(n_estimators=args.trees, random_state=0)
    tic = time.perf_counter()
    model.fit(ds.X_train, ds.y_train)
    print(f"fitted rf_cov({args.trees} trees) on {ds.n_train} windows "
          f"in {time.perf_counter() - tic:.1f}s")

    # 2. Publish + fetch through the registry (round-trips via disk).
    registry_dir = args.registry_dir or tempfile.mkdtemp(prefix="repro-registry-")
    registry = ModelRegistry(registry_dir)
    version = registry.register("rf_cov", model)
    served_model = registry.get("rf_cov")
    print(f"registered rf_cov v{version} in {registry_dir}")

    # 3. Replay a simulated fleet through the micro-batching server.
    window = ds.n_samples
    eligible = labelled.eligible(window)
    gen = FleetLoadGenerator(
        [t.series for t in eligible.trials],
        [t.label for t in eligible.trials],
        n_jobs=args.jobs,
        samples_per_tick=args.rate,
        max_samples_per_job=args.max_samples,
        seed=args.seed,
    )
    server = InferenceServer(
        served_model,
        ServeConfig(
            window=window,
            max_batch=args.max_batch,
            flush_deadline_s=args.deadline_s,
            queue_capacity=args.queue,
            admission=args.policy,
        ),
        clock=gen.clock,
    )
    report = gen.run(server)

    shed = server.metrics.counter("ingress.shed").value
    rejected = server.metrics.counter("ingress.rejected").value
    latency = server.metrics.histogram("latency.window_s").summary()
    print(f"\nfleet: {args.jobs} jobs, {report.n_ticks} ticks "
          f"({report.sim_seconds:.0f}s simulated), "
          f"{report.n_predictions} windows classified")
    if latency.get("count"):
        print(f"latency (simulated): p50={latency['p50']:.1f}s "
              f"p95={latency['p95']:.1f}s p99={latency['p99']:.1f}s")
    print(f"predict calls: {server.batcher.n_predict_calls} batched vs "
          f"{server.batcher.n_windows} per-session "
          f"({server.batcher.n_windows / max(1, server.batcher.n_predict_calls):.1f}"
          " windows/call)")
    print(f"shed: {shed} chunks, rejected: {rejected} chunks")
    print(f"fleet smoothed-label accuracy: {report.smoothed_accuracy():.2%}")
    print("\nmetrics\n-------")
    print(server.metrics.report())
    return 0


def _cmd_monitor_bench(args) -> int:
    from repro.monitor import MonitorBenchConfig, run_monitor_bench

    config = MonitorBenchConfig(
        seed=args.seed,
        scale=args.scale,
        trees=args.trees,
        challenger=args.challenger,
        registry_dir=args.registry_dir,
        n_jobs=args.jobs,
        max_samples_per_job=args.max_samples,
        drift_start=args.drift_start,
        drift_ramp=args.drift_ramp,
        drift_gain=args.drift_gain,
        drift_offset=args.drift_offset,
        class_shift_fraction=args.class_shift,
        canary_fraction=args.canary_fraction,
        store_dir=args.store_dir,
    )
    report = run_monitor_bench(config)
    print(f"trained champion + {args.challenger} challenger "
          f"({args.trees} trees) in {report.fit_seconds:.1f}s; "
          f"registry v{report.champion_version} active at start\n")
    print(report.format())
    # Sanity line for scripts/CI: the expected terminal decision.
    expected = "promoted" if args.challenger == "good" else "rolled_back"
    verdict = "as expected" if report.state == expected else (
        f"UNEXPECTED (wanted {expected})")
    print(f"\nrollout verdict: {report.state} — {verdict}")
    return 0 if report.state == expected else 1


def _cmd_resilience_bench(args) -> int:
    from repro.resilience.bench import ResilienceBenchConfig, run_resilience_bench

    config = ResilienceBenchConfig(
        seed=args.seed,
        scale=args.scale,
        hidden_size=args.hidden,
        time_stride=args.time_stride,
        max_epochs=args.epochs,
        patience=args.epochs,
        mtbf_epochs=args.mtbf_epochs,
        workdir=args.workdir,
    )
    report = run_resilience_bench(config)
    print(report.format())
    print(f"\n({report.fit_seconds:.1f}s total)")
    verdict = "ok" if report.ok else "VIOLATED"
    print(f"resilience verdict: {verdict}")
    return 0 if report.ok else 1


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "evaluate": _cmd_evaluate,
        "efficiency": _cmd_efficiency,
        "serve-bench": _cmd_serve_bench,
        "monitor-bench": _cmd_monitor_bench,
        "resilience-bench": _cmd_resilience_bench,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
