"""Command-line interface.

Three subcommands cover the common workflows end to end::

    python -m repro simulate   --scale 0.05 --npz-dir release/ --csv-dir logs/
    python -m repro evaluate   --model rf_cov --dataset 60-middle-1 --scale 0.05
    python -m repro efficiency --scale 0.02

All commands are deterministic for a given ``--seed`` (``evaluate``'s fit
time excepted).  Serving, monitoring and crash-safety live in the
library; ``examples/`` walks through them, the tier-1 tests hold their
contracts and ``perfbench/run.py`` times them.
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


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "evaluate": _cmd_evaluate,
        "efficiency": _cmd_efficiency,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
