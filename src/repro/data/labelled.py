"""Build the raw labelled dataset from a cluster simulation."""

from __future__ import annotations

from repro.data.dataset import LabelledDataset, LabelledTrial
from repro.simcluster.cluster import ClusterSimulator, SimulatedJob, SimulationConfig

__all__ = ["build_labelled_dataset", "trials_from_jobs"]


def trials_from_jobs(jobs: list[SimulatedJob]) -> LabelledDataset:
    """Flatten simulated jobs into labelled trials (one per GPU series)."""
    trials: list[LabelledTrial] = []
    for job in jobs:
        for gs in job.gpu_series:
            trials.append(
                LabelledTrial(
                    series=gs.data,
                    label=job.record.class_label,
                    model_name=job.record.architecture,
                    job_id=job.record.job_id,
                    gpu_index=gs.gpu_index,
                )
            )
    return LabelledDataset(trials)


def build_labelled_dataset(
    config: SimulationConfig | None = None,
) -> LabelledDataset:
    """Run the cluster simulator and return the labelled release.

    This is the synthetic stand-in for downloading the ~2 GB labelled
    portion of the MIT Supercloud Dataset.
    """
    jobs, _log = ClusterSimulator(config).generate()
    return trials_from_jobs(jobs)
