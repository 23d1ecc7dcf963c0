"""Shared fixtures: tiny simulation configs and synthetic ML datasets.

Everything here is deliberately small — the full suite must run in minutes
on one core.  Session-scoped fixtures cache the expensive builds (labelled
dataset, challenge suite) across test modules.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.data.challenge import build_challenge_suite
from repro.data.labelled import build_labelled_dataset
from repro.simcluster.cluster import SimulationConfig

# The tier-1 run keeps hypothesis's default budget.  CI selects this
# profile (``--hypothesis-profile=ci``) to run every property test that
# does not pin its own ``max_examples`` — the filter-pass parity sweep
# among them — ten times wider.
settings.register_profile("ci", max_examples=1000, deadline=None)


TINY_SIM = SimulationConfig(
    seed=1234,
    trials_scale=0.004,
    min_jobs_per_class=2,
    duration_lognorm_mean_s=220.0,
    duration_clip_s=(150.0, 400.0),
    startup_mean_s=28.0,
)


@pytest.fixture(scope="session")
def tiny_sim_config() -> SimulationConfig:
    return TINY_SIM


@pytest.fixture(scope="session")
def labelled_tiny(tiny_sim_config):
    """A small labelled release: ~55 jobs, ~70 GPU series."""
    return build_labelled_dataset(tiny_sim_config)


@pytest.fixture(scope="session")
def challenge_suite_tiny(labelled_tiny):
    """Start/middle/random-1 datasets over the tiny release."""
    return build_challenge_suite(
        labelled_tiny,
        seed=7,
        names=("60-start-1", "60-middle-1", "60-random-1"),
    )


@pytest.fixture(scope="session")
def blobs():
    """Separable 3-class Gaussian blobs for estimator sanity checks."""
    rng = np.random.default_rng(42)
    n_per, p = 60, 6
    centers = np.array(
        [[0.0] * p, [4.0] * p, [0.0, 4.0] * (p // 2)], dtype=np.float64
    )
    X = np.vstack([rng.normal(c, 1.0, size=(n_per, p)) for c in centers])
    y = np.repeat(np.arange(3), n_per)
    perm = rng.permutation(len(y))
    return X[perm], y[perm]


@pytest.fixture(scope="session")
def blobs_split(blobs):
    X, y = blobs
    n_train = int(0.8 * len(y))
    return X[:n_train], y[:n_train], X[n_train:], y[n_train:]
