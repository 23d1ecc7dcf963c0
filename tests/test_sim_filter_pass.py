"""The release's first-order filter pass, byte for byte.

Two parity contracts:

* :func:`first_order_pass` returns, for every series, the bytes
  :func:`scipy.signal.lfilter` returns for it alone — ±0, subnormals and
  ±inf included, across tile edges and ragged lengths — and NaN exactly
  where lfilter returns NaN.  Which NaN payload comes out depends on the
  numpy/scipy build and the SIMD loop numpy picks, so payloads are not
  compared; no simulator input or coefficient is NaN;
* a release generated in passes equals, byte for byte, the per-job
  reference generator of :mod:`tests.oracles.simcluster`, which filters
  each series with its own ``lfilter`` call.

The hypothesis sweep takes its example budget from the active profile
(``--hypothesis-profile=ci`` runs it wider; see ``conftest.py``).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.signal import lfilter

from repro.simcluster import ARCHITECTURES, ClusterSimulator, SimulationConfig
from repro.simcluster._recurrence import TILE, first_order_pass
from repro.simcluster.workload import WorkloadGenerator
from tests.oracles import simcluster as oracle

_SPECIAL = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, np.inf, -np.inf, np.nan,
    -np.nan, 1e308, -1e308, 1.0, -0.8,
])
_VALUE = st.one_of(_SPECIAL, st.floats(allow_nan=True, allow_infinity=True),
                   st.floats(-1e3, 1e3))
# Coefficients are finite, as every simulator coefficient is.  (With a NaN
# coefficient times a NaN sample, which payload the product keeps depends
# on how numpy broadcasts the coefficient row, not on the recurrence.)
_COEF = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1.0, -0.8, 1e308]),
    st.floats(-2.0, 2.0), st.floats(allow_nan=False, allow_infinity=False))

_series = st.fixed_dictionaries({
    # Lengths from 0 across several tiles, so series end inside, at the
    # edge of and beyond a tile while others are still live.
    "x": st.one_of(
        st.lists(_VALUE, max_size=12),
        st.integers(0, 3 * TILE + 5).flatmap(
            lambda n: st.lists(_VALUE, min_size=n, max_size=n))),
    "b0": _COEF,
    "a1": _COEF,
    "zi": _VALUE,
})


@given(st.lists(_series, max_size=7))
@settings(deadline=None)
def test_pass_matches_lfilter_bytes(series):
    xs = [np.array(s["x"], dtype=np.float64) for s in series]
    with np.errstate(all="ignore"):
        expected = [
            lfilter([s["b0"]], [1.0, s["a1"]], x, zi=[s["zi"]])[0]
            if x.size else x.copy()
            for s, x in zip(series, xs)]
        got = [x.copy() for x in xs]
        first_order_pass(got, [s["b0"] for s in series],
                         [s["a1"] for s in series], [s["zi"] for s in series])
    for want, have in zip(expected, got):
        assert have.dtype == np.float64
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(have), nan)
        assert have[~nan].tobytes() == want[~nan].tobytes()


def test_pass_of_nothing_and_of_empty_series():
    first_order_pass([], [], [], [])
    empty = [np.empty(0), np.empty(0)]
    first_order_pass(empty, [1.0, 1.0], [0.5, 0.5], [0.0, 0.0])
    assert [x.shape for x in empty] == [(0,), (0,)]


# ----------------------------------------------------------------------
# Release parity against the per-job reference generator
# ----------------------------------------------------------------------
def _assert_jobs_equal(jobs, ref):
    assert len(jobs) == len(ref)
    for job, want in zip(jobs, ref):
        assert job.record == want.record
        assert len(job.gpu_series) == len(want.gpu_series)
        for a, b in zip(job.gpu_series, want.gpu_series):
            assert a.gpu_index == b.gpu_index and a.dt_s == b.dt_s
            assert a.data.tobytes() == b.data.tobytes()
        for part in ("cpu_series", "fs_counters"):
            a, b = getattr(job, part), getattr(want, part)
            assert (a is None) == (b is None)
            if a is not None:
                assert a.data.shape == b.data.shape
                assert a.data.tobytes() == b.data.tobytes()


@pytest.mark.parametrize("config", [
    SimulationConfig(seed=3, trials_scale=0.02),
    SimulationConfig(seed=11, trials_scale=0.004, min_jobs_per_class=1,
                     generate_fs=True),
    SimulationConfig(seed=5, trials_scale=0.004, min_jobs_per_class=1,
                     generate_cpu=False, gpus_per_job_choices=(2, 4),
                     gpus_per_job_probs=(0.5, 0.5)),
], ids=["seed3-x0.02", "seed11-fs", "seed5-multi-gpu-no-cpu"])
def test_release_matches_per_job_oracle(config):
    jobs, _ = ClusterSimulator(config).generate()
    _assert_jobs_equal(jobs, oracle.generate_release(config))


def test_release_covers_one_two_and_four_gpu_jobs():
    # The parity configs above exercise every GPU count of the default
    # choice set; this pins that the seed-3 release actually draws them.
    jobs, _ = ClusterSimulator(SimulationConfig(seed=3, trials_scale=0.02)).generate()
    assert {len(job.gpu_series) for job in jobs} == {1, 2, 4}


def test_generate_one_matches_oracle():
    config = SimulationConfig(seed=7, trials_scale=0.004, min_jobs_per_class=1,
                              generate_fs=True)
    sim = ClusterSimulator(config)
    for job_id, spec in sim.job_plan()[::9]:
        _assert_jobs_equal([sim.generate_one(job_id, spec)],
                           [oracle.generate_one(config, job_id, spec)])


@pytest.mark.parametrize("glitch_rate", [0.0, 0.004])
@pytest.mark.parametrize("n_gpus", [1, 2, 4])
def test_generate_job_matches_oracle(glitch_rate, n_gpus):
    spec = ARCHITECTURES[n_gpus * 5]
    new = WorkloadGenerator(startup_mean_s=28.0, glitch_rate=glitch_rate)
    ref = oracle.WorkloadGenerator(startup_mean_s=28.0, glitch_rate=glitch_rate)
    a = new.generate_job(spec, 260.0, np.random.default_rng(n_gpus), n_gpus=n_gpus)
    b = ref.generate_job(spec, 260.0, np.random.default_rng(n_gpus), n_gpus=n_gpus)
    assert a.signature == b.signature and a.schedule == b.schedule
    assert [s.data.tobytes() for s in a.gpu_series] == \
        [s.data.tobytes() for s in b.gpu_series]
