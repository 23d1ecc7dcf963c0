"""Per-row reference implementation of the input drift detector.

:class:`SensorDriftDetector` here consumes one telemetry row at a time
with a Python loop over rows and seven scalar :class:`PageHinkley`
objects.  It is the parity oracle for the chunked production detector in
:mod:`repro.monitor.drift`: for any split of a stream into chunks, the
production detector must emit the same :class:`DriftEvent` list (floats
compared by ``==``) and hold the same state after every chunk.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from repro.monitor.drift import (
    _EPS,
    DriftConfig,
    DriftEvent,
    _cov_feature_names,
)
from repro.simcluster.sensors import GPU_SENSORS, N_GPU_SENSORS

__all__ = ["PageHinkley", "SensorDriftDetector"]


class PageHinkley:
    """Two-sided Page–Hinkley cumulative change detector, O(1) state.

    Tracks the cumulative deviation of the input from its running mean,
    minus a per-step allowance ``delta``; fires when the deviation climbs
    ``threshold`` above its running minimum (upward shift) or falls
    ``threshold`` below its running maximum (downward shift).  Inputs are
    expected roughly standardized, so ``delta`` and ``threshold`` are in
    sigma units.
    """

    def __init__(self, *, delta: float = 0.1, threshold: float = 50.0,
                 min_samples: int = 30):
        if delta <= 0 or threshold <= 0:
            raise ValueError("delta and threshold must be positive")
        self.delta = delta
        self.threshold = threshold
        self.min_samples = min_samples
        self.reset()

    def reset(self) -> None:
        """Forget all history (used after a confirmed change point)."""
        self._n = 0
        self._mean = 0.0
        self._cum_up = 0.0
        self._min_up = 0.0
        self._cum_down = 0.0
        self._max_down = 0.0

    @property
    def statistic(self) -> float:
        """Current worst-side cumulative deviation above its extremum."""
        return max(self._cum_up - self._min_up, self._max_down - self._cum_down)

    def update(self, x: float) -> bool:
        """Consume one value; True when a change is detected (then resets)."""
        self._n += 1
        self._mean += (x - self._mean) / self._n
        self._cum_up += x - self._mean - self.delta
        self._min_up = min(self._min_up, self._cum_up)
        self._cum_down += x - self._mean + self.delta
        self._max_down = max(self._max_down, self._cum_down)
        if self._n < self.min_samples:
            return False
        if self.statistic > self.threshold:
            self.fired_statistic = self.statistic
            self.reset()
            return True
        return False


class SensorDriftDetector:
    """Per-stream drift detector over ``(7,)`` telemetry rows.

    Feed rows with :meth:`update`; every call costs O(sensors²) work and
    the whole detector holds O(window) bounded state — nothing grows with
    stream length (pinned by the memory test).  The first ``reference``
    samples only build the reference distribution; detection starts once
    the rolling window has filled past it.
    """

    def __init__(self, session_id: object = None,
                 config: DriftConfig | None = None):
        self.session_id = session_id
        self.config = config or DriftConfig()
        cfg = self.config
        self.n_seen = 0
        self.n_events = 0
        self._first_event_sample: int | None = None
        self._last_event_sample: int | None = None
        # Reference accumulation (bounded by cfg.reference rows).
        self._ref_rows: list[np.ndarray] | None = []
        self._ref_mean: np.ndarray | None = None
        self._ref_std: np.ndarray | None = None
        self._ref_cov: np.ndarray | None = None
        self._ref_cov_std: np.ndarray | None = None
        # Rolling current window: raw rows for eviction plus running sums.
        self._rows: deque[np.ndarray] = deque(maxlen=cfg.window)
        self._sum = np.zeros(N_GPU_SENSORS)
        self._iu = np.triu_indices(N_GPU_SENSORS)
        self._sum_prod = np.zeros(len(self._iu[0]))
        self._since_check = 0
        # Page–Hinkley per sensor, on standardized residuals.
        self._ph = [
            PageHinkley(delta=cfg.ph_delta, threshold=cfg.ph_threshold)
            for _ in range(N_GPU_SENSORS)
        ]
        self._last_fired: dict[str, int] = {}
        self._cov_names = _cov_feature_names()
        self._sensor_names = [s.name for s in GPU_SENSORS]

    # -- properties ----------------------------------------------------
    @property
    def drifted(self) -> bool:
        """Whether any detector has ever fired on this stream."""
        return self.n_events > 0

    @property
    def first_event_sample(self) -> int | None:
        """Stream position of the first firing (None while clean)."""
        return self._first_event_sample

    @property
    def last_event_sample(self) -> int | None:
        """Stream position of the most recent firing (None while clean)."""
        return self._last_event_sample

    @property
    def drifting(self) -> bool:
        """Whether a detector fired within the last ``horizon`` samples.

        Distinguishes *currently shifting* streams from streams that fired
        once long ago (a job changing phase naturally): the fleet-level
        alert keys on how many sessions are drifting at the same time, not
        on how many ever fired.
        """
        return (self._last_event_sample is not None
                and self.n_seen - self._last_event_sample
                <= self.config.horizon)

    @property
    def ready(self) -> bool:
        """True once the reference window is frozen and detection is live."""
        return self._ref_mean is not None

    # -- streaming -----------------------------------------------------
    def update(self, row) -> list[DriftEvent]:
        """Consume one ``(7,)`` telemetry row; returns any events fired."""
        row = np.asarray(row, dtype=np.float64)
        if row.shape != (N_GPU_SENSORS,):
            raise ValueError(
                f"expected a ({N_GPU_SENSORS},) row, got shape {row.shape}"
            )
        self.n_seen += 1
        if self.n_seen <= self.config.warmup:
            return []
        if self._ref_rows is not None:
            self._ref_rows.append(row)
            if len(self._ref_rows) >= self.config.reference:
                self._freeze_reference()
            return []
        return self._detect(row)

    def update_many(self, rows) -> list[DriftEvent]:
        """Consume ``(k, 7)`` rows in time order; concatenated events."""
        out: list[DriftEvent] = []
        for row in np.atleast_2d(np.asarray(rows, dtype=np.float64)):
            out.extend(self.update(row))
        return out

    # -- internals -----------------------------------------------------
    def _freeze_reference(self) -> None:
        cfg = self.config
        ref = np.stack(self._ref_rows)
        self._ref_rows = None
        self._ref_mean = ref.mean(axis=0)
        self._ref_std = np.maximum(ref.std(axis=0), _EPS)
        centred = ref - self._ref_mean
        # Telemetry is strongly autocorrelated (phases), which shrinks the
        # effective sample size of every window statistic: a 9 Hz power
        # oscillation makes 270 samples carry far fewer than 270
        # independent observations.  Estimate lag-1 autocorrelation per
        # sensor and deflate n by the standard (1-rho)/(1+rho) factor —
        # iid streams get rho ~= 0 and are unaffected.
        denom = np.maximum((centred ** 2).sum(axis=0), _EPS)
        rho = (centred[:-1] * centred[1:]).sum(axis=0) / denom
        rho = np.clip(rho, 0.0, 0.999)
        self._n_eff_factor = (1.0 - rho) / (1.0 + rho)
        gram = (centred.T @ centred) / ref.shape[0]
        self._ref_cov = gram[self._iu]
        # Sampling scales from disjoint reference blocks (batch means):
        # telemetry is long-memory — utilization plateaus and power
        # oscillations persist for whole phases — so parametric scales
        # (even lag-1 autocorrelation corrections) wildly underestimate
        # the natural variability of a window statistic.  The empirical
        # spread of block means/features captures it directly; rescale
        # from block size to the rolling-window size (sqrt-n) and floor at
        # the iid scale so zero-variance sensors never divide by ~0.
        blocks = np.array_split(centred, cfg.n_blocks)
        block_means = np.stack([b.mean(axis=0) for b in blocks])
        feats = []
        for b in blocks:
            bc = b - b.mean(axis=0)      # own-mean centred, like the test
            g = (bc.T @ bc) / max(1, bc.shape[0])
            feats.append(g[self._iu])
        block_n = ref.shape[0] / cfg.n_blocks
        scale = math.sqrt(block_n / cfg.window)
        iid_mean_scale = self._ref_std / math.sqrt(cfg.window)
        # Practical-significance floors, in physical units: steady-state
        # temperature/memory channels sit within a fraction of a unit of
        # their reference, so any slow thermal wander is a huge *statistical*
        # z while being operationally meaningless.  Flooring each scale at a
        # fraction of the sensor's physical range means a firing needs both
        # statistical significance and a real effect size (a 1.6x gain on
        # utilization moves ~30% of range; thermal creep moves <2%).
        sensor_range = np.array([s.hi - s.lo for s in GPU_SENSORS])
        mean_floor = cfg.mean_floor_frac * sensor_range
        cov_floor = np.outer(cfg.cov_floor_frac * sensor_range,
                             cfg.cov_floor_frac * sensor_range)[self._iu]
        self._mean_scale = np.maximum(
            np.maximum(block_means.std(axis=0) * scale, iid_mean_scale),
            mean_floor)
        self._ref_cov_std = np.maximum(
            np.maximum(np.stack(feats).std(axis=0) * scale, cov_floor),
            _EPS)
        self._ph_scale = np.maximum(self._ref_std, mean_floor)

    def _detect(self, row: np.ndarray) -> list[DriftEvent]:
        cfg = self.config
        out: list[DriftEvent] = []
        # Rolling sums: evict before append when the window is full.
        if len(self._rows) == cfg.window:
            old = self._rows[0]
            self._sum -= old
            centred_old = old - self._ref_mean
            self._sum_prod -= np.outer(centred_old, centred_old)[self._iu]
        self._rows.append(row)
        self._sum += row
        centred = row - self._ref_mean
        self._sum_prod += np.outer(centred, centred)[self._iu]
        # Page–Hinkley on standardized residuals (autocorrelation-deflated
        # so cumulative excursions stay in long-run sigma units), one
        # detector per sensor.
        z_row = centred / self._ph_scale * np.sqrt(self._n_eff_factor)
        for i, ph in enumerate(self._ph):
            if ph.update(z_row[i]):
                out.extend(self._fire(
                    self._sensor_names[i], "page_hinkley",
                    ph.fired_statistic, cfg.ph_threshold))
        # Window z-tests every check_every samples once the window filled.
        self._since_check += 1
        if len(self._rows) == cfg.window and self._since_check >= cfg.check_every:
            self._since_check = 0
            out.extend(self._check_window())
        return out

    def _check_window(self) -> list[DriftEvent]:
        cfg = self.config
        out: list[DriftEvent] = []
        n = len(self._rows)
        cur_mean = self._sum / n
        # Mean z-test against the batch-means scale (see _freeze_reference).
        z = (cur_mean - self._ref_mean) / self._mean_scale
        for i in np.flatnonzero(np.abs(z) > cfg.z_mean):
            out.extend(self._fire(
                self._sensor_names[int(i)], "mean", float(z[i]), cfg.z_mean))
        # Covariance-feature z-test against the block-estimated scale.
        # _sum_prod accumulates products about the *reference* mean; subtract
        # the mean-offset outer product so the tested statistic is the
        # window's covariance about its own mean — otherwise any mean shift
        # (temperature creeps up all job long) leaks quadratically into
        # every var/cov feature and double-fires what the mean test owns.
        diff = cur_mean - self._ref_mean
        cur_cov = self._sum_prod / n - np.outer(diff, diff)[self._iu]
        zc = (cur_cov - self._ref_cov) / self._ref_cov_std
        for i in np.flatnonzero(np.abs(zc) > cfg.z_cov):
            out.extend(self._fire(
                self._cov_names[int(i)], "covariance", float(zc[i]), cfg.z_cov))
        return out

    def _fire(self, sensor: str, kind: str, statistic: float,
              threshold: float) -> list[DriftEvent]:
        key = f"{kind}:{sensor}"
        last = self._last_fired.get(key)
        if last is not None and self.n_seen - last < self.config.cooldown:
            return []
        self._last_fired[key] = self.n_seen
        self.n_events += 1
        self._last_event_sample = self.n_seen
        if self._first_event_sample is None:
            self._first_event_sample = self.n_seen
        return [DriftEvent(
            session_id=self.session_id,
            sensor=sensor,
            kind=kind,
            sample_index=self.n_seen,
            statistic=statistic,
            threshold=threshold,
        )]
