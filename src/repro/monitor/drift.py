"""Streaming drift detection over the seven GPU telemetry channels.

A serving fleet rots silently: a new DNN architecture, a preprocessing
change, or a sensor recalibration shifts the telemetry distribution and
the deployed classifier keeps emitting confident, wrong labels.  This
module watches the *inputs* — no labels required — with two complementary
detectors, both with bounded state and both exactly deterministic:

* **Reference-window z-tests** — the first ``reference`` samples of a
  stream are frozen as the reference distribution (per-sensor mean plus
  the 28 upper-triangle covariance features the paper's classifiers eat).
  A rolling window of the most recent ``window`` samples is then compared
  against it every ``check_every`` samples: a mean z-test per sensor and
  a z-test per covariance feature (feature scale estimated from reference
  blocks).  Covariance drift catches correlation breaks that leave every
  marginal mean untouched.
* **Page–Hinkley** — a cumulative-sum change detector per sensor over the
  standardized residual ``(x - ref_mean) / ref_std``.  Sensitive to small
  persistent mean shifts long before a window test sees them; its
  false-positive rate is controlled by ``ph_delta``/``ph_threshold``
  (expected excursion probability ``~exp(-2·delta·threshold)``).

Telemetry arrives in chunks (one ingress chunk per job per serving tick)
and is consumed a serving step at a time: :meth:`FleetDriftMonitor.on_ingress`
takes every chunk a step popped.  Rolling sums, Page–Hinkley cumulants
and window tests are a few array operations over each session's rows;
the window tests run only at the rows where they fall due.  The one
sequential step is the Page–Hinkley running mean, a row loop run once
per step across the detectors of every session, each row one
elementwise update.  Events and state are bit-identical however a
stream is split into chunks, down to one row at a time, and however
sessions are grouped into steps.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.simcluster.sensors import GPU_SENSORS, N_GPU_SENSORS

__all__ = [
    "DriftConfig",
    "DriftEvent",
    "PageHinkley",
    "SensorDriftDetector",
    "FleetDriftMonitor",
]

_EPS = 1e-9


@dataclass(frozen=True)
class DriftConfig:
    """Tuning knobs shared by every per-stream detector.

    Defaults are sized for the paper's 9 Hz telemetry: a 270-sample
    (30 s) reference and rolling window, checks every 90 samples (one
    hop), and thresholds high enough that stationary traffic stays
    silent (pinned by the test suite) while a ramped gain/offset shift
    fires within a few hundred samples.  ``warmup`` discards the leading
    samples of a stream before the reference is collected — real jobs
    spend their first minute in a startup ramp that would otherwise
    freeze an unrepresentative reference.
    """

    warmup: int = 0             # samples discarded before the reference
    reference: int = 270        # samples frozen as the reference window
    window: int = 270           # rolling current-window length
    check_every: int = 90       # samples between z-test evaluations
    z_mean: float = 8.0         # |z| threshold for per-sensor mean drift
    z_cov: float = 10.0         # |z| threshold per covariance feature
    ph_delta: float = 0.1       # PH drift allowance, in reference sigmas
    ph_threshold: float = 50.0  # PH cumulative-deviation firing level
    cooldown: int = 270         # samples between repeat events per detector
    n_blocks: int = 6           # reference blocks for scale estimates
    horizon: int = 540          # recency window for the fleet drift view
    mean_floor_frac: float = 0.02   # practical-significance floor, of range
    cov_floor_frac: float = 0.05    # same for covariance features

    def __post_init__(self):
        if self.n_blocks < 1:
            raise ValueError(f"n_blocks must be >= 1, got {self.n_blocks}")
        if self.reference < 2 * self.n_blocks:
            raise ValueError(
                f"reference window ({self.reference}) must hold at least "
                f"2 samples per block ({self.n_blocks} blocks)"
            )
        if self.window < 2 or self.check_every < 1:
            raise ValueError("window must be >= 2 and check_every >= 1")
        if self.warmup < 0:
            raise ValueError(f"warmup must be >= 0, got {self.warmup}")
        if self.cooldown < 0 or self.horizon < 0:
            raise ValueError(
                f"cooldown and horizon must be >= 0, got {self.cooldown} "
                f"and {self.horizon}"
            )
        if self.mean_floor_frac < 0 or self.cov_floor_frac < 0:
            raise ValueError("floor fractions must be >= 0")
        if min(self.z_mean, self.z_cov, self.ph_delta, self.ph_threshold) <= 0:
            raise ValueError("thresholds must be positive")


@dataclass(frozen=True)
class DriftEvent:
    """One detector firing.

    ``kind`` is ``"mean"``/``"covariance"``/``"page_hinkley"``;
    ``statistic`` is the z-score or PH cumulative deviation that crossed
    ``threshold`` (for PH, the value after the crossing sample and before
    the reset); ``sample_index`` counts samples into the stream
    (reference window included).
    """

    session_id: object
    sensor: str                 # sensor name, or "cov(a, b)" feature name
    kind: str
    sample_index: int
    statistic: float
    threshold: float


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
        return bool(_page_hinkley_scan(
            [self], np.array([[x]], np.float64), np.ones(1, np.intp)))


def _page_hinkley_scan(detectors: list[PageHinkley], z: np.ndarray,
                       lengths: np.ndarray) -> list[tuple[int, int, float]]:
    """Feed rows ``[0, lengths[c])`` of column ``c`` of ``z``, in row
    order, to ``detectors[c]``; returns ``(row, c, statistic)`` per
    firing.

    Every column advances together.  The running mean is the one
    sequential recurrence: a loop over rows, each row one elementwise
    update across all columns.  Cumulants and extrema then follow from
    ``accumulate`` over the whole block, and the threshold test is one
    mask; rows past a column's end are masked out.  A firing resets only
    its own detector; the columns that fired are rescanned together from
    the row after their firing, until none fires.  Every value is
    computed by the same IEEE float64 operations, in the same order, as
    one scalar update per sample, so the result does not depend on how a
    stream is split into calls or which columns share one.
    """
    fired = []
    cols = np.flatnonzero(lengths)
    start = np.zeros(cols.size, np.intp)      # first row of each column
    while cols.size:
        dets = [detectors[c] for c in cols]
        k = lengths[cols] - start
        r = int(k.max())
        ahead = np.arange(r + 1)[:, None]
        x = z[np.minimum(start + ahead[:-1], z.shape[0] - 1), cols]
        (n0, mean, cum_up, cum_down, min_up, max_down, delta, threshold,
         min_samples) = np.array([
             (d._n, d._mean, d._cum_up, d._cum_down, d._min_up, d._max_down,
              d.delta, d.threshold, d.min_samples) for d in dets]).T
        n = n0 + ahead                         # row 0: the state before
        means = np.empty_like(x)
        for xi, ni, out in zip(x, n[1:], means):
            mean = np.add(mean, (xi - mean) / ni, out=out)
        dev = x - means
        steps = np.empty((r + 1, 2, cols.size))
        steps[0] = cum_up, cum_down
        steps[1:, 0] = dev - delta
        steps[1:, 1] = dev + delta
        cum = np.add.accumulate(steps)
        up, down = cum[:, 0], cum[:, 1]
        steps[0] = min_up, max_down
        steps[1:] = cum[1:]
        min_up = np.minimum.accumulate(steps[:, 0])
        max_down = np.maximum.accumulate(steps[:, 1])
        stat = np.maximum(up - min_up, max_down - down)
        fire = (n >= min_samples) & (stat > threshold) & (ahead <= k)
        fire[0] = False
        hit = fire.any(axis=0)
        row = np.where(hit, fire.argmax(axis=0), k)   # last row consumed
        at = row, np.arange(cols.size)
        final = np.stack((n[at], means[row - 1, at[1]], up[at], down[at],
                          min_up[at], max_down[at]), axis=1).tolist()
        for det, h, (n_end, *state) in zip(dets, hit.tolist(), final):
            if h:
                det.reset()
            else:
                det._n = int(n_end)
                (det._mean, det._cum_up, det._cum_down, det._min_up,
                 det._max_down) = state
        fired.extend(zip((start + row - 1)[hit].tolist(), cols[hit].tolist(),
                         stat[at][hit].tolist()))
        start = (start + row)[hit]
        cols = cols[hit]
        more = start < lengths[cols]
        cols, start = cols[more], start[more]
    return fired


def _cov_feature_names() -> list[str]:
    names = [s.name for s in GPU_SENSORS]
    iu = np.triu_indices(len(names))
    return [
        f"var({names[i]})" if i == j else f"cov({names[i]}, {names[j]})"
        for i, j in zip(*iu)
    ]


#: Rows per session per detection pass; longer chunks are split so that
#: transient arrays stay bounded (the result does not depend on the split).
_MAX_CHUNK = 4096


def _as_rows(rows) -> np.ndarray:
    """``rows`` as a float64 ``(k, 7)`` array; ValueError for other shapes."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != N_GPU_SENSORS:
        raise ValueError(
            f"expected (k, {N_GPU_SENSORS}) rows, got shape {rows.shape}"
        )
    return rows


def _update_sessions(detectors: list, chunks: list) -> list[list[DriftEvent]]:
    """Feed the ``(k, 7)`` float64 ``chunks[i]`` to ``detectors[i]``;
    returns each detector's events.

    Warm-up, reference freezing, rolling sums and window tests run per
    detector.  The Page–Hinkley scan runs once per pass over the
    ``(rows, 7·sessions)`` block of every live detector's residuals.  A
    pass takes at most ``_MAX_CHUNK`` rows of each session, so a session
    with more rows takes part in successive passes.
    """
    events: list[list[DriftEvent]] = [[] for _ in detectors]
    live = []
    for i, (det, rows) in enumerate(zip(detectors, chunks)):
        rows, first = det._skip_and_reference(rows)
        if rows.shape[0]:
            live.append((i, det, rows, first))
    lo = 0
    while live:
        passes = [(i, det, rows[lo:lo + _MAX_CHUNK], first + lo)
                  for i, det, rows, first in live]
        z = np.zeros((max(p[2].shape[0] for p in passes),
                      N_GPU_SENSORS * len(passes)))
        lengths = np.empty(z.shape[1], np.intp)
        candidates = []
        for s, (_, det, rows, _) in enumerate(passes):
            cols = slice(N_GPU_SENSORS * s, N_GPU_SENSORS * (s + 1))
            residuals, found = det._window_pass(rows)
            z[:rows.shape[0], cols] = residuals
            lengths[cols] = rows.shape[0]
            candidates.append(found)
        detectors_ph = [ph for _, det, _, _ in passes for ph in det._ph]
        for row, c, stat in _page_hinkley_scan(detectors_ph, z, lengths):
            s, sensor = divmod(c, N_GPU_SENSORS)
            det = passes[s][1]
            # (row, kind rank, index) sorts PH before mean before
            # covariance at one row, the order the per-row detector
            # emitted them in.
            candidates[s].append((row, 0, sensor, det._sensor_names[sensor],
                                  "page_hinkley", stat,
                                  det.config.ph_threshold))
        for (i, det, _, first), found in zip(passes, candidates):
            events[i].extend(det._fire_sorted(found, first))
        lo += _MAX_CHUNK
        live = [entry for entry in live if entry[2].shape[0] > lo]
    return events


class SensorDriftDetector:
    """Per-stream drift detector over ``(k, 7)`` telemetry chunks.

    Feed rows with :meth:`update_many` (or one at a time with
    :meth:`update`, which is the same call on a one-row chunk); a
    :class:`FleetDriftMonitor` feeds many detectors in one call.  A chunk
    costs a few array operations over its ``k`` rows plus the
    Page–Hinkley running mean, a loop over its rows, each row one
    elementwise update across the seven sensors (and across every
    session of a fleet call).  Events and state are bit-identical however
    a stream is split into chunks.  The detector holds O(window) bounded
    state — nothing grows with stream length (pinned by the memory
    test).  The first ``reference`` samples only build the reference
    distribution; detection starts once the rolling window has filled
    past it.
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
        # Reference accumulation: chunks totalling <= cfg.reference rows.
        self._ref_rows: list[np.ndarray] | None = []
        self._ref_mean: np.ndarray | None = None
        self._ref_std: np.ndarray | None = None
        self._ref_cov: np.ndarray | None = None
        self._ref_cov_std: np.ndarray | None = None
        # Rolling current window: the last <= window rows plus running sums.
        self._rows = np.empty((0, N_GPU_SENSORS))
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
        return self.update_many(np.asarray(row, dtype=np.float64)[None])

    def update_many(self, rows) -> list[DriftEvent]:
        """Consume ``(k, 7)`` rows in time order; returns the events fired."""
        return _update_sessions([self], [_as_rows(rows)])[0]

    # -- internals -----------------------------------------------------
    def _skip_and_reference(self, rows: np.ndarray) -> tuple[np.ndarray, int]:
        """Count ``rows``, drop the warm-up and collect the reference;
        returns the rows left for detection and the sample index of the
        first of them."""
        start = self.n_seen
        self.n_seen += rows.shape[0]
        skip = max(self.config.warmup - start, 0)
        rows, first = rows[skip:], start + skip + 1   # sample index of rows[0]
        if self._ref_rows is not None and rows.shape[0]:
            need = self.config.reference - sum(map(len, self._ref_rows))
            self._ref_rows.append(rows[:need].copy())
            if rows.shape[0] < need:
                return rows[:0], first
            self._freeze_reference()
            rows, first = rows[need:], first + need
        return rows, first

    def _freeze_reference(self) -> None:
        cfg = self.config
        ref = np.concatenate(self._ref_rows)
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
        self._ph_gain = np.sqrt(self._n_eff_factor)

    def _window_pass(self, rows: np.ndarray) -> tuple[np.ndarray, list]:
        """Advance the rolling window over live ``rows``; returns their
        standardized Page–Hinkley residuals and the window z-test
        candidates that fell due."""
        cfg = self.config
        k, held = rows.shape[0], self._rows.shape[0]
        iu0, iu1 = self._iu
        buf = np.concatenate((self._rows, rows))
        centred = buf - self._ref_mean
        # Per-row terms of the rolling sums: the raw row, then the
        # reference-centred products (the same values as
        # np.outer(c, c)[iu], elementwise).
        feats = np.concatenate((buf, centred[:, iu0] * centred[:, iu1]),
                               axis=1)
        # Interleave [state, -evicted_0, row_0, -evicted_1, row_1, ...] and
        # accumulate: bit-identical to evicting (-=) then appending (+=)
        # row by row, because a - b == a + (-b) in IEEE arithmetic.  Rows
        # that evict nothing add -0.0, which leaves every value unchanged.
        terms = np.empty((2 * k + 1, feats.shape[1]))
        terms[0, :N_GPU_SENSORS] = self._sum
        terms[0, N_GPU_SENSORS:] = self._sum_prod
        terms[1::2] = -0.0
        terms[2::2] = feats[held:]
        n_evict = max(held + k - cfg.window, 0)
        if n_evict:
            terms[2 * (k - n_evict) + 1::2] = -feats[:n_evict]
        sums = np.add.accumulate(terms)[2::2]    # state after each row
        self._sum = sums[-1, :N_GPU_SENSORS].copy()
        self._sum_prod = sums[-1, N_GPU_SENSORS:].copy()
        self._rows = buf[-cfg.window:].copy()

        # Window z-tests every check_every samples once the window filled:
        # only the rows where a test falls due are evaluated.
        start = max(cfg.window - held - 1,
                    cfg.check_every - self._since_check - 1, 0)
        due = np.arange(start, k, cfg.check_every)
        self._since_check = (k - 1 - int(due[-1]) if due.size
                             else self._since_check + k)
        candidates = self._check_windows(due, sums[due]) if due.size else []
        # Page–Hinkley runs on standardized residuals (autocorrelation-
        # deflated so cumulative excursions stay in long-run sigma units),
        # one detector per sensor.
        return centred[held:] / self._ph_scale * self._ph_gain, candidates

    def _fire_sorted(self, candidates: list, first: int) -> list[DriftEvent]:
        """Fire ``(row, kind rank, index, sensor, kind, statistic,
        threshold)`` candidates in sorted order; ``first`` is the sample
        index of row 0."""
        out: list[DriftEvent] = []
        for row, _, _, sensor, kind, statistic, threshold in sorted(
                candidates):
            out.extend(self._fire(sensor, kind, statistic, threshold,
                                  first + row))
        return out

    def _check_windows(self, due: np.ndarray, sums: np.ndarray) -> list:
        """Window z-test candidates at chunk rows ``due``, from the rolling
        sums after each of those rows."""
        cfg = self.config
        iu0, iu1 = self._iu
        cur_mean = sums[:, :N_GPU_SENSORS] / cfg.window
        diff = cur_mean - self._ref_mean
        # Mean z-test against the batch-means scale (see _freeze_reference).
        z = diff / self._mean_scale
        out = [(int(due[r]), 1, i, self._sensor_names[i], "mean",
                float(z[r, i]), cfg.z_mean)
               for r, i in zip(*np.nonzero(np.abs(z) > cfg.z_mean))]
        # Covariance-feature z-test against the block-estimated scale.
        # _sum_prod accumulates products about the *reference* mean; subtract
        # the mean-offset outer product so the tested statistic is the
        # window's covariance about its own mean — otherwise any mean shift
        # (temperature creeps up all job long) leaks quadratically into
        # every var/cov feature and double-fires what the mean test owns.
        cur_cov = (sums[:, N_GPU_SENSORS:] / cfg.window
                   - diff[:, iu0] * diff[:, iu1])
        zc = (cur_cov - self._ref_cov) / self._ref_cov_std
        out.extend(
            (int(due[r]), 2, i, self._cov_names[i], "covariance",
             float(zc[r, i]), cfg.z_cov)
            for r, i in zip(*np.nonzero(np.abs(zc) > cfg.z_cov)))
        return out

    def _fire(self, sensor: str, kind: str, statistic: float,
              threshold: float, sample_index: int) -> list[DriftEvent]:
        key = f"{kind}:{sensor}"
        last = self._last_fired.get(key)
        if last is not None and sample_index - last < self.config.cooldown:
            return []
        self._last_fired[key] = sample_index
        self.n_events += 1
        self._last_event_sample = sample_index
        if self._first_event_sample is None:
            self._first_event_sample = sample_index
        return [DriftEvent(
            session_id=self.session_id,
            sensor=sensor,
            kind=kind,
            sample_index=sample_index,
            statistic=statistic,
            threshold=threshold,
        )]


@dataclass
class FleetDriftMonitor:
    """Server ingress tap fanning one :class:`SensorDriftDetector` per job.

    Attach to an :class:`~repro.serve.server.InferenceServer` via
    ``taps=[monitor]``: each serving step hands the monitor every chunk
    it popped, and each job's detector takes that job's rows.  State is
    O(window) per active session and is freed by :meth:`end_session`;
    recent events are kept in a bounded deque while counts and
    first-detection positions are scalars per session.
    """

    config: DriftConfig = field(default_factory=DriftConfig)
    metrics: object = None      # optional MetricsRegistry
    max_recent: int = 256
    _detectors: dict = field(default_factory=dict, repr=False)
    _recent: deque = field(default=None, repr=False)
    _first_detection: dict = field(default_factory=dict, repr=False)
    _seen: set = field(default_factory=set, repr=False)
    n_events: int = field(default=0, repr=False)

    def __post_init__(self):
        self._recent = deque(maxlen=self.max_recent)

    def on_ingress(self, chunks) -> None:
        """Server tap: update the detectors with one step's ingress.

        ``chunks`` is the step's ``(job_id, samples)`` pairs in pop order.
        A job's chunks are joined in order (a detector's result does not
        depend on how its stream is split), and one Page–Hinkley scan
        covers every session.  Every chunk is checked before any detector
        is created or updated, so a malformed one changes nothing.
        """
        by_job: dict = {}
        for job_id, samples in chunks:
            by_job.setdefault(job_id, []).append(_as_rows(samples))
        detectors = []
        for job_id in by_job:
            detector = self._detectors.get(job_id)
            if detector is None:
                detector = SensorDriftDetector(job_id, self.config)
                self._detectors[job_id] = detector
                self._seen.add(job_id)
            detectors.append(detector)
        rows = [parts[0] if len(parts) == 1 else np.concatenate(parts)
                for parts in by_job.values()]
        n_new = 0
        for job_id, events in zip(by_job,
                                  _update_sessions(detectors, rows)):
            if events:
                n_new += len(events)
                self._recent.extend(events)
                self._first_detection.setdefault(job_id,
                                                 events[0].sample_index)
        self.n_events += n_new
        if self.metrics is not None:
            if n_new:
                self.metrics.counter("monitor.drift.events").inc(n_new)
            self.metrics.gauge("monitor.drift.sessions_drifted").set(
                len(self._first_detection))
            self.metrics.gauge("monitor.drift.drifted_fraction").set(
                self.drifted_fraction)
            self.metrics.gauge("monitor.drift.drifting_fraction").set(
                self.drifting_fraction)

    def end_session(self, job_id) -> bool:
        """Free the per-job detector (first-detection record is kept)."""
        existed = self._detectors.pop(job_id, None) is not None
        if existed and self.metrics is not None:
            self.metrics.gauge("monitor.drift.drifting_fraction").set(
                self.drifting_fraction)
        return existed

    # -- fleet view ----------------------------------------------------
    @property
    def n_sessions(self) -> int:
        """Sessions currently holding a live detector."""
        return len(self._detectors)

    @property
    def drifted_fraction(self) -> float:
        """Fraction of sessions ever observed that fired (0 when none seen)."""
        if not self._seen:
            return 0.0
        return len(self._first_detection) / len(self._seen)

    @property
    def drifting_fraction(self) -> float:
        """Fraction of *live* sessions drifting within the recency horizon.

        The separating fleet signal: individual jobs change phase and trip
        their detectors occasionally, but those firings are scattered in
        time.  A platform-level shift (sensor recalibration, preprocessing
        bug) trips most of the fleet inside one horizon, so this fraction
        jumps toward 1 only under correlated drift.
        """
        if not self._detectors:
            return 0.0
        drifting = sum(1 for d in self._detectors.values() if d.drifting)
        return drifting / len(self._detectors)

    def first_detections(self) -> dict:
        """``job_id -> sample_index`` of each session's first firing."""
        return dict(self._first_detection)

    def recent_events(self) -> list[DriftEvent]:
        """The most recent events (bounded by ``max_recent``)."""
        return list(self._recent)

    def detection_latencies(self, drift_start: int) -> dict:
        """Per-session samples between an injected ``drift_start`` and the
        first firing; sessions that fired *before* the start are excluded
        (those are false positives, counted by the caller)."""
        return {
            job: first - drift_start
            for job, first in self._first_detection.items()
            if first >= drift_start
        }
