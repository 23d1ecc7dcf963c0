"""V100 GPU device model: power draw and first-order thermal dynamics.

The simulator first synthesizes *activity* traces (compute utilization,
memory-bandwidth utilization, memory footprint) from the class signature,
then this module maps activity to the physical sensors of Table III:
``power_draw_W`` responds to utilization with class-specific efficiency, and
the two temperatures follow power through first-order low-pass dynamics —
so temperature carries a smoothed copy of the utilization rhythm, as it does
in the real dataset.

A release runs this model in passes: each series' draws first, then its
power once its activity is known, then its sensors once the thermal lags
of every series of the release have run through one filter pass
(:mod:`repro.simcluster._recurrence`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.simcluster._recurrence import Recurrences
from repro.simcluster.sensors import GPU_HI, GPU_LO, GPU_SENSORS, gpu_sensor_index
from repro.simcluster.signatures import SignatureParams

__all__ = ["GpuSpec", "V100_SPEC", "GpuModel"]


@dataclass(frozen=True)
class GpuSpec:
    """Static hardware parameters of one GPU SKU."""

    name: str
    memory_mib: float        # on-board memory capacity
    tdp_w: float             # board power limit
    idle_power_w: float      # power at zero utilization
    ambient_c: float         # inlet air temperature
    core_c_per_w: float      # steady-state core heating per watt
    mem_c_per_w: float       # steady-state HBM heating per watt
    core_tau_s: float        # core thermal time constant
    mem_tau_s: float         # HBM thermal time constant
    throttle_c: float        # clock-throttle (slowdown) temperature


#: NVIDIA Volta V100-SXM2 32GB as installed in TX-Gaia GPU nodes.
V100_SPEC = GpuSpec(
    name="Tesla V100-SXM2-32GB",
    memory_mib=32_510.0,
    tdp_w=300.0,
    idle_power_w=42.0,
    ambient_c=30.0,
    core_c_per_w=0.165,
    mem_c_per_w=0.195,
    core_tau_s=18.0,
    mem_tau_s=30.0,
    throttle_c=78.0,
)


def _lag(dt: float, tau: float, y0: float) -> tuple[float, float, float]:
    """``(b0, a1, zi)`` of ``y' = (target - y) / tau`` sampled every ``dt``.

    The single-pole IIR filter ``b = [alpha]``, ``a = [1, -(1 - alpha)]``
    started from the steady state ``y0``.
    """
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    alpha = 1.0 - np.exp(-dt / tau)
    return alpha, -(1.0 - alpha), (1.0 - alpha) * y0


def _first_order(target: np.ndarray, dt: float, tau: float, y0: float) -> np.ndarray:
    """Run ``y' = (target - y) / tau`` over a uniformly sampled target.

    One series through the release's first-order filter pass
    (:func:`repro.simcluster._recurrence.first_order_pass`).
    """
    queue = Recurrences()
    y = queue.add(np.array(target, dtype=np.float64), *_lag(dt, tau, y0))
    queue.run()
    return y


class GpuModel:
    """Map activity traces to physical GPU sensor channels.

    A release runs this model in passes (see
    :mod:`repro.simcluster.workload`): :meth:`draw_noise` takes a series'
    random draws, :meth:`power_from_noise` and :meth:`queue_temperatures`
    run once its activity is known, and :meth:`sensors` once the release's
    thermal lags are filtered.  :meth:`assemble` runs the same steps on
    one series.
    """

    def __init__(self, spec: GpuSpec = V100_SPEC):
        self.spec = spec

    def draw_noise(
        self, sig: SignatureParams, n: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, float, float]:
        """One series' draws: power noise, then its thermal environment.

        Rack ambient and cooling efficiency vary by node, independent of
        the workload class.
        """
        noise = rng.normal(0.0, sig.noise_power, size=n)
        ambient = float(self.spec.ambient_c + rng.normal(0.0, 2.0))
        cooling = float(rng.lognormal(0.0, 0.07))
        return noise, ambient, cooling

    def power_from_noise(
        self,
        util_pct: np.ndarray,
        mem_util_pct: np.ndarray,
        sig: SignatureParams,
        noise: np.ndarray,
    ) -> np.ndarray:
        """Instantaneous board power from compute and memory activity.

        Power = class base + class-specific watts/percent-util on compute,
        plus a smaller universal memory-bandwidth term, plus measurement
        noise; clipped to ``[idle, TDP]``.
        """
        p = (
            sig.power_base_w
            + sig.power_per_util * util_pct
            + 0.35 * mem_util_pct
            + noise
        )
        return np.clip(p, self.spec.idle_power_w, self.spec.tdp_w)

    def power(
        self,
        util_pct: np.ndarray,
        mem_util_pct: np.ndarray,
        sig: SignatureParams,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """:meth:`power_from_noise` with freshly drawn measurement noise."""
        noise = rng.normal(0.0, sig.noise_power, size=util_pct.shape)
        return self.power_from_noise(util_pct, mem_util_pct, sig, noise)

    def queue_temperatures(
        self,
        queue: Recurrences,
        power_w: np.ndarray,
        mem_util_pct: np.ndarray,
        dt: float,
        *,
        ambient_c: float | None = None,
        cooling: float = 1.0,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Queue the core and HBM thermal lags on ``queue``.

        Returns their target series; ``queue.run()`` turns them into the
        temperatures in place (see :meth:`temperatures`).
        """
        spec = self.spec
        if ambient_c is None:
            ambient_c = spec.ambient_c
        core_target = ambient_c + cooling * spec.core_c_per_w * power_w
        mem_target = (
            ambient_c
            + cooling * spec.mem_c_per_w * power_w
            + 0.06 * mem_util_pct
        )
        t0 = ambient_c + cooling * spec.core_c_per_w * spec.idle_power_w
        return (queue.add(core_target, *_lag(dt, spec.core_tau_s, t0)),
                queue.add(mem_target, *_lag(dt, spec.mem_tau_s, t0)))

    def temperatures(
        self,
        power_w: np.ndarray,
        mem_util_pct: np.ndarray,
        dt: float,
        *,
        ambient_c: float | None = None,
        cooling: float = 1.0,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Core and HBM temperature series driven by power.

        Both follow first-order dynamics toward ``ambient + k * power``; the
        memory temperature additionally tracks memory-bandwidth activity
        (HBM self-heating).

        ``ambient_c`` and ``cooling`` model per-node environment variation
        (rack position, fan curves).  This injects *class-irrelevant*
        variance into the temperature channels — on the real cluster,
        temperature carries more node identity than workload identity,
        which is part of why distance-based models underperform tree models
        on covariance features (Table V).
        """
        queue = Recurrences()
        core, mem = self.queue_temperatures(
            queue, power_w, mem_util_pct, dt, ambient_c=ambient_c, cooling=cooling
        )
        queue.run()
        return core, mem

    def sensors(
        self,
        util_pct: np.ndarray,
        mem_util_pct: np.ndarray,
        mem_used_mib: np.ndarray,
        power: np.ndarray,
        temp_core: np.ndarray,
        temp_mem: np.ndarray,
    ) -> np.ndarray:
        """Throttle, then the ``(n_samples, 7)`` sensor matrix in Table III order."""
        # Thermal throttling: above the slowdown temperature the driver caps
        # clocks, cutting power and effective utilization.  This is a sharp
        # regime switch — classes whose steady state approaches the limit
        # acquire a distinct clipped signature.
        throttle = temp_core > self.spec.throttle_c
        if throttle.any():
            power = power.copy()
            util_pct = np.asarray(util_pct, dtype=np.float64).copy()
            power[throttle] *= 0.82
            util_pct[throttle] = np.minimum(util_pct[throttle] * 0.88, 100.0)
        mem_used = np.clip(mem_used_mib, 0.0, self.spec.memory_mib)
        out = np.empty((util_pct.shape[0], len(GPU_SENSORS)), dtype=np.float64)
        out[:, gpu_sensor_index("utilization_gpu_pct")] = util_pct
        out[:, gpu_sensor_index("utilization_memory_pct")] = mem_util_pct
        out[:, gpu_sensor_index("memory_free_MiB")] = self.spec.memory_mib - mem_used
        out[:, gpu_sensor_index("memory_used_MiB")] = mem_used
        out[:, gpu_sensor_index("temperature_gpu")] = temp_core
        out[:, gpu_sensor_index("temperature_memory")] = temp_mem
        out[:, gpu_sensor_index("power_draw_W")] = power
        # Final physical-range clip per sensor spec.
        return np.clip(out, GPU_LO, GPU_HI, out=out)

    def assemble(
        self,
        util_pct: np.ndarray,
        mem_util_pct: np.ndarray,
        mem_used_mib: np.ndarray,
        sig: SignatureParams,
        dt: float,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Build the full ``(n_samples, 7)`` sensor matrix in Table III order."""
        noise, ambient, cooling = self.draw_noise(sig, util_pct.shape[0], rng)
        power = self.power_from_noise(util_pct, mem_util_pct, sig, noise)
        temp_core, temp_mem = self.temperatures(
            power, mem_util_pct, dt, ambient_c=ambient, cooling=cooling
        )
        return self.sensors(
            util_pct, mem_util_pct, mem_used_mib, power, temp_core, temp_mem
        )
