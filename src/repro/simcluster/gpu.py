"""V100 GPU device model: power draw and first-order thermal dynamics.

The simulator first synthesizes *activity* traces (compute utilization,
memory-bandwidth utilization, memory footprint) from the class signature,
then this module maps activity to the physical sensors of Table III:
``power_draw_W`` responds to utilization with class-specific efficiency, and
the two temperatures follow power through first-order low-pass dynamics —
so temperature carries a smoothed copy of the utilization rhythm, as it does
in the real dataset.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.simcluster.sensors import GPU_SENSORS, gpu_sensor_index
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


def _first_order(target: np.ndarray, dt: float, tau: float, y0: float) -> np.ndarray:
    """Run ``y' = (target - y) / tau`` over a uniformly sampled target.

    Implemented as a single-pole IIR filter via :func:`scipy.signal.lfilter`
    (vectorized; no Python-level time loop).
    """
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    from scipy.signal import lfilter  # imported here: serving never simulates

    alpha = 1.0 - np.exp(-dt / tau)
    b = [alpha]
    a = [1.0, -(1.0 - alpha)]
    zi = np.array([(1.0 - alpha) * y0])
    y, _ = lfilter(b, a, target, zi=zi)
    return y


class GpuModel:
    """Map activity traces to physical GPU sensor channels."""

    def __init__(self, spec: GpuSpec = V100_SPEC):
        self.spec = spec

    def power(
        self,
        util_pct: np.ndarray,
        mem_util_pct: np.ndarray,
        sig: SignatureParams,
        rng: np.random.Generator,
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
            + rng.normal(0.0, sig.noise_power, size=util_pct.shape)
        )
        return np.clip(p, self.spec.idle_power_w, self.spec.tdp_w)

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
        core = _first_order(core_target, dt, spec.core_tau_s, t0)
        mem = _first_order(mem_target, dt, spec.mem_tau_s, t0)
        return core, mem

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
        n = util_pct.shape[0]
        power = self.power(util_pct, mem_util_pct, sig, rng)
        # Per-GPU thermal environment: rack ambient and cooling efficiency
        # vary by node, independent of the workload class.
        ambient = float(self.spec.ambient_c + rng.normal(0.0, 2.0))
        cooling = float(rng.lognormal(0.0, 0.07))
        temp_core, temp_mem = self.temperatures(
            power, mem_util_pct, dt, ambient_c=ambient, cooling=cooling
        )
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
        out = np.empty((n, len(GPU_SENSORS)), dtype=np.float64)
        out[:, gpu_sensor_index("utilization_gpu_pct")] = np.clip(util_pct, 0.0, 100.0)
        out[:, gpu_sensor_index("utilization_memory_pct")] = np.clip(
            mem_util_pct, 0.0, 100.0
        )
        out[:, gpu_sensor_index("memory_free_MiB")] = self.spec.memory_mib - mem_used
        out[:, gpu_sensor_index("memory_used_MiB")] = mem_used
        out[:, gpu_sensor_index("temperature_gpu")] = temp_core
        out[:, gpu_sensor_index("temperature_memory")] = temp_mem
        out[:, gpu_sensor_index("power_draw_W")] = power
        # Final physical-range clip per sensor spec.
        for j, spec_j in enumerate(GPU_SENSORS):
            out[:, j] = spec_j.clip(out[:, j])
        return out
