"""Sensor and metric schemas (paper Tables II and III).

The GPU sensor *order* matters: the challenge datasets store the seven GPU
sensors in the last axis in exactly the order of Table III ("element 0 is
utilization_gpu_pct, element 1 is utilization_memory_pct, etc."), and the
covariance-feature naming in the XGBoost analysis depends on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.telemetry import N_GPU_SENSORS

__all__ = [
    "SensorSpec",
    "GPU_SENSORS",
    "CPU_METRICS",
    "N_GPU_SENSORS",
    "N_CPU_METRICS",
    "GPU_LO",
    "GPU_HI",
    "CPU_LO",
    "CPU_HI",
    "gpu_sensor_index",
    "clip_gpu_series",
]


@dataclass(frozen=True)
class SensorSpec:
    """One telemetry channel.

    Attributes
    ----------
    name:
        Column name as released in the dataset.
    description:
        Human-readable description (from the paper's tables).
    unit:
        Physical unit of the recorded values.
    lo, hi:
        Physically plausible range; the simulator clips to it and the tests
        assert that generated data respects it.
    """

    name: str
    description: str
    unit: str
    lo: float
    hi: float

    def clip(self, values):
        """Clip an array into this sensor's physical range (returns array)."""
        return np.clip(values, self.lo, self.hi)


#: GPU time-series features, Table III, in dataset column order.
GPU_SENSORS: tuple[SensorSpec, ...] = (
    SensorSpec("utilization_gpu_pct", "Percentage of GPU utilized", "%", 0.0, 100.0),
    SensorSpec("utilization_memory_pct", "Percentage of memory utilized", "%", 0.0, 100.0),
    SensorSpec("memory_free_MiB", "Available GPU memory", "MiB", 0.0, 32510.0),
    SensorSpec("memory_used_MiB", "GPU memory in use", "MiB", 0.0, 32510.0),
    SensorSpec("temperature_gpu", "GPU temperature", "C", 20.0, 95.0),
    SensorSpec("temperature_memory", "GPU Memory temperature", "C", 20.0, 105.0),
    SensorSpec("power_draw_W", "Power drawn", "W", 0.0, 350.0),
)

#: CPU time-series features, Table II.
CPU_METRICS: tuple[SensorSpec, ...] = (
    SensorSpec("CPUFrequency", "CPU clock frequency", "MHz", 800.0, 3900.0),
    SensorSpec("CPUTime", "Time spent on compute by CPU", "s", 0.0, float("inf")),
    SensorSpec("CPUUtilization", "CPU utilization by job", "%", 0.0, 100.0),
    SensorSpec("RSS", "Resident Set Size memory footprint", "MiB", 0.0, 384_000.0),
    SensorSpec("VMSize", "Virtual memory used by process", "MiB", 0.0, 2_000_000.0),
    SensorSpec("Pages", "Linux memory pages", "count", 0.0, float("inf")),
    SensorSpec("ReadMB", "Amount of data read", "MB", 0.0, float("inf")),
    SensorSpec("WriteMB", "Amount of data written", "MB", 0.0, float("inf")),
)

N_CPU_METRICS = len(CPU_METRICS)

#: Per-column physical bounds, for one broadcast clip of a sensor matrix.
GPU_LO = np.array([s.lo for s in GPU_SENSORS])
GPU_HI = np.array([s.hi for s in GPU_SENSORS])
CPU_LO = np.array([s.lo for s in CPU_METRICS])
CPU_HI = np.array([s.hi for s in CPU_METRICS])

_GPU_INDEX = {spec.name: i for i, spec in enumerate(GPU_SENSORS)}


def clip_gpu_series(series):
    """Clip an ``(..., 7)`` GPU series into every sensor's physical range.

    Used wherever synthetic perturbations (drift injection, augmentation)
    could push telemetry outside Table III's plausible bounds; returns a
    new array.
    """
    series = np.asarray(series, dtype=np.float64)
    if series.shape[-1] != N_GPU_SENSORS:
        raise ValueError(
            f"last axis must have {N_GPU_SENSORS} sensors, "
            f"got shape {series.shape}"
        )
    return np.clip(series, GPU_LO, GPU_HI)


def gpu_sensor_index(name: str) -> int:
    """Return the dataset column index of a GPU sensor by name."""
    try:
        return _GPU_INDEX[name]
    except KeyError:
        raise KeyError(
            f"unknown GPU sensor {name!r}; expected one of {sorted(_GPU_INDEX)}"
        ) from None
