"""Shape of the GPU telemetry stream: sensor count and sampling interval.

A dependency-free leaf module.  Serving, streaming and the fleet worker
read these constants from here, so a process that only serves never
imports the simulator package (:mod:`repro.simcluster`), which re-exports
both.
"""

__all__ = ["N_GPU_SENSORS", "DEFAULT_DT_S"]

#: GPU sensors per telemetry sample (paper Table III);
#: :data:`repro.simcluster.sensors.GPU_SENSORS` lists them in column order.
N_GPU_SENSORS = 7

#: GPU telemetry sampling interval.  540 samples per 60-second window in the
#: challenge datasets implies 9 Hz.
DEFAULT_DT_S = 60.0 / 540.0
