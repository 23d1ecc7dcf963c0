"""repro.store — crash-safe sharded telemetry store with zero-copy replay.

The system of record for simulated fleet telemetry, built from four
layers (each its own module):

* :mod:`repro.store.wal` — per-shard write-ahead log with group commit
  and CRC-framed records; a kill mid-commit loses only the torn tail.
* :mod:`repro.store.segment` — immutable columnar float32 segment files
  read through ``np.memmap``: every sealed trial is one contiguous
  row-range view, copied nowhere.
* :mod:`repro.store.manifest` — the atomically swapped segment catalog;
  the store's single commit point for sealing.
* :mod:`repro.store.store` — :class:`TelemetryStore`, the orchestrator:
  append → group commit → seal → serve, with recovery on open.

On top: :mod:`repro.store.compact` (time-bucketed downsampling with
retention, preserving full-trace moments), :mod:`repro.store.replay`
(deterministic re-drive of serve/monitor scenarios at a configurable
rate).  Replay determinism, SIGKILL recovery at every ``store.*`` fault
point and compaction moments are pinned by ``tests/test_store_replay.py``,
``tests/test_store_crash.py`` and ``tests/test_store.py``; ingest, open
and read timings come from ``perfbench/``.
"""

from repro.store.compact import CompactionReport, bucket_means, compact_store
from repro.store.manifest import Manifest
from repro.store.replay import ReplayConfig, Replayer
from repro.store.segment import SegmentReader, SegmentWriter, TrialSlice
from repro.store.store import TelemetryStore
from repro.store.wal import WalRecord, WriteAheadLog, read_wal

__all__ = [
    "CompactionReport",
    "Manifest",
    "ReplayConfig",
    "Replayer",
    "SegmentReader",
    "SegmentWriter",
    "TelemetryStore",
    "TrialSlice",
    "WalRecord",
    "WriteAheadLog",
    "bucket_means",
    "compact_store",
    "read_wal",
]
