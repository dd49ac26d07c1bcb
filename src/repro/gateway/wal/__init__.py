"""Write-ahead log and checkpointed recovery for the pricing gateway.

The durability story in one sentence: every envelope the service accepts
is fsync'd to ``wal.jsonl`` *before* its effects apply, checkpoints
periodically capture the whole service state tagged with the WAL
sequence they cover, and :func:`~repro.gateway.wal.recovery.recover`
rebuilds a bit-identical service from the latest valid checkpoint plus
the WAL tail.

Modules:

- :mod:`~repro.gateway.wal.records` — JSONL framing, sequence numbers,
  CRC32 checksums, and the shared line reader trace replay also uses.
- :mod:`~repro.gateway.wal.writer` — the fsync'd appender with crash
  probes.
- :mod:`~repro.gateway.wal.checkpoint` — atomic full-state snapshots
  through the gateway codec.
- :mod:`~repro.gateway.wal.recovery` — checkpoint + tail replay, torn
  line truncation, corruption refusal.
- :mod:`~repro.gateway.wal.rotate` — segment rotation at checkpoint
  time and retain-N garbage collection of aged checkpoints/segments.

``PricingService.attach_wal`` / ``PricingService.recover`` are the
user-facing entry points; see API.md's "Durability and recovery".
"""

from repro.gateway.wal.checkpoint import (
    CHECKPOINT_FORMAT,
    capture_state,
    checkpoint_path,
    load_checkpoint,
    restore_service,
    write_checkpoint,
)
from repro.gateway.wal.records import (
    WAL_FILENAME,
    JsonlLine,
    WalRecord,
    checksum,
    decode_record,
    encode_record,
    iter_jsonl,
)
from repro.gateway.wal.recovery import WalLog, read_log, recover
from repro.gateway.wal.rotate import (
    SEGMENT_GLOB,
    GcReport,
    collect_garbage,
    list_segments,
    segment_path,
    segment_range,
)
from repro.gateway.wal.writer import WalWriter

__all__ = [
    "WAL_FILENAME",
    "JsonlLine",
    "iter_jsonl",
    "WalRecord",
    "encode_record",
    "decode_record",
    "checksum",
    "WalWriter",
    "CHECKPOINT_FORMAT",
    "checkpoint_path",
    "capture_state",
    "write_checkpoint",
    "load_checkpoint",
    "restore_service",
    "read_log",
    "WalLog",
    "recover",
    "SEGMENT_GLOB",
    "segment_path",
    "segment_range",
    "list_segments",
    "GcReport",
    "collect_garbage",
]
