"""Durable append: the write-ahead log's write side.

Every accepted envelope is framed (:mod:`repro.gateway.wal.records`),
appended, flushed, and fsync'd **before** its effects apply — the fsync
is the durability point, so a crash leaves either a fully durable record
or (at worst) a torn final line that recovery truncates away. One bulk
batched ``dispatch`` run is one record and therefore one fsync, which is
what keeps the steady-state dispatch overhead low
(``benchmarks/bench_recovery.py`` gates it).

The optional ``probe`` callable is the crash-injection seam: it fires
with ``"wal:append"`` just before the bytes are written and
``"wal:appended"`` once they are durable (see ``tests/crashpoints.py``).

:meth:`WalWriter.rotate` supports log compaction: it seals the active
file into an immutable range-named segment (``wal-<first>-<last>.jsonl``)
and starts a fresh active file, so checkpoint-time garbage collection
(:mod:`repro.gateway.wal.rotate`) can delete whole segments instead of
rewriting the log in place.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro import obs
from repro.gateway.wal.records import WalRecord, encode_record

__all__ = ["WalWriter"]

_APPEND_SECONDS = obs.REGISTRY.histogram(
    "repro_wal_append_seconds",
    "Wall time of one durable append (write + flush + fsync).",
)
_FSYNC_SECONDS = obs.REGISTRY.histogram(
    "repro_wal_fsync_seconds",
    "Wall time of the fsync alone (the durability point).",
)
_BYTES_TOTAL = obs.REGISTRY.counter(
    "repro_wal_bytes_total",
    "Bytes appended to the active WAL file (records are ASCII JSONL).",
)
_ROTATIONS_TOTAL = obs.REGISTRY.counter(
    "repro_wal_rotations_total",
    "Active-file rotations into sealed segments.",
)


class WalWriter:
    """Sequenced, fsync'd appender over one active ``wal.jsonl`` file."""

    def __init__(
        self, path, *, next_seq: int = 1, file_first_seq=None, probe=None
    ) -> None:
        self.path = Path(path)
        self._next_seq = int(next_seq)
        # First sequence number held by the *active* file — what the
        # sealed segment's range-name starts with at rotation. A fresh
        # file starts at next_seq; recovery passes the true first seq of
        # the surviving active file instead.
        self._file_first_seq = int(
            next_seq if file_first_seq is None else file_first_seq
        )
        self._probe = probe
        self._handle = open(self.path, "a", encoding="utf-8")
        self.fsyncs = 0  # benchmarks gate fsyncs/request on this

    @property
    def last_seq(self) -> int:
        """Sequence number of the most recently appended record (0 if none)."""
        return self._next_seq - 1

    @property
    def closed(self) -> bool:
        return self._handle is None

    def append_request(self, epoch: int, request: dict) -> int:
        """Durably log one envelope (wire form); returns its sequence."""
        return self._append(
            WalRecord(
                seq=self._next_seq, epoch=epoch, requests=(request,), batch=False
            )
        )

    def append_batch(self, epoch: int, requests: list) -> int:
        """Durably log one group-committed batch as a single record/fsync."""
        return self._append(
            WalRecord(
                seq=self._next_seq,
                epoch=epoch,
                requests=tuple(requests),
                batch=True,
            )
        )

    def _append(self, record: WalRecord) -> int:
        line = encode_record(record)
        if self._probe is not None:
            self._probe("wal:append")
        with _APPEND_SECONDS.time():
            self._handle.write(line)
            self._handle.flush()
            with _FSYNC_SECONDS.time():
                os.fsync(self._handle.fileno())
        self.fsyncs += 1
        _BYTES_TOTAL.inc(len(line))
        self._next_seq = record.seq + 1
        if self._probe is not None:
            self._probe("wal:appended")
        return record.seq

    def rotate(self):
        """Seal the active file into a range-named segment and start fresh.

        The active file is fsync'd, renamed to
        ``wal-<first>-<last>.jsonl`` (``os.replace`` — atomic on POSIX),
        the directory entry is fsync'd so the rename is durable, and a
        new empty active file takes its place. Returns the segment path,
        or ``None`` when the active file holds no records (rotating an
        empty file would mint a nonsense range).
        """
        from repro.gateway.wal.rotate import segment_path

        if self._handle is None:
            raise ValueError("cannot rotate a closed WAL writer")
        if self.last_seq < self._file_first_seq:
            return None
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._handle.close()
        sealed = segment_path(
            self.path.parent, self._file_first_seq, self.last_seq
        )
        os.replace(self.path, sealed)
        dir_fd = os.open(self.path.parent, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
        self._handle = open(self.path, "a", encoding="utf-8")
        self._file_first_seq = self._next_seq
        _ROTATIONS_TOTAL.inc()
        return sealed

    def close(self) -> None:
        """Flush and release the file handle (idempotent)."""
        if self._handle is not None:
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._handle.close()
            self._handle = None
